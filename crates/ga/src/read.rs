//! The distributed read path: all-local ranges by memcpy, everything else
//! through the per-rank [`TileCache`](crate::cache::TileCache) — hits from
//! memory, concurrent readers of one uncached block coalesced onto a
//! single fill, and each fill's remote pieces as one wire get per owner.

use crate::cache::{Lookup, Reader};
use crate::distga::{Assembly, WaitSlot};
use crate::{Backend, Ga, GaGetCallback, GaHandle, NodeId};
use std::ops::Range;

impl Ga {
    /// The distributed arm of [`Ga::get_into`]: a straight memcpy when this
    /// rank owns the whole range, else a cached fetch waited on here.
    pub(crate) fn dist_get_into(&self, h: GaHandle, offset: usize, out: &mut [f64]) {
        let Backend::Dist { store, .. } = &self.backend else {
            unreachable!("dist_get_into on local backend")
        };
        if store.read_owned(h.0, offset, out) {
            // Entirely this rank's shard: straight memcpy, no buffer
            // hand-off, no cache involvement.
            self.stats.record_locality(out.len() * 8, 0);
        } else {
            let slot = WaitSlot::new();
            let cb = Reader::Owned(slot.callback());
            self.dist_fetch(h, offset, vec![0.0; out.len()], i64::MAX, cb);
            out.copy_from_slice(&slot.wait());
        }
    }

    /// Warm the tile cache for a later read of `[offset, offset+len)`:
    /// a miss starts the coalescable fill, a hit or in-flight fill (or
    /// an all-local range) is left alone. Nothing is
    /// delivered, so the `verify_reads` oracle is skipped — which is
    /// what makes this, unlike [`Ga::get_async`], safe to call from the
    /// progress thread (a blocking verify there would deadlock against
    /// the replies only that thread can deliver).
    pub fn prefetch(&self, h: GaHandle, offset: usize, len: usize, prio: i64) {
        let Backend::Dist {
            store, cache, view, ..
        } = &self.backend
        else {
            return; // local backend: every read is already a memcpy
        };
        let dist = store.dist_of(h.0);
        let pieces = dist.owners_of(offset, len);
        if pieces.iter().all(|(node, _)| *node == view.my_node) {
            return;
        }
        let nop = Reader::Owned(Box::new(|_| {}));
        match cache.lookup((h.0, offset, len), vec![0.0; len], nop) {
            Lookup::Hit { .. } | Lookup::Joined => {}
            Lookup::Fill { fill, buf, cb } => {
                let cb = cache.completion(fill, cb.into_owned());
                self.fetch_assemble(h, offset, buf, prio, cb, &pieces);
            }
        }
    }

    /// Distributed read of `[offset, offset+buf.len())` through the tile
    /// cache: all-local ranges short-circuit (one array lookup, no store
    /// lock, no shared write); cached blocks are served from memory —
    /// to a shared reader as the cached block itself, `buf` returned
    /// unused; concurrent readers of one uncached block coalesce onto a
    /// single fill whose completion feeds every waiter.
    pub(crate) fn dist_fetch(
        &self,
        h: GaHandle,
        offset: usize,
        mut buf: Vec<f64>,
        prio: i64,
        cb: Reader,
    ) -> Option<Vec<f64>> {
        let Backend::Dist { store, cache, .. } = &self.backend else {
            unreachable!("dist_fetch on local backend")
        };
        let len = buf.len();
        if store.read_owned(h.0, offset, &mut buf) {
            self.stats.record_locality(len * 8, 0);
            cb.into_owned()(buf);
            return None;
        }
        let pieces = store.dist_of(h.0).owners_of(offset, len);
        match cache.lookup((h.0, offset, len), buf, cb) {
            Lookup::Hit { data, mut buf, cb } => {
                // Served from cache: no wire traffic, all bytes local.
                self.stats.record_locality(len * 8, 0);
                if cache.verify_reads() {
                    // Paranoia gate: refetch fresh from the owners and
                    // compare. Hits complete on the calling (application)
                    // thread, so blocking here is safe.
                    let fresh = self.fetch_fresh_blocking(h, offset, len, &pieces);
                    if fresh != *data {
                        self.stats.record_stale_read();
                    }
                }
                match cb {
                    Reader::Shared(cb) => {
                        cb(data);
                        return Some(buf);
                    }
                    Reader::Owned(cb) => {
                        buf.copy_from_slice(&data);
                        cb(buf);
                    }
                }
            }
            Lookup::Joined => {
                // Parked on an in-flight fill of the same block; its
                // completion delivers our buffer. No wire traffic ours.
                self.stats.record_locality(len * 8, 0);
            }
            Lookup::Fill { fill, buf, cb } => {
                let cb = cache.completion(fill, cb.into_owned());
                self.fetch_assemble(h, offset, buf, prio, cb, &pieces);
            }
        }
        None
    }

    /// The cache's fill path: local pieces by memcpy, each remote piece
    /// one wire get, assembled into `buf` and handed to `cb` when the
    /// last piece lands.
    fn fetch_assemble(
        &self,
        h: GaHandle,
        offset: usize,
        mut buf: Vec<f64>,
        prio: i64,
        cb: GaGetCallback,
        pieces: &[(NodeId, Range<usize>)],
    ) {
        let Backend::Dist {
            ep, store, view, ..
        } = &self.backend
        else {
            unreachable!("fetch_assemble on local backend")
        };
        let me = view.my_node;
        let (mut local_b, mut remote_b) = (0, 0);
        let mut remote = Vec::new();
        for (node, range) in pieces {
            if *node == me {
                store.read_local(
                    h.0,
                    range.start,
                    &mut buf[range.start - offset..range.end - offset],
                );
                local_b += range.len() * 8;
            } else {
                remote_b += range.len() * 8;
                remote.push((*node, range.clone()));
            }
        }
        self.stats.record_locality(local_b, remote_b);
        self.stats.record_remote_get_bytes(remote_b);
        if remote.is_empty() {
            cb(buf);
            return;
        }
        let asm = Assembly::new(buf, remote.len(), cb);
        for (node, range) in remote {
            let asm = asm.clone();
            let at = range.start - offset;
            ep.get_async(
                view.members[node],
                h.0 as u32,
                range.start,
                range.len(),
                prio,
                Box::new(move |data| asm.fill(at, data)),
            );
        }
    }

    /// Blocking uncached read straight from the owners, bypassing the
    /// cache — the `verify_reads` oracle. Its wire bytes are counted in
    /// `verify_get_bytes`, apart from the application's reads, so the
    /// endpoint reconciliation sums the two.
    fn fetch_fresh_blocking(
        &self,
        h: GaHandle,
        offset: usize,
        len: usize,
        pieces: &[(NodeId, Range<usize>)],
    ) -> Vec<f64> {
        let Backend::Dist {
            ep, store, view, ..
        } = &self.backend
        else {
            unreachable!("fetch_fresh_blocking on local backend")
        };
        let me = view.my_node;
        let mut out = vec![0.0; len];
        let mut waits = Vec::new();
        for (node, range) in pieces {
            if *node == me {
                store.read_local(
                    h.0,
                    range.start,
                    &mut out[range.start - offset..range.end - offset],
                );
            } else {
                let slot = WaitSlot::new();
                ep.get_async(
                    view.members[*node],
                    h.0 as u32,
                    range.start,
                    range.len(),
                    i64::MAX,
                    slot.wire_callback(),
                );
                self.stats.record_verify_get_bytes(range.len() * 8);
                waits.push((range.clone(), slot));
            }
        }
        for (range, slot) in waits {
            out[range.start - offset..range.end - offset].copy_from_slice(&slot.wait());
        }
        out
    }
}
