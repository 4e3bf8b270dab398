//! The read path: pieces a held store owns by memcpy, everything else
//! through the per-rank [`TileCache`](crate::cache::TileCache) — hits
//! from memory, concurrent readers of one uncached block coalesced onto
//! a single fill, and each fill's remote pieces as one wire get per owner.

use crate::cache::{Lookup, Reader};
use crate::distga::{Assembly, WaitSlot};
use crate::{Ga, GaGetCallback, GaHandle, NodeId};
use std::ops::Range;

impl Ga {
    /// True when this process holds the owner of every piece.
    fn all_held(&self, pieces: &[(NodeId, Range<usize>)]) -> bool {
        pieces.iter().all(|(node, _)| self.store(*node).is_some())
    }

    /// Warm the tile cache for a later read of `[offset, offset+len)`:
    /// a miss starts the coalescable fill, a hit or in-flight fill (or
    /// a range held here) is left alone. Nothing is
    /// delivered, so the `verify_reads` oracle is skipped — which is
    /// what makes this, unlike [`Ga::get_async`], safe to call from the
    /// progress thread (a blocking verify there would deadlock against
    /// the replies only that thread can deliver).
    pub fn prefetch(&self, h: GaHandle, offset: usize, len: usize, prio: i64) {
        let pieces = self.owners_of(h, offset, len);
        if self.all_held(&pieces) {
            return;
        }
        let cache = &self.wire().cache;
        let nop = Reader::Owned(Box::new(|_| {}));
        match cache.lookup((h.0, offset, len), vec![0.0; len], nop) {
            Lookup::Hit { .. } | Lookup::Joined => {}
            Lookup::Fill { fill, buf, cb } => {
                let cb = cache.completion(fill, cb.into_owned());
                self.fetch_assemble(h, offset, buf, prio, cb, &pieces);
            }
        }
    }

    /// Read `[offset, offset+buf.len())`: a range held here is assembled
    /// in place (one lookup when the first held store owns all of it),
    /// with no cache involvement; any other goes through the tile cache —
    /// cached blocks are served from memory, to a shared reader as the
    /// cached block itself, `buf` returned unused; concurrent readers of
    /// one uncached block coalesce onto a single fill whose completion
    /// feeds every waiter.
    pub(crate) fn fetch(
        &self,
        h: GaHandle,
        offset: usize,
        mut buf: Vec<f64>,
        prio: i64,
        cb: Reader,
    ) -> Option<Vec<f64>> {
        let len = buf.len();
        if self.home().read_owned(h.0, offset, &mut buf) {
            self.stats.record_locality(len * 8, 0);
            cb.into_owned()(buf);
            return None;
        }
        let pieces = self.owners_of(h, offset, len);
        if self.all_held(&pieces) {
            self.fetch_assemble(h, offset, buf, prio, cb.into_owned(), &pieces);
            return None;
        }
        let cache = &self.wire().cache;
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

    /// Held pieces by memcpy, each remote piece one wire get, assembled
    /// into `buf` and handed to `cb` when the last piece lands (at once
    /// when none is remote).
    fn fetch_assemble(
        &self,
        h: GaHandle,
        offset: usize,
        mut buf: Vec<f64>,
        prio: i64,
        cb: GaGetCallback,
        pieces: &[(NodeId, Range<usize>)],
    ) {
        let (mut local_b, mut remote_b) = (0, 0);
        let mut remote = Vec::new();
        for (node, range) in pieces {
            if let Some(store) = self.store(*node) {
                let at = range.start - offset..range.end - offset;
                store.read_local(h.0, range.start, &mut buf[at]);
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
        let w = self.wire();
        let asm = Assembly::new(buf, remote.len(), cb);
        for (node, range) in remote {
            let asm = asm.clone();
            let at = range.start - offset;
            w.ep.get_async(
                w.view.members[node],
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
        let w = self.wire();
        let mut out = vec![0.0; len];
        let mut waits = Vec::new();
        for (node, range) in pieces {
            if let Some(store) = self.store(*node) {
                let at = range.start - offset..range.end - offset;
                store.read_local(h.0, range.start, &mut out[at]);
            } else {
                let slot = WaitSlot::new();
                w.ep.get_async(
                    w.view.members[*node],
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
