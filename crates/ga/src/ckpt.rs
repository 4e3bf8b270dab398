//! Epoch-aligned checkpoint/restore of the rank-local shard store.
//!
//! Each rank periodically spills a consistent image of its
//! [`DistStore`] — every live shard, the per-namespace allocation
//! cursors, the destroyed-id tombstones — plus this rank's NXTVAL
//! counter shard and the caller's epoch number, to a per-rank file
//! under a spill directory. The write is atomic (temp file + rename),
//! so a crash mid-checkpoint leaves the previous image intact.
//!
//! What is *not* checkpointed: barrier epochs (a restarted rank's
//! pending barriers are poison-released by the failure detector and
//! re-entered by the replayed work) and the tile cache (dropped on
//! restore; it refills from the restored shards). Consistency is the
//! caller's job: checkpoint at an epoch boundary — after `fence` +
//! `barrier` — so no in-flight remote write races the state copy.
//!
//! Restore replaces the whole store state and invalidates every cached
//! block of both old and restored arrays, then hands back the epoch and
//! NXTVAL value so the caller can resume (or replay from) that epoch.
//!
//! The format is a versioned little-endian byte stream, hand-rolled
//! like the wire codec — the workspace vendors no serde.

use crate::distga::{DistStore, StoreSnapshot};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Format magic + version; bump on layout change.
const MAGIC: &[u8; 8] = b"GACKPT01";

// ---- byte stream helpers ----------------------------------------------

struct W(Vec<u8>);

impl W {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.0.reserve(vs.len() * 8);
        for v in vs {
            self.0.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.buf.len() {
            return Err(format!(
                "checkpoint truncated at byte {} (need {n} more of {})",
                self.pos,
                self.buf.len()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, String> {
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

// ---- image encode / decode --------------------------------------------

/// Serialize a consistent image of `store` (see module docs for the
/// layout), stamped with the caller's `epoch` and this rank's NXTVAL
/// counter value.
pub fn encode(store: &DistStore, epoch: u64, nxtval: i64) -> Vec<u8> {
    let snap = store.snapshot_state();
    let mut w = W(Vec::new());
    w.0.extend_from_slice(MAGIC);
    w.u64(store.rank() as u64);
    w.u64(epoch);
    w.i64(nxtval);
    w.u64(snap.next_idx.len() as u64);
    for (tag, next) in &snap.next_idx {
        w.u64(*tag as u64);
        w.u64(*next as u64);
    }
    w.u64(snap.destroyed.len() as u64);
    for id in &snap.destroyed {
        w.u64(*id as u64);
    }
    w.u64(snap.arrays.len() as u64);
    for (id, len, nodes, base, shard) in &snap.arrays {
        w.u64(*id as u64);
        w.u64(*len as u64);
        w.u64(*nodes as u64);
        w.u64(*base as u64);
        w.u64(shard.len() as u64);
        w.f64s(shard);
    }
    w.0
}

/// Decode `bytes` and replace `store`'s entire state with the image.
/// Returns `(epoch, nxtval)`. The image must have been written by the
/// same rank (shards are rank-local; restoring another rank's image
/// would serve wrong data silently).
pub fn decode_into(store: &DistStore, bytes: &[u8]) -> Result<(u64, i64), String> {
    let mut r = R { buf: bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err("not a shard checkpoint (bad magic)".into());
    }
    let rank = r.u64()? as usize;
    if rank != store.rank() {
        return Err(format!(
            "checkpoint is for rank {rank}, store is rank {}",
            store.rank()
        ));
    }
    let epoch = r.u64()?;
    let nxtval = r.i64()?;
    let n_tags = r.u64()? as usize;
    let mut next_idx = Vec::with_capacity(n_tags);
    for _ in 0..n_tags {
        next_idx.push((r.u64()? as u32, r.u64()? as u32));
    }
    let n_dead = r.u64()? as usize;
    let mut destroyed = Vec::with_capacity(n_dead);
    for _ in 0..n_dead {
        destroyed.push(r.u64()? as u32);
    }
    let n_arrays = r.u64()? as usize;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        let id = r.u64()? as u32;
        let len = r.u64()? as usize;
        let nodes = r.u64()? as usize;
        let base = r.u64()? as usize;
        let shard_len = r.u64()? as usize;
        let shard = r.f64s(shard_len)?;
        arrays.push((id, len, nodes, base, shard));
    }
    if r.pos != bytes.len() {
        return Err(format!("{} trailing bytes", bytes.len() - r.pos));
    }
    store.replace_state(StoreSnapshot {
        arrays,
        next_idx,
        destroyed,
    });
    Ok((epoch, nxtval))
}

// ---- spill-path writer -------------------------------------------------

/// Per-rank checkpoint writer over a spill directory, with the counters
/// the recovery gate reads (`mesh_gate recovery`: checkpoints on disk,
/// bytes > 0).
pub struct Checkpointer {
    dir: PathBuf,
    rank: usize,
    checkpoints: AtomicU64,
    restores: AtomicU64,
    bytes_written: AtomicU64,
}

impl Checkpointer {
    /// Create (if needed) the spill directory and a writer for `rank`.
    pub fn new(dir: impl Into<PathBuf>, rank: usize) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            rank,
            checkpoints: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
        })
    }

    /// The rank's checkpoint file.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("shard_rank{}.ckpt", self.rank))
    }

    /// Spill a consistent image of `store` at `epoch`, atomically
    /// (temp + rename). Returns the image size in bytes.
    pub fn save(&self, store: &DistStore, epoch: u64, nxtval: i64) -> io::Result<u64> {
        let bytes = encode(store, epoch, nxtval);
        let tmp = self.dir.join(format!(".shard_rank{}.ckpt.tmp", self.rank));
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, self.path())?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Ok(bytes.len() as u64)
    }

    /// Restore `store` from the rank's spill file; returns
    /// `(epoch, nxtval)` of the image.
    pub fn load(&self, store: &DistStore) -> io::Result<(u64, i64)> {
        let bytes = std::fs::read(self.path())?;
        let out = decode_into(store, &bytes).map_err(io::Error::other)?;
        self.restores.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }

    /// True when a spilled image exists for this rank.
    pub fn exists(&self) -> bool {
        self.path().exists()
    }

    /// Remove the rank's spill file (fresh runs must not restore a
    /// previous run's image).
    pub fn clear(&self) -> io::Result<()> {
        match std::fs::remove_file(self.path()) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checkpoints written.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Restores performed.
    pub fn restores(&self) -> u64 {
        self.restores.load(Ordering::Relaxed)
    }

    /// Total image bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }
}
