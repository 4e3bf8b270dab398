//! The layers' own counters (`CommStatsSnap`, `GaStats`, `PoolStats`)
//! flattened into one vector, so a window's activity is a subtraction
//! and a mesh's activity a sum over ranks.

use comm::Endpoint;
use global_arrays::GaStats;
use parsec_rt::TilePool;

#[derive(Clone, Copy)]
#[repr(usize)]
pub enum C {
    MsgsTx,
    BytesTx,
    Eager,
    Rndv,
    MultiGets,
    MultiParts,
    Retries,
    Timeouts,
    GetReqBytes,
    JobPolls,
    GaGets,
    GaAccs,
    GaLocalBytes,
    GaRemoteBytes,
    GaRemoteGetBytes,
    CacheHits,
    CacheJoins,
    CacheMisses,
    StaleReads,
    PoolMisses,
    Len,
}

#[derive(Clone, Copy, Default)]
pub struct Counts([u64; C::Len as usize]);

impl Counts {
    pub fn read(ep: &Endpoint, ga: &GaStats, pool: Option<&TilePool>) -> Self {
        let s = ep.stats();
        let mut c = Self::default();
        for (k, v) in [
            (C::MsgsTx, s.msgs_tx),
            (C::BytesTx, s.bytes_tx),
            (C::Eager, s.eager_payloads),
            (C::Rndv, s.rndv_payloads),
            (C::MultiGets, s.multi_gets),
            (C::MultiParts, s.multi_parts),
            (C::Retries, s.retries),
            (C::Timeouts, s.timeouts),
            (C::GetReqBytes, s.get_req_bytes),
            (C::JobPolls, s.job_polls),
            (C::GaGets, ga.gets()),
            (C::GaAccs, ga.accs()),
            (C::GaLocalBytes, ga.local_bytes()),
            (C::GaRemoteBytes, ga.remote_bytes()),
            (C::GaRemoteGetBytes, ga.remote_get_bytes()),
            (C::CacheHits, ga.cache_hits()),
            (C::CacheJoins, ga.cache_joins()),
            (C::CacheMisses, ga.cache_misses()),
            (C::StaleReads, ga.stale_reads()),
            (C::PoolMisses, pool.map_or(0, |p| p.stats().misses)),
        ] {
            c.0[k as usize] = v;
        }
        c
    }

    pub fn get(&self, k: C) -> f64 {
        self.0[k as usize] as f64
    }

    /// Activity since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        let mut out = *self;
        for (o, e) in out.0.iter_mut().zip(earlier.0) {
            *o -= e;
        }
        out
    }

    pub fn add(&mut self, other: &Counts) {
        for (o, x) in self.0.iter_mut().zip(other.0) {
            *o += x;
        }
    }

    /// Why a run on a clean mesh with these totals is invalid, if it is:
    /// any recovery activity, a verified-stale read, or read accounting
    /// that disagrees between `ga` and `comm`.
    pub fn invalid(&self) -> Option<String> {
        let bad = |k: C, what: &str| (self.get(k) > 0.0).then(|| format!("{} {what}", self.get(k)));
        bad(C::Retries, "retries on a clean mesh")
            .or_else(|| bad(C::Timeouts, "timeouts on a clean mesh"))
            .or_else(|| bad(C::StaleReads, "stale cached reads"))
            .or_else(|| {
                (self.get(C::GaRemoteGetBytes) != self.get(C::GetReqBytes)).then(|| {
                    format!(
                        "ga.remote_get_bytes {} != ep.get_req_bytes {}",
                        self.get(C::GaRemoteGetBytes),
                        self.get(C::GetReqBytes)
                    )
                })
            })
    }
}

/// Fail the run if any rank's totals are [`Counts::invalid`].
pub fn check_valid<'a>(totals: impl IntoIterator<Item = &'a Counts>) -> Result<(), String> {
    for (rank, c) in totals.into_iter().enumerate() {
        if let Some(why) = c.invalid() {
            return Err(format!("rank {rank}: invalid run: {why}"));
        }
    }
    Ok(())
}
