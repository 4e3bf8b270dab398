//! Helpers shared by the scripted-fault test files.

use comm::fault::{FaultEvent, FaultPlan};
use comm::ShardStore;

/// A shard store for tests that move no array data.
pub struct NoStore;
impl ShardStore for NoStore {
    fn read(&self, _: u32, _: usize, len: usize) -> Vec<f64> {
        vec![0.0; len]
    }
    fn write(&self, _: u32, _: usize, _: &[f64]) {}
    fn accumulate(&self, _: u32, _: usize, _: &[f64], _: f64) {}
}

/// Drop the first frame arriving from `peer`.
pub fn lose_first_from(peer: usize, seed: u64) -> FaultPlan {
    FaultPlan {
        events: vec![FaultEvent::Partition {
            peer,
            from_idx: 0,
            to_idx: 1,
        }],
        ..FaultPlan::clean(seed)
    }
}

/// Deliver every arriving frame twice.
pub fn duplicate_all(seed: u64) -> FaultPlan {
    FaultPlan {
        dup_p: 1.0,
        ..FaultPlan::clean(seed)
    }
}
