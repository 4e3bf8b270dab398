//! The job service layer: persistent rank daemons, a plan cache, and
//! multi-tenant admission over the comm engine (DESIGN.md §4.8).
//!
//! The paper's driver model — build the problem, run the iterations,
//! tear everything down — wastes exactly the work a chemistry campaign
//! repeats: inspection and Global Array materialization recur for every
//! molecule a tenant revisits. This crate
//! turns each rank into a long-lived daemon instead:
//!
//! * [`spec`] — [`JobSpec`]: one CCSD iteration request (tile geometry,
//!   kernels, variant, threads) and its flat word encoding for the
//!   `Submit` active message;
//! * [`gateway`] — the rank-0 [`Gateway`]: job table, bounded open-job
//!   admission, weighted-fair dispatch across tenants, and gang packing
//!   (jobs sized from `JobSpec::ranks` land on disjoint contiguous rank
//!   windows and execute concurrently);
//! * [`plan`] — the per-rank [`PlanCache`]: inspection + workspace
//!   keyed by (gang, geometry, kernels), kept warm
//!   with the tile cache's frozen input tensors across jobs and bounded
//!   by an LRU residency budget ([`plan::PlanCacheConfig`]);
//! * [`daemon`] — [`RankDaemon`]: the `JobHandler` wired into the comm
//!   engine, the seq-ordered executor, and the tenant [`Client`].
//!
//! Job control traffic (submit / status / done) rides the same
//! per-peer-sequence, retry, dedup machinery as every other mutating
//! active message, so the service survives the chaos schedules that
//! the transport-level fault tests throw at it.

pub mod daemon;
pub mod gateway;
pub mod plan;
pub mod spec;

pub use daemon::{Client, JobRecord, RankDaemon, SvcConfig};
pub use gateway::{Dispatch, Gateway, JobMeta};
pub use plan::{CachedPlan, PlanCache, PlanCacheConfig, PlanKey};
pub use spec::{JobSpec, JobState, Variant, KIND_HALT, KIND_JOB, SPEC_WORDS};
