//! A PaRSEC-like distributed task runtime.
//!
//! Two engines execute the same [`ptg::TaskGraph`]s:
//!
//! * [`native::NativeRuntime`] — a real threaded executor for one
//!   shared-memory node: per-worker work-stealing deques, sharded
//!   dependency tracking and payload store ([`shard`]), an eventcount
//!   idle gate, real task bodies. Used for correctness (the "matched to
//!   the 14th digit" checks) and as the library a shared-memory user
//!   would actually run.
//! * [`simengine::SimEngine`] — a discrete-event executor that runs the
//!   graph on a *modeled* cluster (nodes x cores, per-node NIC with FIFO
//!   queueing, processor-shared memory bandwidth, a node-wide mutex for
//!   WRITE critical sections, and a dedicated communication thread per
//!   node, as in the paper). It can optionally execute real bodies while
//!   advancing virtual time, so one run yields both numerics and timing.
//!
//! Both engines discover tasks symbolically through the PTG — the graph is
//! never materialized — with one dependency tracker,
//! [`shard::ShardedTracker`], and claim ready tasks in one order
//! ([`sched`]): per-worker deques filled best first (highest priority,
//! FIFO among equals, PaRSEC's default, which is what makes the paper's
//! v2-vs-v4 priority experiment reproducible), root injectors and sibling
//! steals. Only the native engine adds completion mailboxes and
//! whole-chain claims.

mod completions;
pub mod cost;
pub mod native;
pub mod pool;
mod report;
pub mod sched;
pub mod shard;
pub mod simengine;

pub use cost::CostModel;
pub use native::{NativeRuntime, SourcePoll, WorkSource};
pub use pool::{PoolStats, TilePool};
pub use report::{NativeReport, StealStats};
pub use sched::SchedPolicy;
pub use shard::IdleGate;
pub use simengine::{SimEngine, SimReport};
