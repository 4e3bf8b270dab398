//! The PTG programs of the PaRSEC-ported `icsd_t2_7`: five variant texts,
//! compiled to Rust at build time by `ptg::dsl::emit` (see `build.rs`),
//! and the Rust bodies and cost hooks they name.
//!
//! Each variant is a JDF-like text in `variants/` (`v1.jdf` … `v5.jdf`);
//! v1 → v3 is the paper's Figure 1 → Figure 2 change to matrix C's
//! dataflow. Every text declares the same seven classes in the same
//! order, so a class id means the same in every variant (Figures 4-7):
//!
//! * `READ_A(L1, L2)` / `READ_B(L1, L2)` — pull one `t2` / `v` block from
//!   the Global Array into runtime-managed memory;
//! * `DFILL(L1)` — zero-initialize the chain's C tile (chained variant);
//! * `GEMM(L1, L2)` — one tensor-contraction tile multiply; chained (v1)
//!   or in segments of `h` with private C (v2-v5);
//! * `REDUCE(L1, s, i)` — binary accumulation tree merging private C
//!   tiles (parallel-GEMM variants);
//! * `SORT(L1, i)` — the guarded `TCE_SORT_4` remaps: one task per active
//!   branch (`sort_branch`) or a single task running all branches
//!   serially into a merged matrix (`sort_merged`, v5);
//! * `WRITE_C(L1, i, w)` — the critical-section accumulate into the
//!   Global Array; instantiated once per *owner node* `w` of the
//!   destination block (Figure 8), and per sort branch `i` when writes
//!   are parallel (v1, v3).
//!
//! The texts read the inspection through host functions: `chain_len(L1)`;
//! `reduce_levels(L1)` and `reduce_width(L1, s)`, the depth of chain
//! `L1`'s reduction tree over its segments and the width of level `s`
//! (level 0: the segments); `nsorts(L1)`, how many of the four SORT
//! predicates hold; `nowners(L1, i)` and `owner(L1, i, w)`, the Global
//! Arrays nodes holding SORT `i`'s output block. Globals: `nchains`, `h`,
//! `reader_offset`, `gemm_offset`, and `P`, the node count. [`CcsdCtx`]
//! is the texts' host: the globals are its fields, the host functions its
//! methods, and its [`Host`] impl runs the bodies named by `BODY` lines.

use crate::ctx::{CcsdCtx, VariantCfg, ACC_CRITICAL_SLOWDOWN, ACC_RMW_FACTOR, SORT_STRIDE_FACTOR};
use parsec_rt::TilePool;
use ptg::dsl::Host;
use ptg::{Activity, Completion, FlowId, Payload, PlainCtx, TaskCost, TaskGraph, TaskKey};
use std::sync::Arc;
use tce::Inspection;
use tensor_kernels::{dgemm_with, scratch_lens, sort_4, sort_4_strided, Trans};

/// Class ids (indices into the graph's class table).
pub const READ_A: u32 = 0;
pub const READ_B: u32 = 1;
pub const DFILL: u32 = 2;
pub const GEMM: u32 = 3;
pub const REDUCE: u32 = 4;
pub const SORT: u32 = 5;
pub const WRITE: u32 = 6;

type Outputs = Vec<Option<Payload>>;

/// Take ownership of a payload buffer through the pool: in place when
/// uniquely held, copy-on-write (counted, served from the pool) when
/// still shared.
fn own(c: &CcsdCtx, p: Payload) -> Vec<f64> {
    c.pool.own(p)
}

// ------------------------------------------------------------------ readers --

/// Which operand a reader body pulls.
#[derive(Clone, Copy)]
enum Operand {
    A,
    B,
}
use Operand::{A, B};

/// Where operand `op` of GEMM `key` lives: (array, offset, length).
fn block(c: &CcsdCtx, op: Operand, key: TaskKey) -> (global_arrays::GaHandle, usize, usize) {
    let ws = c.ws.as_ref().expect("workspace");
    let g = &c.chain(key.params[0]).gemms[key.params[1] as usize];
    match op {
        Operand::A => (ws.tensor(g.a_tensor).0, g.a_offset, g.a_len),
        Operand::B => (ws.tensor(g.b_tensor).0, g.b_offset, g.b_len),
    }
}

/// A blocking read of operand `op` into a pooled buffer.
fn read_now(c: &CcsdCtx, op: Operand, key: TaskKey) -> Outputs {
    let Some(ws) = &c.ws else {
        return vec![None];
    };
    let (h, offset, len) = block(c, op, key);
    let mut data = c.pool.checkout(len);
    ws.ga.get_into(h, offset, &mut data);
    vec![Some(Arc::new(data))]
}

fn read(c: &CcsdCtx, op: Operand, key: TaskKey, prio: i64, done: Completion) -> Option<Outputs> {
    let ws = match &c.ws {
        Some(ws) if c.prefetch && ws.ga.is_dist() => ws,
        _ => return Some(read_now(c, op, key)),
    };
    let (h, offset, len) = block(c, op, key);
    // Prefetch pipeline: hand the transfer to the comm layer at this
    // reader's graph priority and free the worker immediately. The
    // progress engine caps in-flight gets per peer and queues the rest
    // (by destination block, the priority breaking ties); the get
    // completion re-enters the engine through the completion sink —
    // inline, as a synchronous return, when the data was local or
    // cached and the callback runs before this body returns.
    // Pooled destination buffer, as in the synchronous path: the
    // async pipeline fills it in place (coalesced join or wire
    // assembly) instead of allocating per read. A tile-cache hit
    // needs none: the GEMM only reads its operands, so the cached
    // block itself becomes the payload, and the buffer goes back.
    let buf = c.pool.checkout_dirty(len);
    let done = Box::new(move |data: Payload| done.finish(vec![Some(data)]));
    if let Some(unused) = ws.ga.get_shared_async(h, offset, buf, prio, done) {
        c.pool.recycle(unused);
    }
    None
}

fn read_cost(c: &CcsdCtx, op: Operand, key: TaskKey) -> TaskCost {
    let g = &c.chain(key.params[0]).gemms[key.params[1] as usize];
    match op {
        Operand::A => TaskCost::Fetch {
            from: g.a_owner,
            bytes: (g.a_len * 8) as u64,
        },
        Operand::B => TaskCost::Fetch {
            from: g.b_owner,
            bytes: (g.b_len * 8) as u64,
        },
    }
}

// ------------------------------------------------------- dfill, gemm, reduce --

fn dfill(c: &CcsdCtx, key: TaskKey, _inputs: &mut [Option<Payload>]) -> Outputs {
    if c.ws.is_none() {
        return vec![None];
    }
    let chain = c.chain(key.params[0]);
    vec![Some(Arc::new(c.pool.checkout(chain.m * chain.n)))]
}

fn gemm(c: &CcsdCtx, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
    if c.ws.is_none() {
        return vec![None; 3];
    }
    let chain = c.chain(key.params[0]);
    let g = &chain.gemms[key.params[1] as usize];
    let a = inputs[0].take().expect("A operand");
    let b = inputs[1].take().expect("B operand");
    let (m, n, k) = (chain.m, chain.n, g.k);
    // C arrives from the predecessor (DFILL or the previous GEMM of the
    // segment); a segment head has none and starts a fresh private C.
    let mut cbuf = match inputs[2].take() {
        Some(cin) => own(c, cin),
        None => c.pool.checkout(m * n),
    };
    // Packing scratch comes from the pool too (none when the kernel
    // takes its small path): after warm-up a GEMM task performs no
    // heap allocation at all.
    let (la, lb) = scratch_lens(m, n, k);
    let mut ap = c.pool.checkout_dirty(la);
    let mut bp = c.pool.checkout_dirty(lb);
    dgemm_with(
        Trans::T,
        g.tb,
        m,
        n,
        k,
        1.0,
        &a,
        &b,
        1.0,
        &mut cbuf,
        &mut ap,
        &mut bp,
    );
    c.pool.recycle(ap);
    c.pool.recycle(bp);
    // Operand tiles feed exactly this GEMM: recycle their buffers.
    c.pool.release(a);
    c.pool.release(b);
    vec![None, None, Some(Arc::new(cbuf))]
}

fn gemm_cost(c: &CcsdCtx, key: TaskKey) -> TaskCost {
    let chain = c.chain(key.params[0]);
    let k = chain.gemms[key.params[1] as usize].k;
    TaskCost::Cpu {
        flops: 2 * (chain.m * chain.n * k) as u64,
    }
}

fn reduce(c: &CcsdCtx, _key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
    if c.ws.is_none() {
        return vec![None, None, None];
    }
    let left = inputs[0].take();
    let right = inputs[1].take();
    let out = match (left, right) {
        (Some(l), Some(r)) => {
            let mut acc = own(c, l);
            tensor_kernels::daxpy(1.0, &r, &mut acc);
            c.pool.release(r);
            acc
        }
        (Some(one), None) | (None, Some(one)) => own(c, one),
        (None, None) => panic!("REDUCE with no inputs"),
    };
    vec![None, None, Some(Arc::new(out))]
}

// -------------------------------------------------------------------- sort --

fn sort_branch(c: &CcsdCtx, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
    if c.ws.is_none() {
        return vec![None, None];
    }
    let chain = c.chain(key.params[0]);
    let cbuf = inputs[0].take().expect("C input");
    let s = &chain.sorts[key.params[1] as usize];
    let mut sorted = c.pool.checkout_dirty(cbuf.len());
    sort_4(&cbuf, &mut sorted, chain.cdims, s.perm, s.factor);
    // The branches share one C; the last to finish returns the buffer.
    c.pool.release(cbuf);
    vec![None, Some(Arc::new(sorted))]
}

fn sort_merged(c: &CcsdCtx, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
    if c.ws.is_none() {
        return vec![None, None];
    }
    let chain = c.chain(key.params[0]);
    let cbuf = inputs[0].take().expect("C input");
    // Serial merge: Csorted = sum_i sort_i(C). All active branches
    // target the same destination block (asserted at inspection).
    let mut merged = c.pool.checkout(cbuf.len());
    let mut tmp = c.pool.checkout_dirty(cbuf.len());
    for s in &chain.sorts {
        sort_4(&cbuf, &mut tmp, chain.cdims, s.perm, s.factor);
        tensor_kernels::daxpy(1.0, &tmp, &mut merged);
    }
    c.pool.recycle(tmp);
    c.pool.release(cbuf);
    vec![None, Some(Arc::new(merged))]
}

fn memory_cost(bytes: u64) -> TaskCost {
    TaskCost::Memory { bytes }
}

/// Memory traffic of SORT(L1, i): remapping branch `i` alone, or the
/// staged loop over every branch.
fn sort_cost(c: &CcsdCtx, key: TaskKey, one_branch: bool) -> TaskCost {
    let chain = c.chain(key.params[0]);
    let b = chain.c_bytes();
    // Charge the stride penalty only when sort_4 actually takes the
    // strided walk for this shape; the tiled remap's writes are
    // contiguous within cache blocks and pay streaming rates.
    let w = |perm| {
        if sort_4_strided(chain.cdims, perm) {
            SORT_STRIDE_FACTOR
        } else {
            1
        }
    };
    let nb = chain.sorts.len() as u64;
    memory_cost(if one_branch {
        // One remap: read C, write sorted_i.
        b + b * w(chain.sorts[key.params[1] as usize].perm)
    } else {
        // Staged loop: read C once, write each branch into the
        // staging tile (stride penalty per the path taken), then a
        // three-pass daxpy (read staging, read + write accumulator).
        b + chain.sorts.iter().map(|s| b * w(s.perm)).sum::<u64>() + 3 * nb * b
    })
}

/// Figure 8: each WRITE_C(w) receives only the slice owned by its node.
fn sort_bytes(c: &CcsdCtx, key: TaskKey, dst: TaskKey) -> u64 {
    let sort = &c.chain(key.params[0]).sorts[dst.params[1] as usize];
    (sort.owners[dst.params[2] as usize].1.len() * 8) as u64
}

// ------------------------------------------------------------------- write --

fn write(c: &CcsdCtx, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
    let nflows = inputs.len();
    let Some(ws) = &c.ws else {
        return vec![None; nflows];
    };
    let chain = c.chain(key.params[0]);
    let w = key.params[2] as usize;
    for (flow, input) in inputs.iter_mut().enumerate() {
        let Some(data) = input.take() else { continue };
        // WRITE_C(L1, i, w) takes branch i on its one flow, or, as the
        // single writer WRITE_C(L1, 0, w), branch f on flow f.
        let sort = &chain.sorts[key.params[1] as usize + flow];
        let node = sort.owners[w].0;
        ws.ga.acc_local(ws.i2, node, sort.out_offset, &data, 1.0);
        // Split writes share the sorted matrix across owner
        // instances; the last one returns it to the pool.
        c.pool.release(data);
    }
    vec![None; nflows]
}

/// Read each incoming slice, read-modify-write the GA segment through the
/// (slow) accumulate path, all inside the mutex.
fn write_cost(c: &CcsdCtx, key: TaskKey, inputs: usize) -> TaskCost {
    let chain = c.chain(key.params[0]);
    let range = chain.sorts[key.params[1] as usize].owners[key.params[2] as usize]
        .1
        .len() as u64
        * 8;
    TaskCost::Critical {
        bytes: (inputs as u64 + ACC_RMW_FACTOR) * range * ACC_CRITICAL_SLOWDOWN,
    }
}

// --------------------------------------------------------------------- host --

fn c_bytes(c: &CcsdCtx, key: TaskKey) -> u64 {
    c.chain(key.params[0]).c_bytes()
}

impl Host for CcsdCtx {
    fn execute(&self, body: &str, key: TaskKey, inputs: &mut [Option<Payload>]) -> Outputs {
        match body {
            "read_a" => read_now(self, A, key),
            "read_b" => read_now(self, B, key),
            "dfill" => dfill(self, key, inputs),
            "gemm" => gemm(self, key, inputs),
            "reduce" => reduce(self, key, inputs),
            "sort_branch" => sort_branch(self, key, inputs),
            "sort_merged" => sort_merged(self, key, inputs),
            "write" => write(self, key, inputs),
            other => panic!("no body `{other}`"),
        }
    }

    fn execute_async(
        &self,
        body: &str,
        key: TaskKey,
        prio: i64,
        inputs: &mut [Option<Payload>],
        done: Completion,
    ) -> Option<Outputs> {
        match body {
            "read_a" => read(self, A, key, prio, done),
            "read_b" => read(self, B, key, prio, done),
            _ => Some(self.execute(body, key, inputs)),
        }
    }

    fn cost(&self, body: &str, key: TaskKey, inputs: usize) -> TaskCost {
        match body {
            "read_a" => read_cost(self, A, key),
            "read_b" => read_cost(self, B, key),
            "dfill" => memory_cost(c_bytes(self, key)),
            "gemm" => gemm_cost(self, key),
            "reduce" => memory_cost((inputs as u64 + 1) * c_bytes(self, key)),
            "sort_branch" => sort_cost(self, key, true),
            "sort_merged" => sort_cost(self, key, false),
            "write" => write_cost(self, key, inputs),
            other => panic!("no body `{other}`"),
        }
    }

    fn flow_bytes(&self, body: &str, key: TaskKey, _flow: FlowId, dst: TaskKey) -> u64 {
        match body {
            "gemm" | "reduce" => c_bytes(self, key),
            "sort_branch" | "sort_merged" => sort_bytes(self, key, dst),
            _ => 0,
        }
    }

    fn activity(&self, body: &str) -> Activity {
        match body {
            "read_a" | "read_b" => Activity::Runtime,
            _ => Activity::Compute,
        }
    }
}

/// The variant texts as Rust, one module each, written by `build.rs`.
macro_rules! texts {
    ($($v:ident),*) => {$(
        #[allow(clippy::overly_complex_bool_expr)] // v1: `L2 == 0 || L2 != 0`
        mod $v {
            use crate::ctx::CcsdCtx as Host;
            include!(concat!(env!("OUT_DIR"), "/", stringify!($v), ".rs"));
        }
    )*};
}
texts!(v1, v2, v3, v4, v5);

// ------------------------------------------------------------------ builder --

/// Assemble the task graph of one variant.
///
/// `ws` enables real body execution; when provided, its node count must
/// match the inspection's (operand owners and write splits are computed
/// against that distribution).
pub fn build_graph(
    ins: Arc<Inspection>,
    cfg: VariantCfg,
    ws: Option<Arc<tce::Workspace>>,
) -> TaskGraph {
    build_graph_pooled(ins, cfg, ws, Arc::new(TilePool::default()))
}

/// As [`build_graph`], sharing a caller-owned [`TilePool`]: repeated runs
/// (iterations of the CCSD solve) reuse the previous run's tile buffers,
/// so only the first run pays any allocation.
pub fn build_graph_pooled(
    ins: Arc<Inspection>,
    cfg: VariantCfg,
    ws: Option<Arc<tce::Workspace>>,
    pool: Arc<TilePool>,
) -> TaskGraph {
    build_graph_inner(ins, cfg, ws, pool, false, false)
}

/// As [`build_graph_pooled`] for one rank of a distributed execution,
/// with **no static roots**: every task class stays executable for every
/// chain, but nothing materializes until an external
/// [`parsec_rt::WorkSource`] seeds chain roots into the engine (through
/// [`TaskGraph::group_roots`]). This is what lets a thief rank execute
/// chains it does not own — which chains a rank runs is decided by the
/// ledger's roots alone. `prefetch` routes reader bodies through the comm
/// layer's asynchronous get pipeline instead of blocking workers.
pub fn build_graph_external(
    ins: Arc<Inspection>,
    cfg: VariantCfg,
    ws: Option<Arc<tce::Workspace>>,
    pool: Arc<TilePool>,
    prefetch: bool,
) -> TaskGraph {
    build_graph_inner(ins, cfg, ws, pool, prefetch, true)
}

fn build_graph_inner(
    ins: Arc<Inspection>,
    cfg: VariantCfg,
    ws: Option<Arc<tce::Workspace>>,
    pool: Arc<TilePool>,
    prefetch: bool,
    external_roots: bool,
) -> TaskGraph {
    let nodes = ins.i2.dist.nodes();
    if let Some(ws) = &ws {
        assert_eq!(ws.ga.nnodes(), nodes, "workspace/inspection node mismatch");
    }
    let graph = match cfg.name {
        "v1" => v1::graph,
        "v2" => v2::graph,
        "v3" => v3::graph,
        "v4" => v4::graph,
        "v5" | "vh" => v5::graph,
        other => panic!("no PTG text for variant `{other}`"),
    };
    let host = CcsdCtx::new(ins, cfg, ws, pool, prefetch);
    graph(host, Arc::new(PlainCtx { nodes }), external_roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::validate::audit;
    use std::collections::HashSet;
    use tce::{inspect, scale, TileSpace};

    fn graph(cfg: VariantCfg, nodes: usize) -> TaskGraph {
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, nodes));
        build_graph(ins, cfg, None)
    }

    #[test]
    fn all_variants_audit_clean() {
        for cfg in VariantCfg::all() {
            let g = graph(cfg, 3);
            let a = audit(&g, 1_000_000).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(a.total_tasks > 0, "{}", cfg.name);
            assert_eq!(a.tasks_per_class["READ_A"], a.tasks_per_class["READ_B"]);
        }
    }

    #[test]
    fn task_counts_match_inspection() {
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, 2));
        let total_gemms = ins.total_gemms;
        let nchains = ins.num_chains();
        let g = build_graph(ins.clone(), VariantCfg::v3(), None);
        let a = audit(&g, 1_000_000).unwrap();
        assert_eq!(a.tasks_per_class["GEMM"], total_gemms);
        assert_eq!(a.tasks_per_class["READ_A"], total_gemms);
        // v3 (parallel GEMMs): no DFILL tasks, reduction tree present.
        assert!(!a.tasks_per_class.contains_key("DFILL"));
        assert!(a.tasks_per_class["REDUCE"] >= nchains);
        // One WRITE per (sort, owner instance).
        let writes: usize = ins
            .chains
            .iter()
            .map(|c| c.sorts.iter().map(|s| s.owners.len()).sum::<usize>())
            .sum();
        assert_eq!(a.tasks_per_class["WRITE_C"], writes);
    }

    #[test]
    fn v1_has_dfill_and_no_reduce() {
        let g = graph(VariantCfg::v1(), 2);
        let a = audit(&g, 1_000_000).unwrap();
        assert!(a.tasks_per_class.contains_key("DFILL"));
        assert!(!a.tasks_per_class.contains_key("REDUCE"));
    }

    #[test]
    fn v1_is_deeper_than_v3() {
        // Serial chains make long dependency paths; parallel GEMMs +
        // logarithmic reduction are shallow. This is Figure 4's point.
        // (Needs chains longer than ~4 GEMMs to differentiate, hence the
        // `medium` scale.)
        let space = TileSpace::build(&scale::medium());
        let ins = Arc::new(inspect(&space, 1));
        let a1 = audit(&build_graph(ins.clone(), VariantCfg::v1(), None), 1_000_000).unwrap();
        let a3 = audit(&build_graph(ins.clone(), VariantCfg::v3(), None), 1_000_000).unwrap();
        let max_len = ins.max_chain_len;
        assert!(max_len > 4, "need nontrivial chains, got {max_len}");
        assert!(
            a1.depth > a3.depth,
            "v1 depth {} should exceed v3 depth {}",
            a1.depth,
            a3.depth
        );
    }

    #[test]
    fn v5_has_one_sort_per_chain() {
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, 2));
        let nchains = ins.num_chains();
        let total_sort_branches: usize = ins.chains.iter().map(|c| c.sorts.len()).sum();
        let a5 = audit(&build_graph(ins.clone(), VariantCfg::v5(), None), 1_000_000).unwrap();
        let a4 = audit(&build_graph(ins, VariantCfg::v4(), None), 1_000_000).unwrap();
        assert_eq!(a5.tasks_per_class["SORT"], nchains);
        assert_eq!(a4.tasks_per_class["SORT"], total_sort_branches);
        assert!(
            total_sort_branches > nchains,
            "workload must exercise multi-sort chains"
        );
    }

    #[test]
    fn write_tasks_are_placed_on_owner_nodes() {
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, 3));
        let g = build_graph(ins.clone(), VariantCfg::v5(), None);
        let ctx = g.ctx();
        for (l1, chain) in ins.chains.iter().enumerate() {
            for (w, (node, _)) in chain.sorts[0].owners.iter().enumerate() {
                let key = TaskKey::new(WRITE, &[l1 as i64, 0, w as i64]);
                assert_eq!(g.class_of(key).placement(key, ctx), *node);
            }
        }
    }

    #[test]
    fn priorities_follow_paper_scheme() {
        let g = graph(VariantCfg::v4(), 2);
        let ctx = g.ctx();
        let read0 = TaskKey::new(READ_A, &[0, 0]);
        let gemm0 = TaskKey::new(GEMM, &[0, 0]);
        let gemm5 = TaskKey::new(GEMM, &[5, 0]);
        let pr = g.class_of(read0).priority(read0, ctx);
        let pg0 = g.class_of(gemm0).priority(gemm0, ctx);
        let pg5 = g.class_of(gemm5).priority(gemm5, ctx);
        assert!(pr > pg0, "reader offset (+5P) outranks GEMM offset (+P)");
        assert!(pg0 > pg5, "earlier chains outrank later chains");
        // v2: no priorities at all.
        let g2 = graph(VariantCfg::v2(), 2);
        assert_eq!(g2.class_of(gemm0).priority(gemm0, g2.ctx()), 0);
        assert_eq!(g2.class_of(read0).priority(read0, g2.ctx()), 0);
    }

    #[test]
    fn segment_heights_audit_clean() {
        let space = TileSpace::build(&scale::small());
        let ins = Arc::new(inspect(&space, 2));
        let max_len = ins.max_chain_len;
        for h in [1, 2, 3, max_len, max_len + 5] {
            let g = build_graph(ins.clone(), VariantCfg::height(h), None);
            let a = audit(&g, 1_000_000).unwrap_or_else(|e| panic!("h={h}: {e}"));
            assert_eq!(a.tasks_per_class["GEMM"], ins.total_gemms, "h={h}");
        }
        // Larger heights -> fewer reduction tasks, deeper graphs.
        let a1 = audit(
            &build_graph(ins.clone(), VariantCfg::height(1), None),
            1_000_000,
        )
        .unwrap();
        let ah = audit(
            &build_graph(ins.clone(), VariantCfg::height(max_len), None),
            1_000_000,
        )
        .unwrap();
        assert!(ah.tasks_per_class["REDUCE"] < a1.tasks_per_class["REDUCE"]);
        assert!(ah.depth > a1.depth);
    }

    #[test]
    fn sort_cost_matches_the_path_taken() {
        use crate::ctx::SORT_STRIDE_FACTOR;
        use tensor_kernels::sort_4_strided;
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, 2));
        // Parallel sort: per-branch weight follows the dispatch predicate.
        let g3 = build_graph(ins.clone(), VariantCfg::v3(), None);
        let ctx3 = g3.ctx();
        for (l1, chain) in ins.chains.iter().enumerate() {
            let b = chain.c_bytes();
            for (i, s) in chain.sorts.iter().enumerate() {
                let key = TaskKey::new(SORT, &[l1 as i64, i as i64]);
                let TaskCost::Memory { bytes } = g3.class_of(key).cost(key, ctx3) else {
                    panic!("SORT must be memory-bound");
                };
                let w = if sort_4_strided(chain.cdims, s.perm) {
                    SORT_STRIDE_FACTOR
                } else {
                    1
                };
                assert_eq!(bytes, b + b * w, "chain {l1} branch {i}");
            }
        }
        // Serial sort: the staged loop's traffic per branch.
        let g5 = build_graph(ins.clone(), VariantCfg::v5(), None);
        for (l1, chain) in ins.chains.iter().enumerate() {
            let b = chain.c_bytes();
            let nb = chain.sorts.len() as u64;
            let key = TaskKey::new(SORT, &[l1 as i64, 0]);
            let TaskCost::Memory { bytes } = g5.class_of(key).cost(key, g5.ctx()) else {
                panic!("SORT must be memory-bound");
            };
            let strided: u64 = chain
                .sorts
                .iter()
                .map(|s| {
                    if sort_4_strided(chain.cdims, s.perm) {
                        b * SORT_STRIDE_FACTOR
                    } else {
                        b
                    }
                })
                .sum();
            assert_eq!(bytes, b + strided + 3 * nb * b, "chain {l1}");
        }
    }

    #[test]
    fn sort_flow_bytes_split_by_owner() {
        let space = TileSpace::build(&scale::tiny());
        let ins = Arc::new(inspect(&space, 3));
        let g = build_graph(ins.clone(), VariantCfg::v5(), None);
        let ctx = g.ctx();
        // Find a chain whose write splits across nodes.
        for (l1, chain) in ins.chains.iter().enumerate() {
            let owners = &chain.sorts[0].owners;
            if owners.len() < 2 {
                continue;
            }
            let sort = TaskKey::new(SORT, &[l1 as i64, 0]);
            let total: u64 = (0..owners.len())
                .map(|w| {
                    let dst = TaskKey::new(WRITE, &[l1 as i64, 0, w as i64]);
                    g.class_of(sort).flow_bytes(sort, 1, dst, ctx)
                })
                .sum();
            assert_eq!(total, chain.c_bytes());
            return;
        }
        panic!("no split write found at this scale/node count");
    }

    /// The lines of a text, each with its class, comments and blank lines
    /// dropped.
    fn lines(text: &str) -> HashSet<(&str, &str)> {
        let mut class = "";
        let mut out = HashSet::new();
        for line in text.lines().map(|l| l.split("//").next().unwrap().trim()) {
            if class.is_empty() {
                class = line.split('(').next().unwrap();
            }
            if !line.is_empty() {
                out.insert((class, line));
            }
            if line.starts_with("BODY") {
                class = "";
            }
        }
        out
    }

    /// Every line in which `from` and `to` differ passes `allowed(class,
    /// line)`, and there is one.
    fn differ_only(what: &str, from: &str, to: &str, allowed: impl Fn(&str, &str) -> bool) {
        let (a, b) = (lines(from), lines(to));
        let diff: Vec<_> = a.symmetric_difference(&b).collect();
        assert!(!diff.is_empty(), "{what}");
        for (class, line) in diff {
            assert!(allowed(class, line), "{what}: {class}: `{line}`");
        }
    }

    #[test]
    fn each_text_differs_from_its_neighbour_only_where_the_paper_says() {
        let [v1, v2, v3, v4, v5] = [
            include_str!("variants/v1.jdf"),
            include_str!("variants/v2.jdf"),
            include_str!("variants/v3.jdf"),
            include_str!("variants/v4.jdf"),
            include_str!("variants/v5.jdf"),
        ];
        let output = |line: &str| line.contains("->");
        // Figure 1 -> Figure 2: C's dataflow, and so the producer the SORT
        // reads its C from.
        differ_only("v1 -> v3", v1, v3, |class, line| {
            matches!(class, "DFILL" | "GEMM" | "REDUCE")
                || (class == "SORT" && line.starts_with("READ C <-"))
        });
        differ_only("v3 -> v4", v3, v4, |class, line| {
            class == "WRITE_C" || (class == "SORT" && output(line))
        });
        differ_only("v4 -> v2", v4, v2, |_, line| line.starts_with(';'));
        differ_only("v4 -> v5", v4, v5, |class, line| {
            matches!(class, "SORT" | "WRITE_C")
                || (matches!(class, "GEMM" | "REDUCE") && output(line) && line.contains("SORT("))
        });
    }
}
