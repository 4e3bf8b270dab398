//! The PTG task classes of the PaRSEC-ported `icsd_t2_7` and the five
//! variant wirings.
//!
//! Task classes (Figures 4-7):
//!
//! * `READ_A(L1, L2)` / `READ_B(L1, L2)` — pull one `t2` / `v` block from
//!   the Global Array into runtime-managed memory;
//! * `DFILL(L1)` — zero-initialize the chain's C tile (chained variant);
//! * `GEMM(L1, L2)` — one tensor-contraction tile multiply; chained (v1)
//!   or independent with private C (v2-v5);
//! * `REDUCE(L1, s, i)` — binary accumulation tree merging private C
//!   tiles (parallel-GEMM variants);
//! * `SORT(L1, i)` — the guarded `TCE_SORT_4` remaps: one task per active
//!   branch (parallel sort) or a single task running all branches
//!   serially into a merged matrix (v5);
//! * `WRITE_C(L1, i, w)` — the critical-section accumulate into the
//!   Global Array; instantiated once per *owner node* `w` of the
//!   destination block (Figure 8), and per sort branch `i` when writes
//!   are parallel (v1, v3).

use crate::ctx::{CcsdCtx, VariantCfg, ACC_CRITICAL_SLOWDOWN, ACC_RMW_FACTOR, SORT_STRIDE_FACTOR};
use parsec_rt::TilePool;
use ptg::{Activity, Dep, GraphCtx, Payload, TaskClass, TaskCost, TaskGraph, TaskKey};
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

fn cc(ctx: &dyn GraphCtx) -> &CcsdCtx {
    ctx.as_any()
        .downcast_ref::<CcsdCtx>()
        .expect("CCSD graph requires CcsdCtx")
}

/// Take ownership of a payload buffer through the pool: in place when
/// uniquely held, copy-on-write (counted, served from the pool) when
/// still shared.
fn own(c: &CcsdCtx, p: Payload) -> Vec<f64> {
    c.pool.own(p)
}

/// Leaves of chain `l1`'s reduction tree: one per segment.
fn reduce_leaves(c: &CcsdCtx, l1: i64) -> usize {
    c.chain(l1).gemms.len().div_ceil(c.cfg.segment_height)
}

/// Successor deps from a chain's final C matrix to its SORT stage.
fn c_to_sorts(c: &CcsdCtx, l1: i64, src_flow: u32, out: &mut Vec<Dep>) {
    if c.cfg.parallel_sort {
        for i in 0..c.chain(l1).sorts.len() {
            out.push(Dep {
                src_flow,
                dst: TaskKey::new(SORT, &[l1, i as i64]),
                dst_flow: 0,
            });
        }
    } else {
        out.push(Dep {
            src_flow,
            dst: TaskKey::new(SORT, &[l1, 0]),
            dst_flow: 0,
        });
    }
}

// ------------------------------------------------------------------ readers --

/// Which operand a reader class pulls.
#[derive(Clone, Copy)]
enum Operand {
    A,
    B,
}

struct Reader(Operand);

impl TaskClass for Reader {
    fn name(&self) -> &str {
        match self.0 {
            Operand::A => "READ_A",
            Operand::B => "READ_B",
        }
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        let c = cc(ctx);
        if c.external_roots {
            return; // seeded chain-by-chain through the steal ledger
        }
        let class = match self.0 {
            Operand::A => READ_A,
            Operand::B => READ_B,
        };
        for (l1, chain) in c.ins.chains.iter().enumerate() {
            for l2 in 0..chain.gemms.len() {
                out.push(TaskKey::new(class, &[l1 as i64, l2 as i64]));
            }
        }
    }
    fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        0
    }
    fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let dst_flow = match self.0 {
            Operand::A => 0,
            Operand::B => 1,
        };
        out.push(Dep {
            src_flow: 0,
            dst: TaskKey::new(GEMM, &[key.params[0], key.params[1]]),
            dst_flow,
        });
    }
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        let c = cc(ctx);
        c.prio(key.params[0], c.cfg.reader_offset)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        cc(ctx).chain_node(key.params[0])
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        let c = cc(ctx);
        let g = &c.chain(key.params[0]).gemms[key.params[1] as usize];
        match self.0 {
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
    fn activity(&self) -> Activity {
        Activity::Runtime
    }
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        _inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
        let Some(ws) = &c.ws else { return vec![None] };
        let g = &c.chain(key.params[0]).gemms[key.params[1] as usize];
        let (h, offset, len) = match self.0 {
            Operand::A => (ws.tensor(g.a_tensor).0, g.a_offset, g.a_len),
            Operand::B => (ws.tensor(g.b_tensor).0, g.b_offset, g.b_len),
        };
        let mut data = c.pool.checkout(len);
        ws.ga.get_into(h, offset, &mut data);
        vec![Some(Arc::new(data))]
    }
    fn execute_async(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
        done: ptg::Completion,
    ) -> Option<Vec<Option<Payload>>> {
        let c = cc(ctx);
        let prefetchable = c.prefetch && c.ws.as_ref().is_some_and(|ws| ws.ga.is_dist());
        if !prefetchable {
            drop(done);
            return Some(self.execute(key, ctx, inputs));
        }
        // Prefetch pipeline: hand the transfer to the comm layer at this
        // reader's graph priority and free the worker immediately. The
        // progress engine caps in-flight gets per peer and queues the rest
        // (by destination block, the priority breaking ties); the get
        // completion re-enters the engine through the completion sink —
        // inline, as a synchronous return, when the data was local or
        // cached and the callback runs before this body returns.
        let ws = c.ws.as_ref().unwrap();
        let g = &c.chain(key.params[0]).gemms[key.params[1] as usize];
        let (h, offset, len) = match self.0 {
            Operand::A => (ws.tensor(g.a_tensor).0, g.a_offset, g.a_len),
            Operand::B => (ws.tensor(g.b_tensor).0, g.b_offset, g.b_len),
        };
        let prio = c.prio(key.params[0], c.cfg.reader_offset);
        // Pooled destination buffer, as in the synchronous path: the
        // async pipeline fills it in place (cache hit, coalesced join,
        // or wire assembly) instead of allocating per read.
        let buf = c.pool.checkout_dirty(len);
        ws.ga.get_async_into(
            h,
            offset,
            buf,
            prio,
            Box::new(move |data| done.finish(vec![Some(Arc::new(data))])),
        );
        None
    }
}

// ------------------------------------------------------------------- dfill --

struct Dfill;

impl TaskClass for Dfill {
    fn name(&self) -> &str {
        "DFILL"
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        let c = cc(ctx);
        if !c.cfg.chained_gemms || c.external_roots {
            return;
        }
        for l1 in 0..c.ins.num_chains() {
            out.push(TaskKey::new(DFILL, &[l1 as i64]));
        }
    }
    fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        0
    }
    fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        out.push(Dep {
            src_flow: 0,
            dst: TaskKey::new(GEMM, &[key.params[0], 0]),
            dst_flow: 2,
        });
    }
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        cc(ctx).prio(key.params[0], 0)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        cc(ctx).chain_node(key.params[0])
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        TaskCost::Memory {
            bytes: cc(ctx).chain(key.params[0]).c_bytes(),
        }
    }
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        _inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
        if c.ws.is_none() {
            return vec![None];
        }
        let chain = c.chain(key.params[0]);
        vec![Some(Arc::new(c.pool.checkout(chain.m * chain.n)))]
    }
}

// -------------------------------------------------------------------- gemm --

struct Gemm;

impl TaskClass for Gemm {
    fn name(&self) -> &str {
        "GEMM"
    }
    fn num_flows(&self) -> usize {
        3 // 0: A in, 1: B in, 2: C in/out
    }
    fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        let c = cc(ctx);
        if c.cfg.chained_gemms {
            3
        } else {
            // Segment-internal GEMMs chain their C from the predecessor;
            // segment heads start a fresh private C.
            let h = c.cfg.segment_height as i64;
            if key.params[1] % h == 0 {
                2
            } else {
                3
            }
        }
    }
    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let c = cc(ctx);
        let (l1, l2) = (key.params[0], key.params[1]);
        let len = c.chain(l1).gemms.len() as i64;
        if c.cfg.chained_gemms {
            if l2 + 1 < len {
                out.push(Dep {
                    src_flow: 2,
                    dst: TaskKey::new(GEMM, &[l1, l2 + 1]),
                    dst_flow: 2,
                });
            } else {
                c_to_sorts(c, l1, 2, out);
            }
        } else {
            let h = c.cfg.segment_height as i64;
            let last_in_segment = (l2 + 1) % h == 0 || l2 + 1 == len;
            if last_in_segment {
                let seg = l2 / h;
                let nseg = (len + h - 1) / h;
                if nseg == 1 {
                    // Single segment: straight to the reduction
                    // pass-through level so the SORT fan-out stays uniform.
                    out.push(Dep {
                        src_flow: 2,
                        dst: TaskKey::new(REDUCE, &[l1, 1, 0]),
                        dst_flow: 0,
                    });
                } else {
                    out.push(Dep {
                        src_flow: 2,
                        dst: TaskKey::new(REDUCE, &[l1, 1, seg / 2]),
                        dst_flow: (seg % 2) as u32,
                    });
                }
            } else {
                out.push(Dep {
                    src_flow: 2,
                    dst: TaskKey::new(GEMM, &[l1, l2 + 1]),
                    dst_flow: 2,
                });
            }
        }
    }
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        let c = cc(ctx);
        c.prio(key.params[0], c.cfg.gemm_offset)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        cc(ctx).chain_node(key.params[0])
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        let c = cc(ctx);
        let chain = c.chain(key.params[0]);
        let k = chain.gemms[key.params[1] as usize].k;
        TaskCost::Cpu {
            flops: 2 * (chain.m * chain.n * k) as u64,
        }
    }
    fn flow_bytes(&self, key: TaskKey, _flow: u32, _dst: TaskKey, ctx: &dyn GraphCtx) -> u64 {
        cc(ctx).chain(key.params[0]).c_bytes()
    }
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
        if c.ws.is_none() {
            return vec![None; 3];
        }
        let chain = c.chain(key.params[0]);
        let g = &chain.gemms[key.params[1] as usize];
        let a = inputs[0].take().expect("A operand");
        let b = inputs[1].take().expect("B operand");
        let (m, n, k) = (chain.m, chain.n, g.k);
        let segment_head = !c.cfg.chained_gemms && key.params[1] % c.cfg.segment_height as i64 == 0;
        let mut cbuf = if c.cfg.chained_gemms || !segment_head {
            own(c, inputs[2].take().expect("C from predecessor"))
        } else {
            c.pool.checkout(chain.m * chain.n)
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
}

// ------------------------------------------------------------------ reduce --

struct Reduce;

impl TaskClass for Reduce {
    fn name(&self) -> &str {
        "REDUCE"
    }
    fn num_flows(&self) -> usize {
        3 // 0: left in, 1: right in, 2: out
    }
    fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        let c = cc(ctx);
        let (l1, s, i) = (key.params[0], key.params[1] as usize, key.params[2]);
        let prev = CcsdCtx::reduce_width(reduce_leaves(c, l1), s - 1);
        (0..2).filter(|d| (2 * i + d) < prev as i64).count()
    }
    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let c = cc(ctx);
        let (l1, s, i) = (key.params[0], key.params[1] as usize, key.params[2]);
        let len = reduce_leaves(c, l1);
        if CcsdCtx::reduce_width(len, s) == 1 {
            c_to_sorts(c, l1, 2, out);
        } else {
            out.push(Dep {
                src_flow: 2,
                dst: TaskKey::new(REDUCE, &[l1, s as i64 + 1, i / 2]),
                dst_flow: (i % 2) as u32,
            });
        }
    }
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        cc(ctx).prio(key.params[0], 0)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        cc(ctx).chain_node(key.params[0])
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        let arity = self.num_inputs(key, ctx) as u64;
        TaskCost::Memory {
            bytes: (arity + 1) * cc(ctx).chain(key.params[0]).c_bytes(),
        }
    }
    fn flow_bytes(&self, key: TaskKey, _flow: u32, _dst: TaskKey, ctx: &dyn GraphCtx) -> u64 {
        cc(ctx).chain(key.params[0]).c_bytes()
    }
    fn execute(
        &self,
        _key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
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
}

// -------------------------------------------------------------------- sort --

struct Sort;

impl TaskClass for Sort {
    fn name(&self) -> &str {
        "SORT"
    }
    fn num_flows(&self) -> usize {
        2 // 0: C in, 1: sorted out
    }
    fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
    fn num_inputs(&self, _key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
        1
    }
    fn successors(&self, key: TaskKey, ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
        let c = cc(ctx);
        let (l1, i) = (key.params[0], key.params[1]);
        let chain = c.chain(l1);
        if c.cfg.parallel_write {
            for w in 0..chain.sorts[i as usize].owners.len() {
                out.push(Dep {
                    src_flow: 1,
                    dst: TaskKey::new(WRITE, &[l1, i, w as i64]),
                    dst_flow: 0,
                });
            }
        } else {
            // Single WRITE per owner instance; this sort feeds flow `i`.
            for w in 0..chain.sorts[0].owners.len() {
                out.push(Dep {
                    src_flow: 1,
                    dst: TaskKey::new(WRITE, &[l1, 0, w as i64]),
                    dst_flow: i as u32,
                });
            }
        }
    }
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        cc(ctx).prio(key.params[0], 0)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        cc(ctx).chain_node(key.params[0])
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        let c = cc(ctx);
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
        let bytes = if c.cfg.parallel_sort {
            // One remap: read C, write sorted_i.
            b + b * w(chain.sorts[key.params[1] as usize].perm)
        } else {
            // Staged loop: read C once, write each branch into the
            // staging tile (stride penalty per the path taken), then a
            // three-pass daxpy (read staging, read + write accumulator).
            b + chain.sorts.iter().map(|s| b * w(s.perm)).sum::<u64>() + 3 * nb * b
        };
        TaskCost::Memory { bytes }
    }
    fn flow_bytes(&self, key: TaskKey, _flow: u32, dst: TaskKey, ctx: &dyn GraphCtx) -> u64 {
        // Figure 8: each WRITE_C(w) receives only the slice owned by its
        // node.
        let c = cc(ctx);
        let chain = c.chain(key.params[0]);
        let sort = &chain.sorts[dst.params[1] as usize];
        (sort.owners[dst.params[2] as usize].1.len() * 8) as u64
    }
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
        if c.ws.is_none() {
            return vec![None, None];
        }
        let chain = c.chain(key.params[0]);
        let cbuf = inputs[0].take().expect("C input");
        let out = if c.cfg.parallel_sort {
            let s = &chain.sorts[key.params[1] as usize];
            let mut sorted = c.pool.checkout_dirty(cbuf.len());
            sort_4(&cbuf, &mut sorted, chain.cdims, s.perm, s.factor);
            sorted
        } else {
            // Serial merge: Csorted = sum_i sort_i(C). All active branches
            // target the same destination block (asserted at inspection).
            let mut merged = c.pool.checkout(cbuf.len());
            let mut tmp = c.pool.checkout_dirty(cbuf.len());
            for s in &chain.sorts {
                sort_4(&cbuf, &mut tmp, chain.cdims, s.perm, s.factor);
                tensor_kernels::daxpy(1.0, &tmp, &mut merged);
            }
            c.pool.recycle(tmp);
            merged
        };
        // Parallel-sort variants share one C across branches; the last
        // branch to finish returns the buffer.
        c.pool.release(cbuf);
        vec![None, Some(Arc::new(out))]
    }
}

// ------------------------------------------------------------------- write --

struct Write;

impl Write {
    fn n_matrices(c: &CcsdCtx, l1: i64) -> usize {
        if c.cfg.parallel_write || !c.cfg.parallel_sort {
            1
        } else {
            c.chain(l1).sorts.len()
        }
    }
}

impl TaskClass for Write {
    fn name(&self) -> &str {
        "WRITE_C"
    }
    fn num_flows(&self) -> usize {
        4 // up to four sorted inputs
    }
    fn roots(&self, _ctx: &dyn GraphCtx, _out: &mut Vec<TaskKey>) {}
    fn num_inputs(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        Self::n_matrices(cc(ctx), key.params[0])
    }
    fn successors(&self, _key: TaskKey, _ctx: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
    fn priority(&self, key: TaskKey, ctx: &dyn GraphCtx) -> i64 {
        cc(ctx).prio(key.params[0], 0)
    }
    fn placement(&self, key: TaskKey, ctx: &dyn GraphCtx) -> usize {
        let c = cc(ctx);
        let chain = c.chain(key.params[0]);
        chain.sorts[key.params[1] as usize].owners[key.params[2] as usize].0
    }
    fn cost(&self, key: TaskKey, ctx: &dyn GraphCtx) -> TaskCost {
        let c = cc(ctx);
        let chain = c.chain(key.params[0]);
        let range = chain.sorts[key.params[1] as usize].owners[key.params[2] as usize]
            .1
            .len() as u64
            * 8;
        // Read each incoming slice, read-modify-write the GA segment
        // through the (slow) accumulate path, all inside the mutex.
        let n = Self::n_matrices(c, key.params[0]) as u64;
        TaskCost::Critical {
            bytes: (n + ACC_RMW_FACTOR) * range * ACC_CRITICAL_SLOWDOWN,
        }
    }
    fn execute(
        &self,
        key: TaskKey,
        ctx: &dyn GraphCtx,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        let c = cc(ctx);
        let Some(ws) = &c.ws else {
            return vec![None; 4];
        };
        let chain = c.chain(key.params[0]);
        let w = key.params[2] as usize;
        for (flow, input) in inputs.iter_mut().enumerate() {
            let Some(data) = input.take() else { continue };
            // Parallel write: this instance handles sort branch
            // `key.params[1]`; single write: flow index = sort branch.
            let sort = if c.cfg.parallel_write {
                &chain.sorts[key.params[1] as usize]
            } else {
                &chain.sorts[flow]
            };
            let node = sort.owners[w].0;
            ws.ga.acc_local(ws.i2, node, sort.out_offset, &data, 1.0);
            // Split writes share the sorted matrix across owner
            // instances; the last one returns it to the pool.
            c.pool.release(data);
        }
        vec![None; 4]
    }
}

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
/// [`parsec_rt::WorkSource`] seeds chain roots into the engine. This is
/// what lets a thief rank execute chains it does not own — which chains
/// a rank runs is decided by the ledger's roots alone. `prefetch` routes
/// reader bodies through the comm layer's asynchronous get pipeline
/// instead of blocking workers.
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
    let ctx = Arc::new(CcsdCtx {
        ins,
        cfg,
        nodes,
        ws,
        pool,
        prefetch,
        external_roots,
    });
    TaskGraph::new(
        vec![
            Arc::new(Reader(Operand::A)),
            Arc::new(Reader(Operand::B)),
            Arc::new(Dfill),
            Arc::new(Gemm),
            Arc::new(Reduce),
            Arc::new(Sort),
            Arc::new(Write),
        ],
        ctx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::validate::audit;
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
}
