//! Shared graph context and variant configuration.

use parsec_rt::TilePool;
use ptg::GraphCtx;
use std::sync::Arc;
use tce::{Inspection, Workspace};

/// Effective memory-traffic multiplier of `TCE_SORT_4`: the permutation
/// walks the destination with large strides, so each useful 8-byte store
/// costs most of a cache line of bus traffic. Applied identically to the
/// PaRSEC SORT tasks and the baseline's in-line sorts.
pub const SORT_STRIDE_FACTOR: u64 = 8;

/// Traffic multiplier of the Global Arrays accumulate (read-modify-write
/// on the owner segment plus GA bookkeeping), applied identically to the
/// WRITE_C critical sections and the baseline's `ADD_HASH_BLOCK`.
pub const ACC_RMW_FACTOR: u64 = 3;

/// Additional slowdown of the accumulate while it holds the node mutex:
/// the GA accumulate machinery runs at roughly the data-server copy rate
/// (~1.4 GB/s), not at streaming memory bandwidth, so its effective bus
/// occupancy is scaled up by ~ mem_bw / ga_server_bw / ACC_RMW_FACTOR.
pub const ACC_CRITICAL_SLOWDOWN: u64 = 7;

/// Which of the paper's algorithmic dimensions a variant enables
/// (Section IV-A / Section V's v1..v5 list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantCfg {
    /// Display name ("v1".."v5", or custom for ablations).
    pub name: &'static str,
    /// GEMMs organized in a serial chain (v1) vs parallel + reduction.
    pub chained_gemms: bool,
    /// Segment height `h` for the parallel-GEMM variants: chains are cut
    /// into serial segments of `h` GEMMs whose partial results merge
    /// through the reduction tree. The paper evaluates the two extremes —
    /// `h = 1` (v2-v5, maximum parallelism) and the full chain (v1,
    /// maximum locality) — and notes the height "can vary"; intermediate
    /// heights are this reproduction's extension, swept by
    /// `paper ablations`. Ignored when `chained_gemms` is set.
    pub segment_height: usize,
    /// Four independent SORT_i tasks (v1-v4) vs one serial SORT (v5).
    pub parallel_sort: bool,
    /// One WRITE_C per SORT (v1, v3) vs a single WRITE_C (v2, v4, v5).
    pub parallel_write: bool,
    /// Priorities decreasing with chain number (all but v2).
    pub priorities: bool,
    /// Priority offset of the reader classes (paper: +5, giving the
    /// prefetch pipeline of depth ~5P).
    pub reader_offset: i64,
    /// Priority offset of the GEMM class (paper: +1).
    pub gemm_offset: i64,
}

impl VariantCfg {
    /// v1: serial GEMM chain, parallel SORTs and WRITEs, priorities.
    pub fn v1() -> Self {
        Self {
            name: "v1",
            chained_gemms: true,
            segment_height: 1,
            parallel_sort: true,
            parallel_write: true,
            priorities: true,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// v2: parallel GEMMs and SORTs, single WRITE, **no priorities**.
    pub fn v2() -> Self {
        Self {
            name: "v2",
            chained_gemms: false,
            segment_height: 1,
            parallel_sort: true,
            parallel_write: false,
            priorities: false,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// v3: everything parallel (GEMMs, SORTs, WRITEs), priorities.
    pub fn v3() -> Self {
        Self {
            name: "v3",
            chained_gemms: false,
            segment_height: 1,
            parallel_sort: true,
            parallel_write: true,
            priorities: true,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// v4: parallel GEMMs and SORTs, single WRITE, priorities.
    pub fn v4() -> Self {
        Self {
            name: "v4",
            chained_gemms: false,
            segment_height: 1,
            parallel_sort: true,
            parallel_write: false,
            priorities: true,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// v5: parallel GEMMs, one SORT, one WRITE, priorities (the winner).
    pub fn v5() -> Self {
        Self {
            name: "v5",
            chained_gemms: false,
            segment_height: 1,
            parallel_sort: false,
            parallel_write: false,
            priorities: true,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }

    /// Override the reader/GEMM priority offsets (prefetch-depth study).
    pub fn offsets(mut self, reader: i64, gemm: i64) -> Self {
        self.reader_offset = reader;
        self.gemm_offset = gemm;
        self
    }

    /// An intermediate-height variant (v5's back end, segments of `h`
    /// GEMMs): the spectrum between the paper's two extremes.
    pub fn height(h: usize) -> Self {
        assert!(h >= 1, "segment height must be at least 1");
        Self {
            name: "vh",
            chained_gemms: false,
            segment_height: h,
            parallel_sort: false,
            parallel_write: false,
            priorities: true,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// All five, in paper order.
    pub fn all() -> [Self; 5] {
        [Self::v1(), Self::v2(), Self::v3(), Self::v4(), Self::v5()]
    }
}

/// The context shared by all task classes of one CCSD graph.
pub struct CcsdCtx {
    /// Inspection metadata (chains, operand locations, sort branches).
    pub ins: Arc<Inspection>,
    /// Variant wiring.
    pub cfg: VariantCfg,
    /// Logical node count of the execution.
    pub nodes: usize,
    /// Real arrays for body execution (`None` for structural simulation).
    pub ws: Option<Arc<Workspace>>,
    /// Tile buffer pool serving every task body's working memory
    /// (operand tiles, C accumulators, sort scratch, packing panels).
    pub pool: Arc<TilePool>,
    /// Reader tasks post asynchronous gets through the comm layer instead
    /// of blocking a worker (distributed mode only; requires a dist GA).
    pub prefetch: bool,
    /// Root tasks arrive through an external [`parsec_rt::WorkSource`]
    /// (the cross-rank steal ledger) instead of the classes' static
    /// `roots()`: the graph stays able to *execute* any chain — including
    /// chains migrated from other ranks — while materializing none until
    /// the source seeds them.
    pub external_roots: bool,
}

impl GraphCtx for CcsdCtx {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn nodes(&self) -> usize {
        self.nodes
    }
}

impl CcsdCtx {
    /// Static round-robin chain-to-node placement: "we performed a
    /// static, round-robin work distribution between nodes and allowed
    /// PaRSEC to perform dynamic work stealing within each node".
    pub fn chain_node(&self, l1: i64) -> usize {
        (l1 as usize) % self.nodes
    }

    /// Chain metadata.
    pub fn chain(&self, l1: i64) -> &tce::ChainMeta {
        &self.ins.chains[l1 as usize]
    }

    /// The paper's priority expression `max_L1 - L1 + offset * P`
    /// (Section IV-C), or 0 when the variant disables priorities (v2).
    pub fn prio(&self, l1: i64, offset: i64) -> i64 {
        if !self.cfg.priorities {
            return 0;
        }
        self.ins.num_chains() as i64 - l1 + offset * self.nodes as i64
    }

    /// Width of reduction level `s` for a chain of `len` GEMMs
    /// (level 0 = the GEMMs themselves).
    pub fn reduce_width(len: usize, s: usize) -> usize {
        let mut w = len;
        for _ in 0..s {
            w = w.div_ceil(2);
        }
        w
    }

    /// The final reduction level (first level of width 1; >= 1).
    pub fn reduce_levels(len: usize) -> usize {
        let mut s = 0;
        let mut w = len;
        while w > 1 || s == 0 {
            w = w.div_ceil(2);
            s += 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_table_matches_paper() {
        let [v1, v2, v3, v4, v5] = VariantCfg::all();
        assert!(v1.chained_gemms && v1.parallel_sort && v1.parallel_write && v1.priorities);
        assert!(!v2.chained_gemms && v2.parallel_sort && !v2.parallel_write && !v2.priorities);
        assert!(!v3.chained_gemms && v3.parallel_sort && v3.parallel_write && v3.priorities);
        assert!(!v4.chained_gemms && v4.parallel_sort && !v4.parallel_write && v4.priorities);
        assert!(!v5.chained_gemms && !v5.parallel_sort && !v5.parallel_write && v5.priorities);
    }

    #[test]
    #[should_panic]
    fn zero_height_rejected() {
        VariantCfg::height(0);
    }

    #[test]
    fn offsets_override() {
        let cfg = VariantCfg::v4().offsets(9, 2);
        assert_eq!(cfg.reader_offset, 9);
        assert_eq!(cfg.gemm_offset, 2);
    }

    #[test]
    fn prio_scales_with_nodes_and_offset() {
        // Direct check of the paper's expression without a workload.
        let space = tce::TileSpace::build(&tce::scale::tiny());
        let ins = Arc::new(tce::inspect(&space, 4));
        let n = ins.num_chains() as i64;
        let ctx = CcsdCtx {
            ins,
            cfg: VariantCfg::v4(),
            nodes: 4,
            ws: None,
            pool: Default::default(),
            prefetch: false,
            external_roots: false,
        };
        assert_eq!(ctx.prio(0, 5), n + 20);
        assert_eq!(ctx.prio(3, 0), n - 3);
        let ctx2 = CcsdCtx {
            cfg: VariantCfg::v2(),
            ..ctx
        };
        assert_eq!(ctx2.prio(0, 5), 0, "v2 disables priorities");
    }

    #[test]
    fn reduction_geometry() {
        assert_eq!(CcsdCtx::reduce_levels(1), 1);
        assert_eq!(CcsdCtx::reduce_levels(2), 1);
        assert_eq!(CcsdCtx::reduce_levels(3), 2);
        assert_eq!(CcsdCtx::reduce_levels(8), 3);
        assert_eq!(CcsdCtx::reduce_levels(9), 4);
        assert_eq!(CcsdCtx::reduce_width(9, 0), 9);
        assert_eq!(CcsdCtx::reduce_width(9, 1), 5);
        assert_eq!(CcsdCtx::reduce_width(9, 2), 3);
        assert_eq!(CcsdCtx::reduce_width(9, 3), 2);
        assert_eq!(CcsdCtx::reduce_width(9, 4), 1);
    }
}
