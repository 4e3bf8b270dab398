//! Shared graph context and variant configuration.

use parsec_rt::TilePool;
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

/// One of the paper's variants (Section IV-A / Section V's v1..v5 list):
/// which PTG text runs, and the values of its globals. The wiring is the
/// text (`variants/*.jdf`); these fields only parameterize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantCfg {
    /// "v1".."v5", or "vh" (v5's text at another segment height). Names
    /// the text.
    pub name: &'static str,
    /// Segment height `h` of the parallel-GEMM texts: chains are cut
    /// into serial segments of `h` GEMMs whose partial results merge
    /// through the reduction tree. The paper evaluates the two extremes —
    /// `h = 1` (v2-v5, maximum parallelism) and the full chain (v1,
    /// maximum locality) — and notes the height "can vary"; intermediate
    /// heights are this reproduction's extension, swept by
    /// `paper ablations`. v1's text does not read it.
    pub segment_height: usize,
    /// Priority offset of the reader classes (paper: +5, giving the
    /// prefetch pipeline of depth ~5P).
    pub reader_offset: i64,
    /// Priority offset of the GEMM class (paper: +1).
    pub gemm_offset: i64,
}

impl VariantCfg {
    fn paper(name: &'static str) -> Self {
        Self {
            name,
            segment_height: 1,
            reader_offset: 5,
            gemm_offset: 1,
        }
    }
    /// v1: serial GEMM chain, parallel SORTs and WRITEs, priorities.
    pub fn v1() -> Self {
        Self::paper("v1")
    }
    /// v2: parallel GEMMs and SORTs, single WRITE, **no priorities**.
    pub fn v2() -> Self {
        Self::paper("v2")
    }
    /// v3: everything parallel (GEMMs, SORTs, WRITEs), priorities.
    pub fn v3() -> Self {
        Self::paper("v3")
    }
    /// v4: parallel GEMMs and SORTs, single WRITE, priorities.
    pub fn v4() -> Self {
        Self::paper("v4")
    }
    /// v5: parallel GEMMs, one SORT, one WRITE, priorities (the winner).
    pub fn v5() -> Self {
        Self::paper("v5")
    }

    /// Override the reader/GEMM priority offsets (prefetch-depth study).
    pub fn offsets(mut self, reader: i64, gemm: i64) -> Self {
        self.reader_offset = reader;
        self.gemm_offset = gemm;
        self
    }

    /// An intermediate-height variant (v5's text, segments of `h`
    /// GEMMs): the spectrum between the paper's two extremes.
    pub fn height(h: usize) -> Self {
        assert!(h >= 1, "segment height must be at least 1");
        Self {
            segment_height: h,
            ..Self::paper("vh")
        }
    }
    /// All five, in paper order.
    pub fn all() -> [Self; 5] {
        [Self::v1(), Self::v2(), Self::v3(), Self::v4(), Self::v5()]
    }
}

/// The host of one CCSD graph: what its variant text reads as globals
/// (`nchains`, `h`, the offsets) and host functions, and what its bodies
/// run on. The bodies and hooks themselves are in `variants`.
pub struct CcsdCtx {
    /// Inspection metadata (chains, operand locations, sort branches).
    pub ins: Arc<Inspection>,
    /// Real arrays for body execution (`None` for structural simulation).
    pub ws: Option<Arc<Workspace>>,
    /// Tile buffer pool serving every task body's working memory
    /// (operand tiles, C accumulators, sort scratch, packing panels).
    pub pool: Arc<TilePool>,
    /// Reader tasks post asynchronous gets through the comm layer instead
    /// of blocking a worker (distributed mode only; requires a dist GA).
    pub prefetch: bool,
    /// Number of chains.
    pub nchains: i64,
    /// Segment height ([`VariantCfg::segment_height`]).
    pub h: i64,
    /// [`VariantCfg::reader_offset`].
    pub reader_offset: i64,
    /// [`VariantCfg::gemm_offset`].
    pub gemm_offset: i64,
}

impl CcsdCtx {
    /// The host of `cfg`'s graph over `ins`.
    pub fn new(
        ins: Arc<Inspection>,
        cfg: VariantCfg,
        ws: Option<Arc<Workspace>>,
        pool: Arc<TilePool>,
        prefetch: bool,
    ) -> Self {
        Self {
            nchains: ins.num_chains() as i64,
            ins,
            ws,
            pool,
            prefetch,
            h: cfg.segment_height as i64,
            reader_offset: cfg.reader_offset,
            gemm_offset: cfg.gemm_offset,
        }
    }

    /// Chain metadata.
    pub fn chain(&self, l1: i64) -> &tce::ChainMeta {
        &self.ins.chains[l1 as usize]
    }

    // Host functions of the variant texts.

    /// GEMMs of chain `l1`.
    pub fn chain_len(&self, l1: i64) -> i64 {
        self.chain(l1).gemms.len() as i64
    }

    /// Active SORT branches of chain `l1`.
    pub fn nsorts(&self, l1: i64) -> i64 {
        self.chain(l1).sorts.len() as i64
    }

    /// Depth of chain `l1`'s reduction tree over its segments.
    pub fn reduce_levels(&self, l1: i64) -> i64 {
        tree_levels(self.segments(l1)) as i64
    }

    /// Width of level `s` of chain `l1`'s reduction tree (level 0: the
    /// segments).
    pub fn reduce_width(&self, l1: i64, s: i64) -> i64 {
        tree_width(self.segments(l1), s as usize) as i64
    }

    /// Global Arrays nodes holding SORT `i`'s output block.
    pub fn nowners(&self, l1: i64, i: i64) -> i64 {
        self.chain(l1).sorts[i as usize].owners.len() as i64
    }

    /// The `w`-th of them.
    pub fn owner(&self, l1: i64, i: i64, w: i64) -> i64 {
        self.chain(l1).sorts[i as usize].owners[w as usize].0 as i64
    }

    fn segments(&self, l1: i64) -> usize {
        self.chain(l1).gemms.len().div_ceil(self.h as usize)
    }
}

/// Width of level `s` of a binary reduction tree over `len` leaves (level
/// 0: the leaves): `len / 2^s`, rounded up.
fn tree_width(len: usize, s: usize) -> usize {
    match s {
        s if s >= usize::BITS as usize => len.min(1),
        s => (len >> s) + usize::from(len & ((1 << s) - 1) != 0),
    }
}

/// The final level of a binary reduction tree over `len` leaves: the
/// first of width 1, and at least 1.
fn tree_levels(len: usize) -> usize {
    match len {
        0..=2 => 1,
        len => (usize::BITS - (len - 1).leading_zeros()) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_table_matches_paper() {
        // The texts carry the wiring; every paper variant runs its own at
        // segment height 1 with the paper's offsets (+5 readers, +1 GEMMs).
        let names = VariantCfg::all().map(|c| c.name);
        assert_eq!(names, ["v1", "v2", "v3", "v4", "v5"]);
        for cfg in VariantCfg::all() {
            assert_eq!(
                (cfg.segment_height, cfg.reader_offset, cfg.gemm_offset),
                (1, 5, 1)
            );
        }
        assert_eq!(VariantCfg::height(3).segment_height, 3);
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
        // The paper's expression `max_L1 - L1 + offset * P`, as the
        // compiled texts evaluate it.
        use crate::variants::{build_graph, READ_A, SORT};
        use ptg::TaskKey;
        let space = tce::TileSpace::build(&tce::scale::tiny());
        let ins = Arc::new(tce::inspect(&space, 4));
        let n = ins.num_chains() as i64;
        let prio = |cfg: VariantCfg, key: TaskKey| {
            let g = build_graph(ins.clone(), cfg, None);
            g.class_of(key).priority(key, g.ctx())
        };
        let (read, sort) = (TaskKey::new(READ_A, &[0, 0]), TaskKey::new(SORT, &[3, 0]));
        assert_eq!(prio(VariantCfg::v4(), read), n + 20);
        assert_eq!(prio(VariantCfg::v4().offsets(2, 1), read), n + 8);
        assert_eq!(prio(VariantCfg::v4(), sort), n - 3);
        assert_eq!(prio(VariantCfg::v2(), read), 0, "v2 disables priorities");
    }

    #[test]
    fn reduction_geometry() {
        assert_eq!(tree_levels(1), 1);
        assert_eq!(tree_levels(2), 1);
        assert_eq!(tree_levels(3), 2);
        assert_eq!(tree_levels(8), 3);
        assert_eq!(tree_levels(9), 4);
        assert_eq!(tree_width(9, 0), 9);
        assert_eq!(tree_width(9, 1), 5);
        assert_eq!(tree_width(9, 2), 3);
        assert_eq!(tree_width(9, 3), 2);
        assert_eq!(tree_width(9, 4), 1);
        // The halving loop they replace, over every tree up to 300 leaves.
        for len in 0..300usize {
            let (mut w, mut s) = (len, 0);
            while w > 1 || s == 0 {
                w = w.div_ceil(2);
                s += 1;
                assert_eq!(tree_width(len, s), w, "{len} {s}");
            }
            assert_eq!(tree_levels(len), s, "{len}");
            assert_eq!(tree_width(len, 70), len.min(1));
        }
    }
}
