//! Serial reference execution of `icsd_t2_7` — the numerical ground truth.
//!
//! This follows the original code's structure literally: per chain,
//! `DFILL` a C buffer, then for each surviving `(p5b, p6b)` pair
//! `GET_HASH_BLOCK` both operands and `DGEMM('T','N', ...)` into C, then
//! run the guarded `SORT_4` branches each followed by `ADD_HASH_BLOCK`.
//! Every parallel execution model in the `ccsd` crate must reproduce this
//! result to ~14 digits.

use crate::loopnest::{
    walk_kernels, ChainInfo, GemmInfo, Kernel, SortInfo, T27Visitor, TensorKind,
};
use crate::space::TileSpace;
use crate::tensors::{self, TensorLayout};
use global_arrays::hash::{add_hash_block, get_hash_block};
use global_arrays::{Ga, GaHandle};
use tensor_kernels::{dgemm, sort_4, Trans};

/// Seed used to fill `t2`.
pub const T2_SEED: u64 = 0x7271;
/// Seed used to fill `v`.
pub const V_SEED: u64 = 0x7272;
/// Seed used to fill `v_oooo`.
pub const V_OO_SEED: u64 = 0x7273;

/// A materialized problem instance: real Global Arrays for all tensors.
pub struct Workspace {
    /// The GA toolkit (logical cluster).
    pub ga: Ga,
    /// The orbital space.
    pub space: TileSpace,
    /// The kernels this workspace executes.
    pub kernels: Vec<Kernel>,
    /// Tensor layouts.
    pub t2_layout: TensorLayout,
    pub v_layout: TensorLayout,
    pub v_oo_layout: TensorLayout,
    pub i2_layout: TensorLayout,
    /// Array handles.
    pub t2: GaHandle,
    pub v: GaHandle,
    pub v_oo: GaHandle,
    pub i2: GaHandle,
}

/// Materialize an `icsd_t2_7` problem for `nodes` logical nodes.
pub fn build_workspace(space: &TileSpace, nodes: usize) -> Workspace {
    build_workspace_kernels(space, nodes, &[Kernel::T2_7])
}

/// Materialize a multi-kernel problem: input tensors filled
/// deterministically, `i2` zeroed.
pub fn build_workspace_kernels(space: &TileSpace, nodes: usize, kernels: &[Kernel]) -> Workspace {
    build_workspace_on(Ga::init(nodes), space, kernels)
}

/// Materialize onto a caller-built GA toolkit (in-process or distributed).
/// Tensor fills are *collective*: with a distributed `ga`, every rank must
/// call this with identical arguments, and each writes only the shard it
/// owns. Callers in distributed mode must `ga.sync()` before reading.
///
/// The input tensors are frozen after their fills: `icsd_t2_7` only reads
/// them, a write to one panics, and their cached blocks outlive every
/// `sync` — so each run after the first over this workspace starts with
/// its remote operands already cached. Only `i2` stays writable.
pub fn build_workspace_on(ga: Ga, space: &TileSpace, kernels: &[Kernel]) -> Workspace {
    let nodes = ga.nnodes();
    let t2_layout = tensors::t2_layout(space, nodes);
    let v_layout = tensors::v_layout(space, nodes);
    let v_oo_layout = tensors::v_oo_layout(space, nodes);
    let i2_layout = tensors::i2_layout(space, nodes);
    let t2 = tensors::materialize(&ga, &t2_layout, Some(T2_SEED));
    let v = tensors::materialize(&ga, &v_layout, Some(V_SEED));
    // Only fill v_oooo when a kernel reads it (it is small either way).
    let v_oo_seed = kernels.contains(&Kernel::T2_2).then_some(V_OO_SEED);
    let v_oo = tensors::materialize(&ga, &v_oo_layout, v_oo_seed);
    for h in [t2, v, v_oo] {
        ga.freeze(h);
    }
    let i2 = tensors::materialize(&ga, &i2_layout, None);
    Workspace {
        ga,
        space: space.clone(),
        kernels: kernels.to_vec(),
        t2_layout,
        v_layout,
        v_oo_layout,
        i2_layout,
        t2,
        v,
        v_oo,
        i2,
    }
}

impl Workspace {
    /// Handle and layout of a tensor by kind.
    pub fn tensor(&self, kind: TensorKind) -> (GaHandle, &TensorLayout) {
        match kind {
            TensorKind::T2 => (self.t2, &self.t2_layout),
            TensorKind::Vvvvv => (self.v, &self.v_layout),
            TensorKind::Voooo => (self.v_oo, &self.v_oo_layout),
        }
    }

    /// Zero the output tensor (between runs).
    pub fn reset_output(&self) {
        self.ga.zero(self.i2);
    }

    /// Snapshot the output tensor.
    pub fn output(&self) -> Vec<f64> {
        self.ga.snapshot(self.i2)
    }
}

struct RefExec<'a> {
    ws: &'a Workspace,
    c: Vec<f64>,
}

impl T27Visitor for RefExec<'_> {
    fn chain(&mut self, c: &ChainInfo) {
        // DFILL: fresh zeroed C tile.
        self.c.clear();
        self.c.resize(c.m * c.n, 0.0);
    }

    fn gemm(&mut self, c: &ChainInfo, g: &GemmInfo) {
        let (ah, al) = self.ws.tensor(g.a_tensor);
        let (bh, bl) = self.ws.tensor(g.b_tensor);
        let a = get_hash_block(&self.ws.ga, ah, &al.index, g.a_key);
        let b = get_hash_block(&self.ws.ga, bh, &bl.index, g.b_key);
        dgemm(Trans::T, g.tb, c.m, c.n, g.k, 1.0, &a, &b, 1.0, &mut self.c);
    }

    fn chain_end(&mut self, c: &ChainInfo, sorts: &[SortInfo]) {
        let mut sorted = vec![0.0; c.m * c.n];
        for s in sorts {
            sort_4(&self.c, &mut sorted, c.cdims, s.perm, s.factor);
            add_hash_block(
                &self.ws.ga,
                self.ws.i2,
                &self.ws.i2_layout.index,
                s.out_key,
                &sorted,
                1.0,
            );
        }
    }
}

/// Execute the workspace's kernels serially — the original code.
pub fn run_reference(ws: &Workspace) {
    let mut exec = RefExec { ws, c: Vec::new() };
    walk_kernels(&ws.space, &ws.kernels, &mut exec);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale;

    #[test]
    fn reference_is_deterministic() {
        let s = TileSpace::build(&scale::tiny());
        let ws = build_workspace(&s, 2);
        run_reference(&ws);
        let first = ws.output();
        ws.reset_output();
        run_reference(&ws);
        assert_eq!(first, ws.output());
        assert!(
            first.iter().any(|&x| x != 0.0),
            "output must be non-trivial"
        );
    }

    #[test]
    fn node_count_does_not_change_numerics() {
        let s = TileSpace::build(&scale::tiny());
        let ws1 = build_workspace(&s, 1);
        let ws4 = build_workspace(&s, 4);
        run_reference(&ws1);
        run_reference(&ws4);
        assert_eq!(ws1.output(), ws4.output());
    }

    #[test]
    fn rerun_accumulates() {
        // ADD_HASH_BLOCK accumulates: running twice doubles the output.
        let s = TileSpace::build(&scale::tiny());
        let ws = build_workspace(&s, 2);
        run_reference(&ws);
        let once = ws.output();
        run_reference(&ws);
        let twice = ws.output();
        for (a, b) in once.iter().zip(&twice) {
            assert!((2.0 * a - b).abs() < 1e-12);
        }
    }
}
