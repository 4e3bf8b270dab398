//! Numerical agreement between execution models.
//!
//! "We note that the final result (correlation energy) computed by the
//! different variations matched up to the 14th digit." These helpers run
//! a variant through an engine against a real workspace and return the
//! energy surrogate, for comparison with the serial reference.

use crate::ctx::VariantCfg;
use crate::variants::{build_graph, build_graph_pooled};
use parsec_rt::{NativeRuntime, SchedPolicy, SimEngine, TilePool};
use std::sync::Arc;
use tce::{energy, reference, TileSpace, Workspace};

/// Build an inspection + workspace pair for `nodes` logical nodes.
pub fn prepare(space: &TileSpace, nodes: usize) -> (Arc<tce::Inspection>, Arc<Workspace>) {
    prepare_kernels(space, nodes, &[tce::Kernel::T2_7])
}

/// As [`prepare`], for a multi-kernel workload (e.g. t2_7 + t2_2 — the
/// kind of kernel mix NWChem pools inside one work level).
pub fn prepare_kernels(
    space: &TileSpace,
    nodes: usize,
    kernels: &[tce::Kernel],
) -> (Arc<tce::Inspection>, Arc<Workspace>) {
    let ins = Arc::new(tce::inspect_kernels(space, nodes, kernels));
    let ws = Arc::new(reference::build_workspace_kernels(space, nodes, kernels));
    (ins, ws)
}

/// Energy of the serial reference execution ("original code" numerics).
pub fn reference_energy(ws: &Workspace) -> f64 {
    ws.reset_output();
    reference::run_reference(ws);
    energy::energy(ws)
}

/// Energy of a variant executed by the native threaded engine.
pub fn variant_energy_native(
    ins: &Arc<tce::Inspection>,
    ws: &Arc<Workspace>,
    cfg: VariantCfg,
    threads: usize,
) -> f64 {
    ws.reset_output();
    let graph = build_graph(ins.clone(), cfg, Some(ws.clone()));
    NativeRuntime::new(threads).policy(cfg.policy()).run(&graph);
    energy::energy(ws)
}

/// As [`variant_energy_native`], sharing a caller-owned tile pool and
/// scheduling policy — the harness for pool-reuse measurements across
/// repeated runs.
pub fn variant_energy_native_pooled(
    ins: &Arc<tce::Inspection>,
    ws: &Arc<Workspace>,
    cfg: VariantCfg,
    threads: usize,
    policy: SchedPolicy,
    pool: Arc<TilePool>,
) -> f64 {
    ws.reset_output();
    let graph = build_graph_pooled(ins.clone(), cfg, Some(ws.clone()), pool);
    NativeRuntime::new(threads).policy(policy).run(&graph);
    energy::energy(ws)
}

/// Energy of a variant executed (with real bodies) by the simulated
/// cluster engine on `cores` cores per node.
pub fn variant_energy_sim(
    ins: &Arc<tce::Inspection>,
    ws: &Arc<Workspace>,
    cfg: VariantCfg,
    cores: usize,
) -> f64 {
    ws.reset_output();
    let graph = build_graph(ins.clone(), cfg, Some(ws.clone()));
    SimEngine::new(ws.ga.nnodes(), cores)
        .policy(cfg.policy())
        .execute_bodies(true)
        .run(&graph);
    energy::energy(ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce::scale;
    use tensor_kernels::rel_diff;

    /// Every variant, on both engines, reproduces the reference energy.
    /// This is the paper's 14-digit agreement check.
    #[test]
    fn variants_match_reference_tiny() {
        let space = TileSpace::build(&scale::tiny());
        let (ins, ws) = prepare(&space, 3);
        let e_ref = reference_energy(&ws);
        assert!(e_ref.abs() > 1e-12);
        for cfg in VariantCfg::all() {
            let e_nat = variant_energy_native(&ins, &ws, cfg, 3);
            assert!(
                rel_diff(e_ref, e_nat) < 1e-12,
                "{} native: {e_nat} vs reference {e_ref}",
                cfg.name
            );
            let e_sim = variant_energy_sim(&ins, &ws, cfg, 2);
            assert!(
                rel_diff(e_ref, e_sim) < 1e-12,
                "{} simulated: {e_sim} vs reference {e_ref}",
                cfg.name
            );
        }
    }

    /// A two-kernel workload (t2_7 + t2_2 chains pooled, as inside one of
    /// NWChem's work levels) still verifies across engines.
    #[test]
    fn multikernel_matches_reference() {
        use tce::Kernel;
        let space = TileSpace::build(&scale::tiny());
        let (ins, ws) = prepare_kernels(&space, 3, &[Kernel::T2_7, Kernel::T2_2]);
        assert!(
            ins.chains.iter().any(|c| c.kernel == Kernel::T2_2),
            "t2_2 chains present"
        );
        let e_ref = reference_energy(&ws);
        for cfg in [VariantCfg::v1(), VariantCfg::v2(), VariantCfg::v5()] {
            let e = variant_energy_native(&ins, &ws, cfg, 3);
            assert!(
                tensor_kernels::rel_diff(e_ref, e) < 1e-12,
                "{} multikernel: {e} vs {e_ref}",
                cfg.name
            );
        }
        let e = variant_energy_sim(&ins, &ws, VariantCfg::v3(), 2);
        assert!(
            tensor_kernels::rel_diff(e_ref, e) < 1e-12,
            "v3 sim multikernel"
        );
        // The t2_2 term must actually change the result (vs t2_7 alone).
        let (_, ws7) = prepare(&space, 3);
        let e7 = reference_energy(&ws7);
        assert!(
            (e_ref - e7).abs() > 1e-9,
            "t2_2 must contribute: {e_ref} vs {e7}"
        );
    }

    /// Intermediate segment heights (the extension between the paper's two
    /// extremes) preserve the numerics exactly: segmentation only reorders
    /// commutative additions.
    #[test]
    fn segment_heights_match_reference() {
        let space = TileSpace::build(&scale::tiny());
        let (ins, ws) = prepare(&space, 2);
        let e_ref = reference_energy(&ws);
        for h in [2, 3, 7] {
            let e = variant_energy_native(&ins, &ws, VariantCfg::height(h), 2);
            assert!(rel_diff(e_ref, e) < 1e-12, "height {h}: {e} vs {e_ref}");
        }
    }

    /// Same at a larger scale with more nodes (slower: keep to v1/v3/v5 on
    /// the native engine plus one simulated run).
    #[test]
    fn variants_match_reference_small() {
        let space = TileSpace::build(&scale::small());
        let (ins, ws) = prepare(&space, 4);
        let e_ref = reference_energy(&ws);
        for cfg in [VariantCfg::v1(), VariantCfg::v3(), VariantCfg::v5()] {
            let e = variant_energy_native(&ins, &ws, cfg, 4);
            assert!(rel_diff(e_ref, e) < 1e-12, "{}: {e} vs {e_ref}", cfg.name);
        }
        let e = variant_energy_sim(&ins, &ws, VariantCfg::v2(), 2);
        assert!(rel_diff(e_ref, e) < 1e-12, "v2 simulated: {e} vs {e_ref}");
    }
}
