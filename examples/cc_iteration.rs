//! An iterative coupled-cluster-style solver built on the ported term.
//!
//! CCSD is an iterative method: the amplitude equations are solved by
//! fixed-point iteration, re-evaluating contraction terms like
//! `icsd_t2_7` each sweep. This example closes that loop with a toy
//! Jacobi-style update,
//!
//! ```text
//! t2  <-  t2_initial + lambda * P(i2[t2]),
//! ```
//!
//! where `i2[t2]` is the t2_7 contraction executed as a PaRSEC task graph
//! over real Global Arrays and `P` permutes the residual's
//! `[h1,h2,p3,p4]` blocks back into t2's `[p3,p4,h1,h2]` layout. For a
//! small enough `lambda` the map is a contraction and the "correlation
//! energy" converges geometrically — each sweep re-runs the inspection
//! metadata's graph exactly as NWChem re-runs the generated kernels every
//! CC iteration.
//!
//! ```text
//! cargo run --release --example cc_iteration
//! ```

use ccsd::{verify, VariantCfg};
use std::sync::Arc;
use tce::{energy, scale, TileSpace};
use tensor_kernels::sort_4;

fn main() {
    let lambda = 0.05;
    let space = TileSpace::build(&scale::small());
    let (ins, mut ws) = verify::prepare(&space, 2);
    println!(
        "{} chains / {} GEMMs per sweep; lambda = {lambda}",
        ins.num_chains(),
        ins.total_gemms
    );

    // Frozen initial amplitudes (the "MP2 guess" of the toy model).
    let t2_initial = ws.ga.snapshot(ws.t2);
    // A workspace's input tensors are frozen — read-only while the
    // kernel runs over them — so each sweep writes the next amplitudes
    // into a spare array, and the workspace reads that one from then on.
    let spare = [0, 1].map(|_| ws.ga.create(t2_initial.len()));

    let mut prev_e = f64::INFINITY;
    let mut converged = false;
    for sweep in 1..=40 {
        // One contraction sweep through the v5 task graph (real bodies).
        ws.reset_output();
        let graph = ccsd::build_graph(ins.clone(), VariantCfg::v5(), Some(ws.clone()));
        parsec_rt::NativeRuntime::new(2).run(&graph);
        let e = energy::energy(&ws);

        // Jacobi update: t2 = t2_initial + lambda * P(i2).
        let next = spare[sweep % 2];
        ws.ga.put(next, 0, &t2_initial);
        for (key, offset, size) in ws.i2_layout.index.iter() {
            let gids = ws.space.decode_key(key); // [h1, h2, p3, p4]
            let dims = [
                ws.space.tile(gids[0]).size,
                ws.space.tile(gids[1]).size,
                ws.space.tile(gids[2]).size,
                ws.space.tile(gids[3]).size,
            ];
            let block = ws.ga.get(ws.i2, offset, size);
            let mut permuted = vec![0.0; size];
            // [h1,h2,p3,p4] -> [p3,p4,h1,h2].
            sort_4(&block, &mut permuted, dims, [2, 3, 0, 1], 1.0);
            let t2_key = ws.space.block_key([gids[2], gids[3], gids[0], gids[1]]);
            let (t2_off, t2_size) = ws
                .t2_layout
                .index
                .lookup(t2_key)
                .expect("matching t2 block");
            assert_eq!(t2_size, size);
            let updated: Vec<f64> = t2_initial[t2_off..t2_off + size]
                .iter()
                .zip(&permuted)
                .map(|(t0, r)| t0 + lambda * r)
                .collect();
            ws.ga.put(next, t2_off, &updated);
        }
        drop(graph);
        Arc::get_mut(&mut ws).expect("the sweep's graph is gone").t2 = next;

        let delta = (e - prev_e).abs();
        println!("sweep {sweep:>2}: E = {e:+.14}   |dE| = {delta:.2e}");
        if delta < 1e-11 {
            println!("\nconverged after {sweep} sweeps");
            converged = true;
            break;
        }
        prev_e = e;
    }
    assert!(converged, "the fixed point should converge at this scale");
}
