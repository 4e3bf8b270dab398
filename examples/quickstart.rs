//! Quickstart: define a Parameterized Task Graph in the textual DSL
//! (`examples/fig1.jdf`, compiled to Rust by the build script) and
//! execute it on the native threaded runtime.
//!
//! The graph is the paper's Figure 1 in miniature: `size_L1` parallel
//! chains of `size_L2` serially-dependent GEMM tasks, fed by reader
//! tasks, each chain ending in a SORT. Bodies here are toy 2x2 matrix
//! multiplies so the whole example runs in milliseconds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parsec_rt::NativeRuntime;
use ptg::dsl::Host;
use ptg::{Payload, PlainCtx, TaskKey};
use std::sync::{Arc, Mutex};

/// What the text reads from the host: its sizes, the operands of its
/// memory inputs, and its bodies. Bodies are toy 2x2 matrix multiplies.
#[allow(non_snake_case)]
struct Toy {
    size_L1: i64,
    size_L2: i64,
    /// `(L1, sum of C)` per finished chain.
    results: Arc<Mutex<Vec<(i64, f64)>>>,
}

impl Toy {
    /// Placement: one node, so every chain lands on it.
    fn rr(&self, l1: i64) -> i64 {
        l1
    }
}

impl Host for Toy {
    /// Memory inputs: 2x2 matrices whose entries depend on (L1, L2).
    fn data(&self, name: &str, args: &[i64]) -> Option<Payload> {
        Some(Arc::new(match name {
            "input_a" => vec![1.0, 0.0, 0.0, 1.0 + args[1] as f64],
            _ => vec![args[0] as f64 + 1.0, 0.5, 0.5, 1.0],
        }))
    }

    fn execute(
        &self,
        body: &str,
        key: TaskKey,
        inputs: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        match body {
            "dfill" => vec![Some(Arc::new(vec![0.0; 4]))],
            "gemm" => {
                let a = inputs[0].take().expect("A");
                let b = inputs[1].take().expect("B");
                let mut c = (*inputs[2].take().expect("C")).clone();
                use tensor_kernels::{dgemm, Trans::N};
                dgemm(N, N, 2, 2, 2, 1.0, &a, &b, 1.0, &mut c);
                vec![None, None, Some(Arc::new(c))]
            }
            "sort" => {
                let c = inputs[0].take().expect("C");
                let sum = c.iter().sum();
                self.results.lock().unwrap().push((key.params[0], sum));
                vec![None]
            }
            // The readers forward what their memory input read.
            _ => inputs.iter_mut().map(Option::take).collect(),
        }
    }
}

/// `examples/fig1.jdf`, compiled to Rust by the build script.
#[allow(clippy::overly_complex_bool_expr)] // `L2 == 0 || L2 != 0`
mod text {
    use super::Toy as Host;
    include!(concat!(env!("OUT_DIR"), "/fig1.rs"));
}

fn main() {
    let (chains, links) = (4i64, 3i64);

    let results: Arc<Mutex<Vec<(i64, f64)>>> = Default::default();
    let toy = Toy {
        size_L1: chains,
        size_L2: links,
        results: results.clone(),
    };
    let graph = text::graph(toy, Arc::new(PlainCtx { nodes: 1 }), false);

    let report = NativeRuntime::new(2).run(&graph);

    let mut sums = results.lock().unwrap().clone();
    sums.sort_by_key(|&(l1, _)| l1);
    println!(
        "executed {} tasks on 2 worker threads in {:?}",
        report.tasks, report.wall
    );
    for (l1, sum) in &sums {
        println!("chain {l1}: sum of accumulated C = {sum:.3}");
    }
    assert_eq!(sums.len(), chains as usize);

    // The whole point of the PTG: no DAG was ever materialized — the
    // runtime discovered 4 chains x (2 readers + 1 gemm) x 3 + dfill +
    // sort symbolically, task by task.
    let expected = chains * (3 * links) + 2 * chains;
    assert_eq!(report.tasks, expected as u64);
    println!("ok: {} tasks discovered symbolically", report.tasks);
}
