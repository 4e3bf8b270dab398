//! Figures 1 and 2, executable: the PTG of chained GEMMs and the one-line
//! change that turns the chain into parallel GEMMs feeding a reduction.
//!
//! The paper's point ("the learning curve ... comes with rewards"): the
//! *entire* difference between the serial-chain organization and the
//! parallel-with-reduction organization is the dataflow declaration of
//! matrix C. Here both programs (`examples/fig1.jdf`, `examples/fig2.jdf`,
//! compiled to Rust by the build script) are audited; the graph
//! statistics show the chain's depth collapsing.
//!
//! ```text
//! cargo run --release --example ptg_dsl
//! ```

use ptg::dsl::Host;
use ptg::validate::audit;
use ptg::PlainCtx;
use std::sync::Arc;

/// What both figures read from the host: the sizes, and `rr`, the
/// round-robin placement function the paper looks up through `descRR`.
/// The bodies are left out: this example only audits the graphs.
#[allow(non_snake_case)]
struct Sizes {
    size_L1: i64,
    size_L2: i64,
}

impl Sizes {
    fn rr(&self, l1: i64) -> i64 {
        l1
    }
}

impl Host for Sizes {}

/// Figure 1 (`examples/fig1.jdf`), compiled by the build script.
#[allow(clippy::overly_complex_bool_expr)] // `L2 == 0 || L2 != 0`
mod fig1 {
    use super::Sizes as Host;
    include!(concat!(env!("OUT_DIR"), "/fig1.rs"));
}

/// Figure 2 (`examples/fig2.jdf`).
mod fig2 {
    use super::Sizes as Host;
    include!(concat!(env!("OUT_DIR"), "/fig2.rs"));
}

fn main() {
    let (chains, links) = (6i64, 8i64);

    let sizes = || Sizes {
        size_L1: chains,
        size_L2: links,
    };
    let ctx = || Arc::new(PlainCtx { nodes: 4 });
    let fig1 = fig1::graph(sizes(), ctx(), false);
    let a1 = audit(&fig1, 100_000).expect("fig1 audits");
    println!("Figure 1 (chained GEMMs):");
    println!("  tasks {:?}", a1.tasks_per_class);
    println!(
        "  depth {} / GEMM stage spans levels {:?}",
        a1.depth, a1.class_levels["GEMM"]
    );

    let fig2 = fig2::graph(sizes(), ctx(), false);
    let a2 = audit(&fig2, 100_000).expect("fig2 audits");
    println!("\nFigure 2 (parallel GEMMs + reduction):");
    println!("  tasks {:?}", a2.tasks_per_class);
    println!(
        "  depth {} / GEMM stage spans levels {:?}",
        a2.depth, a2.class_levels["GEMM"]
    );

    let (g1_min, g1_max) = a1.class_levels["GEMM"];
    let (g2_min, g2_max) = a2.class_levels["GEMM"];
    println!(
        "\nthe GEMM stage went from a {}-level serial chain to a single level — \
         \"the one line that must replace the four lines\"",
        g1_max - g1_min + 1
    );
    assert_eq!(g1_max - g1_min + 1, links as usize);
    assert_eq!(g2_min, g2_max, "all Figure-2 GEMMs are independent");
    assert_eq!(a1.tasks_per_class["GEMM"], a2.tasks_per_class["GEMM"]);
}
