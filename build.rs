//! Compiles the root package's PTG texts (examples and tests) to Rust in
//! `OUT_DIR` (see `ptg::dsl::emit`).

fn main() {
    ptg::dsl::build(
        &[
            "examples/fig1.jdf",
            "examples/fig2.jdf",
            "src/dsl/acc.jdf",
            "src/dsl/step.jdf",
            "src/dsl/data.jdf",
            "src/dsl/wrap.jdf",
            "src/dsl/triangle.jdf",
            "src/dsl/first_match.jdf",
            "src/dsl/deferred.jdf",
            "src/dsl/exprs.jdf",
            "src/validate/chain.jdf",
            "src/validate/cycle.jdf",
        ],
        &["size_L1", "size_L2", "n", "lie"],
        &[("rr", 1), ("f", 2)],
    );
}
