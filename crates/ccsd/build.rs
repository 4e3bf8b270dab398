//! Compiles the five variant texts to Rust task classes in `OUT_DIR`
//! (see `ptg::dsl::emit`); `src/variants.rs` includes them.

fn main() {
    ptg::dsl::build(
        &[
            "src/variants/v1.jdf",
            "src/variants/v2.jdf",
            "src/variants/v3.jdf",
            "src/variants/v4.jdf",
            "src/variants/v5.jdf",
        ],
        &["nchains", "h", "reader_offset", "gemm_offset"],
        &[
            ("chain_len", 1),
            ("nsorts", 1),
            ("reduce_levels", 1),
            ("reduce_width", 2),
            ("nowners", 2),
            ("owner", 3),
        ],
    );
}
