//! Umbrella crate for the reproduction of "PaRSEC in Practice" (CLUSTER 2015).
//!
//! Re-exports every layer of the stack so examples and integration tests can
//! use a single dependency.
pub use ccsd;
pub use dcsim;
pub use global_arrays;
pub use parsec_rt;
pub use ptg;
pub use tce;
pub use tensor_kernels;
pub use xtrace;

// The DSL's semantics, on texts the build script compiles (`src/dsl/`,
// `src/validate/`, `examples/`): ptg has no build script of its own.
#[cfg(test)]
mod dsl {
    mod tests;
}
#[cfg(test)]
mod validate {
    mod tests;
}
