//! A JDF-like textual DSL for Parameterized Task Graphs.
//!
//! This is the executable counterpart of the paper's Figure 1 (GEMMs in a
//! serial chain) and Figure 2 (the one-line change that makes them
//! parallel). A program is a sequence of task-class blocks:
//!
//! ```text
//! GEMM(L1, L2)                      // header: class name + parameters
//! L1 = 0 .. size_L1 - 1             // one range per parameter
//! L2 = 0 .. chain_len(L1) - 1       // bounds may call host functions
//!
//! : rr(L1)                          // placement expression (optional)
//!
//! READ A <- input_a(L1, L2)               // memory input (host data)
//! READ B <- B READ_B(L1, L2)              // task input: flow B of READ_B
//! RW C <- (L2 == 0) ? C DFILL(L1)         // guarded input alternatives
//!      <- (L2 != 0) ? C GEMM(L1, L2 - 1)
//!      -> (L2 < chain_len(L1) - 1) ? C GEMM(L1, L2 + 1)
//!      -> (L2 == chain_len(L1) - 1) ? C SORT(L1, 0 .. nsorts(L1) - 1)
//!
//! ; size_L1 - L1 + 1                // priority expression (optional)
//!
//! BODY gemm_kernel                  // registered body name (ends class)
//! ```
//!
//! Semantics, matching the JDF rules the paper relies on:
//!
//! * every *output* clause whose guard holds fires; a range argument
//!   `lo .. hi` fires it once per value (broadcast);
//! * among the *input* clauses of one flow, the first whose guard holds is
//!   the active one (guards are expected to be mutually exclusive);
//! * a task is ready when all of its active task-inputs have arrived;
//! * `P` is predefined as the number of nodes (the paper's priority
//!   expressions use `offset * P`).
//!
//! Host integration happens on the [`DslBuilder`]: global variables and
//! functions (`size_L1`, `chain_len`, `find_last_segment_owner`, ...),
//! task bodies (synchronous or asynchronous), data providers for memory
//! inputs, and per-body cost, edge-size and trace-activity hooks for the
//! simulated engine. [`DslBuilder::compile`] resolves all of it once, so
//! the classes it returns evaluate closures, not text (see `compile`).

mod compile;
mod parse;

pub use compile::{AsyncBody, Body, CostHook, DataProvider, DslBuilder, FlowBytesHook};

/// Parse/compile error with 1-based source line.
#[derive(Debug, Clone)]
pub struct DslError {
    pub line: usize,
    pub msg: String,
}

impl std::fmt::Display for DslError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for DslError {}

fn derr<T>(line: usize, msg: impl Into<String>) -> Result<T, DslError> {
    Err(DslError {
        line,
        msg: msg.into(),
    })
}

#[cfg(test)]
mod tests;
