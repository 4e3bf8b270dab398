//! `ptg::validate` on compiled texts (`src/validate/*.jdf`).

use ptg::dsl::Host;
use ptg::validate::{audit, to_dot, AuditError};
use ptg::{PlainCtx, TaskGraph};
use std::sync::Arc;

/// The chain text's globals.
pub struct Chain {
    pub n: i64,
    pub lie: i64,
}

impl Host for Chain {}

mod chain {
    use super::Chain as Host;
    include!(concat!(env!("OUT_DIR"), "/chain.rs"));
}

mod cycle {
    use super::Chain as Host;
    include!(concat!(env!("OUT_DIR"), "/cycle.rs"));
}

/// A chain of `n` tasks; with `lie`, every task but the first declares a
/// second input that nobody sends.
fn graph(n: i64, lie: bool) -> TaskGraph {
    let host = Chain { n, lie: lie as i64 };
    chain::graph(host, Arc::new(PlainCtx { nodes: 1 }), false)
}

#[test]
fn audits_a_chain() {
    let a = audit(&graph(5, false), 100).unwrap();
    assert_eq!(a.total_tasks, 5);
    assert_eq!(a.total_deps, 4);
    assert_eq!(a.depth, 4);
    assert_eq!(a.roots, 1);
    assert_eq!(a.sinks, 1);
    assert_eq!(a.max_level_width, 1);
    assert_eq!(a.tasks_per_class["CHAIN"], 5);
    assert_eq!(a.class_levels["CHAIN"], (0, 4));
}

#[test]
fn detects_in_degree_mismatch() {
    let e = audit(&graph(3, true), 100).unwrap_err();
    assert!(matches!(e, AuditError::InDegreeMismatch { .. }));
}

#[test]
fn respects_limit() {
    let e = audit(&graph(1000, false), 10).unwrap_err();
    assert!(matches!(e, AuditError::LimitExceeded { .. }));
}

#[test]
fn dot_export_contains_tasks_and_edges() {
    let g = graph(3, false);
    let dot = to_dot(&g, 100).unwrap();
    assert!(dot.starts_with("digraph ptg {"));
    assert!(dot.contains("CHAIN(0"));
    assert!(dot.contains("->"));
    assert_eq!(dot.matches("->").count(), 2, "two chain edges");
    assert!(to_dot(&graph(1000, false), 10).is_err());
}

#[test]
fn detects_cycles() {
    let host = Chain { n: 0, lie: 0 };
    let g = cycle::graph(host, Arc::new(PlainCtx { nodes: 1 }), false);
    let e = audit(&g, 100).unwrap_err();
    assert!(matches!(e, AuditError::Cycle { .. }));
}
