use super::*;
use crate::validate::audit;
use crate::{Payload, PlainCtx, TaskGraph, TaskKey};
use std::sync::Arc;

/// A faithful transliteration of the paper's Figure 1: GEMMs chained
/// serially per chain, fed by reader tasks, ending in a SORT.
const FIG1: &str = r#"
    READ_A(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    : rr(L1)
    WRITE A <- input_a(L1, L2)
            -> A GEMM(L1, L2)
    ; size_L1 - L1 + 5 * P
    BODY reader

    READ_B(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    : rr(L1)
    WRITE B <- input_b(L1, L2)
            -> B GEMM(L1, L2)
    ; size_L1 - L1 + 5 * P
    BODY reader

    DFILL(L1)
    L1 = 0 .. size_L1 - 1
    : rr(L1)
    WRITE C -> C GEMM(L1, 0)
    ; size_L1 - L1
    BODY dfill

    GEMM(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    : rr(L1)
    READ A <- A READ_A(L1, L2)
    READ B <- B READ_B(L1, L2)
    RW C <- (L2 == 0) ? C DFILL(L1)
         <- (L2 != 0) ? C GEMM(L1, L2 - 1)
         -> (L2 < size_L2 - 1) ? C GEMM(L1, L2 + 1)
         -> (L2 == size_L2 - 1) ? C SORT(L1)
    ; size_L1 - L1 + 1 * P
    BODY gemm

    SORT(L1)
    L1 = 0 .. size_L1 - 1
    : rr(L1)
    READ C <- C GEMM(L1, size_L2 - 1)
    BODY sort
"#;

fn fig1_graph(size_l1: i64, size_l2: i64, nodes: usize) -> TaskGraph {
    DslBuilder::new(FIG1)
        .global("size_L1", size_l1)
        .global("size_L2", size_l2)
        .func("rr", Arc::new(move |a: &[i64]| a[0]))
        .compile(Arc::new(PlainCtx { nodes }))
        .unwrap()
}

#[test]
fn fig1_parses_and_audits() {
    let g = fig1_graph(3, 4, 2);
    let a = audit(&g, 10_000).unwrap();
    // 3 chains x 4 links: readers 2*12, dfill 3, gemm 12, sort 3.
    assert_eq!(a.tasks_per_class["READ_A"], 12);
    assert_eq!(a.tasks_per_class["READ_B"], 12);
    assert_eq!(a.tasks_per_class["DFILL"], 3);
    assert_eq!(a.tasks_per_class["GEMM"], 12);
    assert_eq!(a.tasks_per_class["SORT"], 3);
    assert_eq!(a.total_tasks, 42);
    // Chain depth: DFILL -> GEMM x4 -> SORT = 5 edges.
    assert_eq!(a.depth, 5);
    // Each GEMM gets A, B, C; sort gets C.
    assert_eq!(a.total_deps, 12 + 12 + 12 + 3);
    // Readers and DFILLs are the only roots.
    assert_eq!(a.roots, 27);
}

#[test]
fn fig1_priorities_follow_paper_scheme() {
    let g = fig1_graph(3, 4, 2);
    let ctx = g.ctx();
    let gemm = g.class_id("GEMM").unwrap();
    let ra = g.class_id("READ_A").unwrap();
    let k = |c, p: &[i64]| TaskKey::new(c, p);
    // Same class: earlier chain wins.
    let p0 = g.class_of(k(gemm, &[0, 0])).priority(k(gemm, &[0, 0]), ctx);
    let p1 = g.class_of(k(gemm, &[1, 0])).priority(k(gemm, &[1, 0]), ctx);
    assert!(p0 > p1);
    // Readers get the +5*P offset: reader of chain j beats GEMM of
    // chain i only while j < i + 4*P.
    let pr = g.class_of(k(ra, &[2, 0])).priority(k(ra, &[2, 0]), ctx);
    assert!(
        pr > p0,
        "reader of a later chain outranks early GEMMs within the pipeline depth"
    );
}

#[test]
fn fig1_placement_round_robin() {
    let g = fig1_graph(5, 2, 2);
    let ctx = g.ctx();
    let gemm = g.class_id("GEMM").unwrap();
    let place = |l1: i64| {
        g.class_of(TaskKey::new(gemm, &[l1, 0]))
            .placement(TaskKey::new(gemm, &[l1, 0]), ctx)
    };
    assert_eq!(place(0), 0);
    assert_eq!(place(1), 1);
    assert_eq!(place(2), 0);
}

/// Figure 2: the GEMM's C flow becomes a WRITE straight into a
/// reduction — the one-line change enabling parallel GEMMs.
const FIG2_GEMM: &str = r#"
    READ_A(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    WRITE A <- input_a(L1, L2) -> A GEMM(L1, L2)
    BODY reader

    READ_B(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    WRITE B <- input_b(L1, L2) -> B GEMM(L1, L2)
    BODY reader

    GEMM(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    READ A <- A READ_A(L1, L2)
    READ B <- B READ_B(L1, L2)
    WRITE C -> A REDUCTION(L1, L2)
    BODY gemm

    REDUCTION(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    READ A <- A GEMM(L1, L2)
    RW C <- (L2 != 0) ? C REDUCTION(L1, L2 - 1)
         -> (L2 < size_L2 - 1) ? C REDUCTION(L1, L2 + 1)
         -> (L2 == size_L2 - 1) ? C SORT(L1)
    BODY reduce

    SORT(L1)
    L1 = 0 .. size_L1 - 1
    READ C <- C REDUCTION(L1, size_L2 - 1)
    BODY sort
"#;

#[test]
fn fig2_gemms_become_parallel() {
    let g = DslBuilder::new(FIG2_GEMM)
        .global("size_L1", 2)
        .global("size_L2", 6)
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    let a = audit(&g, 10_000).unwrap();
    // GEMMs now all sit at the same level (depth 1 from readers):
    // the long pole is the reduction spine, not the GEMM chain.
    assert_eq!(a.tasks_per_class["GEMM"], 12);
    assert_eq!(a.tasks_per_class["REDUCTION"], 12);
    // Depth: READ -> GEMM -> RED(0) -> ... -> RED(5) -> SORT = 2+6.
    assert_eq!(a.depth, 8);
    // In Figure 1 with the same sizes the depth would be 1 (read) +
    // 6 (chain) + 1 (sort) = 7 but GEMM width 1 per chain; here GEMM
    // width is size_L2 per chain.
    assert!(a.max_level_width >= 12);
}

#[test]
fn execution_with_bodies_runs_dataflow() {
    // Tiny 1-chain program: DFILL -> GEMM*3 -> SORT with counting
    // bodies. Execution engines are tested in parsec-rt; here we just
    // check execute() plumbing (default pass-through + custom bodies).
    let g = fig1_graph(1, 3, 1);
    let ctx = g.ctx();
    let gemm_id = g.class_id("GEMM").unwrap();
    let key = TaskKey::new(gemm_id, &[0, 1]);
    let class = g.class_of(key);
    let mut inputs: Vec<Option<Payload>> = vec![
        Some(Arc::new(vec![1.0])),
        Some(Arc::new(vec![2.0])),
        Some(Arc::new(vec![3.0])),
    ];
    let out = class.execute(key, ctx, &mut inputs);
    // Default body forwards flow C (index 2).
    assert_eq!(out.len(), 3);
    assert_eq!(out[2].as_ref().unwrap()[0], 3.0);
}

#[test]
fn data_providers_feed_memory_inputs() {
    let src = r#"
        T(I)
        I = 0 .. 1
        READ X <- table(I * 10)
        WRITE Y -> X T2(I)
        BODY passx

        T2(I)
        I = 0 .. 1
        READ X <- X T(I)
        BODY done
    "#;
    let g = DslBuilder::new(src)
        .data("table", |args| Arc::new(vec![args[0] as f64]))
        .body("passx", |_k, inputs| {
            let x = inputs[0].take();
            vec![None, x]
        })
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    let key = TaskKey::new(0, &[1]);
    let mut inputs = vec![None, None];
    let out = g.class_of(key).execute(key, g.ctx(), &mut inputs);
    assert_eq!(out[1].as_ref().unwrap()[0], 10.0);
}

#[test]
fn parse_errors_are_reported_with_lines() {
    assert!(DslBuilder::new("JUNK")
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .is_err());
    let compile = |src: &str| {
        DslBuilder::new(src)
            .compile(Arc::new(PlainCtx { nodes: 1 }))
            .unwrap_err()
    };
    // Semantic errors point at the header of the class they are in.
    let e = compile("A(I)\nI = 0 .. 1\nREAD X <- X NOPE(I)\nBODY b");
    assert!(e.msg.contains("unknown class"), "{e}");
    assert_eq!(e.line, 1, "{e}");
    let two = "A(I)\nI = 0 .. 1\nWRITE X -> X B(I)\nBODY a\n\nB(I)\nI = 0 .. 1\n";
    let e = compile(&format!("{two}READ X <- Z A(I)\nBODY b"));
    assert!(e.msg.contains("has no flow `Z`"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = compile(&format!("{two}READ X <- X A(I, I)\nBODY b"));
    assert!(e.msg.contains("takes 1 params, 2 given"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = compile(&format!("{two}READ X <- X A(I)\n; nope\nBODY b"));
    assert!(e.msg.contains("unbound variable `nope`"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = compile("A(I)\nBODY b");
    assert!(e.msg.contains("ranges"), "{e}");
    assert_eq!(e.line, 2, "{e}");
}

#[test]
fn write_flow_rejects_inputs_from_tasks_only_syntax_level() {
    // WRITE flows may take memory inputs (initial data) but we reject
    // plain `<-` on READ-only flows' outputs etc.
    let e = DslBuilder::new("A(I)\nI = 0 .. 0\nREAD X -> X A(I)\nBODY b")
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap_err();
    assert!(e.msg.contains("cannot have outputs"), "{e}");
}

#[test]
fn comments_and_blank_lines_are_ignored() {
    let src = "
        // a leading comment
        A(I)   // trailing comment
        I = 0 .. 2

        WRITE X -> X B(I)  // deps comment
        BODY a

        B(I)
        I = 0 .. 2
        READ X <- X A(I)
        BODY b
    ";
    let g = DslBuilder::new(src)
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    assert_eq!(g.classes().len(), 2);
    assert_eq!(g.roots().len(), 3);
}

#[test]
fn placement_wraps_modulo_nodes() {
    let src = "A(I)
I = 0 .. 9
: I - 5
WRITE X -> X A(I)
BODY a";
    // (self-edge is nonsense but placement is queried without walking)
    let g = DslBuilder::new(src)
        .compile(Arc::new(PlainCtx { nodes: 4 }))
        .unwrap();
    let ctx = g.ctx();
    let k = |i: i64| TaskKey::new(0, &[i]);
    // -5 wraps via rem_euclid.
    assert_eq!(g.class_of(k(0)).placement(k(0), ctx), 3);
    assert_eq!(g.class_of(k(5)).placement(k(5), ctx), 0);
    assert_eq!(g.class_of(k(9)).placement(k(9), ctx), 0);
}

#[test]
fn p_is_bound_to_node_count() {
    let src = "A(I)
I = 0 .. 0
WRITE X -> X A(I)
; P * 10
BODY a";
    let g = DslBuilder::new(src)
        .compile(Arc::new(PlainCtx { nodes: 7 }))
        .unwrap();
    let k = TaskKey::new(0, &[0]);
    assert_eq!(g.class_of(k).priority(k, g.ctx()), 70);
}

#[test]
fn param_dependent_ranges_enumerate_triangles() {
    // J ranges over 0..I: a triangular domain.
    let src = "A(I, J)
I = 0 .. 3
J = 0 .. I
WRITE X -> X A(I, J)
BODY a";
    let g = DslBuilder::new(src)
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    // roots = all (I, J) with J <= I: 1+2+3+4 = 10... but every task
    // also has a self-output making none of them sinks; roots counts
    // keys with num_inputs == 0 which is all of them (no task inputs).
    assert_eq!(g.roots().len(), 10);
}

#[test]
fn guard_first_match_wins_for_inputs() {
    // Two satisfiable input guards on one flow: only one counts.
    let src = r#"
        S(I)
        I = 0 .. 0
        WRITE X -> X T(0)
        BODY s

        T(I)
        I = 0 .. 0
        RW X <- (I == 0) ? X S(0)
             <- (I <= 0) ? X S(0)
        BODY t
    "#;
    let g = DslBuilder::new(src)
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    let t = TaskKey::new(1, &[0]);
    assert_eq!(g.class_of(t).num_inputs(t, g.ctx()), 1);
}

#[test]
fn async_bodies_get_their_priority_and_may_finish_later() {
    // A body that hands its completion to another thread, as a reader
    // hands a get to the comm layer: `execute` waits for the finish,
    // `execute_async` returns at once.
    let src = "R(I)\nI = 0 .. 1\nWRITE X -> X S(I)\n; 10 - I\nBODY r\n\nS(I)\nI = 0 .. 1\nREAD X <- X R(I)\nBODY s";
    let g = DslBuilder::new(src)
        .body_async("r", |_k, prio, _inputs, done| {
            std::thread::spawn(move || done.finish(vec![Some(Arc::new(vec![prio as f64]))]));
            None
        })
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    let key = TaskKey::new(0, &[1]);
    let out = g.class_of(key).execute(key, g.ctx(), &mut [None]);
    assert_eq!(out[0].as_ref().unwrap()[0], 9.0);
    // Group roots: the readers of one group, however roots are seeded.
    assert_eq!(g.group_roots(1), vec![key]);
    let external = DslBuilder::new(src)
        .external_roots(true)
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .unwrap();
    assert!(external.roots().is_empty());
    assert_eq!(external.group_roots(1), vec![key]);
}
