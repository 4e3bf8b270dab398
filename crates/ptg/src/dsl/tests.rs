//! The emitter's errors and output shape. What the generated classes do
//! is tested in the root package, whose build script compiles texts.

use super::*;
use crate::expr::Expr;

fn error(src: &str) -> DslError {
    emit(src, &["n"], &[("f", 1)]).unwrap_err()
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let e = error("JUNK");
    assert!(e.msg.contains("expected class header"), "{e}");
    assert_eq!(e.line, 1, "{e}");
    // Semantic errors point at the header of the class they are in.
    let e = error("A(I)\nI = 0 .. 1\nREAD X <- X NOPE(I)\nBODY b");
    assert!(e.msg.contains("unknown class"), "{e}");
    assert_eq!(e.line, 1, "{e}");
    let two = "A(I)\nI = 0 .. 1\nWRITE X -> X B(I)\nBODY a\n\nB(I)\nI = 0 .. 1\n";
    let e = error(&format!("{two}READ X <- Z A(I)\nBODY b"));
    assert!(e.msg.contains("has no flow `Z`"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = error(&format!("{two}READ X <- X A(I, I)\nBODY b"));
    assert!(e.msg.contains("takes 1 params, 2 given"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = error(&format!("{two}READ X <- X A(I)\n; nope\nBODY b"));
    assert!(e.msg.contains("unbound variable `nope`"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = error(&format!("{two}READ X <- X A(I)\n; nope(1)\nBODY b"));
    assert!(e.msg.contains("B: unknown function `nope`"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = error(&format!("{two}READ X <- X A(f(I, 1))\nBODY b"));
    assert!(e.msg.contains("`f` takes 1 args, 2 given"), "{e}");
    assert_eq!(e.line, 6, "{e}");
    let e = error("A(I)\nI = 0 .. 1\nBODY a\n\nA(J)\nJ = 0 .. 1\nBODY b");
    assert!(e.msg.contains("duplicate class `A`"), "{e}");
    assert_eq!(e.line, 5, "{e}");
    let e = error("A(I)\nBODY b");
    assert!(e.msg.contains("ranges"), "{e}");
    assert_eq!(e.line, 2, "{e}");
}

#[test]
fn write_flow_rejects_inputs_from_tasks_only_syntax_level() {
    // WRITE flows may take memory inputs (initial data) but we reject
    // plain `<-` on READ-only flows' outputs etc.
    let e = error("A(I)\nI = 0 .. 0\nREAD X -> X A(I)\nBODY b");
    assert!(e.msg.contains("cannot have outputs"), "{e}");
    assert_eq!(e.line, 3, "{e}");
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
    let defs = parse(src).unwrap();
    let (a, b) = (&defs[0], &defs[1]);
    assert_eq!((defs.len(), a.line, b.line), (2, 3, 9));
    assert_eq!(a.ranges, [(Expr::Int(0), Expr::Int(2))]);
    assert_eq!((a.flows[0].outs.len(), b.flows[0].ins.len()), (1, 1));
    let input = &b.flows[0].ins[0].target;
    assert!(matches!(input, DepTarget::Task { class, .. } if class == "A"));
    let rust = emit(src, &[], &[]).unwrap();
    assert!(rust.contains("struct C1(") && rust.contains("NAME: &'static str = \"B\";"));
}

#[test]
fn names_resolve_once_at_emit_time() {
    // Parameters shadow globals; `P` is the node count; a global is the
    // host's field, a call the host's method; classes and flows are ids.
    let src = "A(n)\nn = 0 .. n + P\nWRITE X -> X B(n, f(n) / 2)\n; n * 10\nBODY a\n\n\
               B(I, J)\nI = 0 .. 0\nJ = 0 .. I\nREAD Y\nREAD X <- (J != 0) ? X A(I)\nBODY b";
    let rust = emit(src, &["n"], &[("f", 1)]).unwrap();
    assert!(
        rust.contains("i64::wrapping_add(self.0.host.n, self.0.nodes)"),
        "{rust}"
    );
    assert!(
        rust.contains("params: [p[0], self.0.host.f(p[0]) / 2, 0, 0] }, dst_flow: 1"),
        "{rust}"
    );
    assert!(rust.contains("i64::wrapping_mul(p[0], 10)"), "{rust}");
    assert!(rust.contains("usize::from(p[1] != 0)"), "{rust}");
    // A range reads only the parameters before it.
    let e = emit("A(I, J)\nI = 0 .. J\nJ = 0 .. 1\nBODY a", &[], &[]).unwrap_err();
    assert!(e.msg.contains("unbound variable `J`"), "{e}");
}
