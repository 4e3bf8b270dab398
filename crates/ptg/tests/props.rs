//! Property tests for the expression language and the DSL.

use proptest::prelude::*;
use ptg::expr::{self, BinOp, Expr, MapEnv, UnOp};

/// Random expression trees over a fixed variable set.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::Int),
        prop_oneof![Just("x"), Just("y"), Just("L1")].prop_map(|v| Expr::Var(v.into())),
    ];
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, op)| {
                let op = match op % 13 {
                    0 => BinOp::Or,
                    1 => BinOp::And,
                    2 => BinOp::Eq,
                    3 => BinOp::Ne,
                    4 => BinOp::Lt,
                    5 => BinOp::Le,
                    6 => BinOp::Gt,
                    7 => BinOp::Ge,
                    8 => BinOp::Add,
                    9 => BinOp::Sub,
                    10 => BinOp::Mul,
                    11 => BinOp::Div,
                    _ => BinOp::Mod,
                };
                Expr::Binary(op, Box::new(a), Box::new(b))
            }),
            (inner.clone(), any::<bool>()).prop_map(|(a, neg)| {
                Expr::Unary(if neg { UnOp::Neg } else { UnOp::Not }, Box::new(a))
            }),
            (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, a, b)| Expr::Ternary(
                Box::new(c),
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Call("f".into(), vec![a, b])),
        ]
    })
}

fn env() -> MapEnv {
    let mut e = MapEnv::new();
    e.set("x", 7).set("y", -3).set("L1", 11);
    e.func(
        "f",
        std::sync::Arc::new(|a: &[i64]| a[0].wrapping_add(a[1])),
    );
    e
}

proptest! {
    // The compiled side of `fold_preserves_evaluation` has one closure per
    // operator and operand shape; 64 cases leave some of them unvisited.
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

    /// Display then parse gives back the identical tree.
    #[test]
    fn print_parse_roundtrip(e in arb_expr()) {
        let printed = format!("{e}");
        let reparsed = expr::parse(&printed)
            .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
        prop_assert_eq!(reparsed, e);
    }

    /// Constant folding and compiling never change the value (including
    /// the error status: a folded expression errors iff the original
    /// does, and the compiled closure returns `None` exactly then).
    /// Compiling reads `x` and `L1` from parameter slots and folds `y` as
    /// a global.
    #[test]
    fn fold_preserves_evaluation(e in arb_expr()) {
        let env = env();
        let folded = expr::fold(&e);
        let mut globals = MapEnv::new();
        globals.set("y", -3).func("f", std::sync::Arc::new(|a: &[i64]| a[0].wrapping_add(a[1])));
        let compiled = expr::compile(&e, &["x".into(), "L1".into()], &globals)
            .map_err(|err| TestCaseError::fail(format!("{e}: {err}")))?;
        let reference = expr::eval(&e, &env);
        match (&reference, expr::eval(&folded, &env)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(*a, b),
            (Err(_), Err(_)) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "fold changed status: {a:?} vs {b:?} for {e}"
                )))
            }
        }
        prop_assert_eq!(reference.ok(), compiled.eval(&[7, 11]), "compiled {}", e);
    }

    /// Folding is idempotent.
    #[test]
    fn fold_is_idempotent(e in arb_expr()) {
        let once = expr::fold(&e);
        let twice = expr::fold(&once);
        prop_assert_eq!(once, twice);
    }
}
