//! Property tests for the expression language.

use proptest::prelude::*;
use ptg::expr::{self, BinOp, Expr, UnOp};

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

proptest! {
    // Printing has one parenthesisation rule per operator and operand
    // shape; 64 cases leave some of them unvisited.
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(2000))]

    /// Display then parse gives back the identical tree.
    #[test]
    fn print_parse_roundtrip(e in arb_expr()) {
        let printed = format!("{e}");
        let reparsed = expr::parse(&printed)
            .map_err(|err| TestCaseError::fail(format!("`{printed}`: {err}")))?;
        prop_assert_eq!(reparsed, e);
    }
}
