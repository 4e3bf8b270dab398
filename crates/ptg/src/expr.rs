//! Expression language for the PTG DSL.
//!
//! The JDF snippets in the paper use integer arithmetic, comparisons,
//! ternary guards (`(L2 == 0) ? ...`), references to parameters and
//! globals, and calls to arbitrary C functions
//! (`find_last_segment_owner(mtdata, 0, L2, L1)`). This module provides
//! the equivalent: a small integer expression language with host-function
//! calls, used for parameter ranges, dependency guards, endpoint
//! parameters, priorities and placements.
//!
//! Values are `i64`; booleans are `0`/`1`.
//!
//! [`eval`] walks the tree against a [`MapEnv`]. It is the reference
//! semantics: the DSL's emitter (`dsl::emit`) translates the same trees to
//! Rust at build time, and the generated classes are tested against it.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Binary operators in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Not,
}

/// Parsed expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Int(i64),
    Var(String),
    Call(String, Vec<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? a : b`
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>),
}

/// Parse or evaluation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprError {
    pub msg: String,
    pub pos: usize,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (at byte {})", self.msg, self.pos)
    }
}

impl std::error::Error for ExprError {}

fn err<T>(msg: impl Into<String>, pos: usize) -> Result<T, ExprError> {
    Err(ExprError {
        msg: msg.into(),
        pos,
    })
}

// --------------------------------------------------------------- parser --

/// Binary operators by precedence level, loosest first. Within a level
/// they associate to the left, except comparisons, which do not chain.
/// (Two-character operators come before their one-character prefixes.)
const LEVELS: [&[(&str, BinOp)]; 5] = [
    &[("||", BinOp::Or)],
    &[("&&", BinOp::And)],
    &[
        ("==", BinOp::Eq),
        ("!=", BinOp::Ne),
        ("<=", BinOp::Le),
        (">=", BinOp::Ge),
        ("<", BinOp::Lt),
        (">", BinOp::Gt),
    ],
    &[("+", BinOp::Add), ("-", BinOp::Sub)],
    &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
];
const COMPARISONS: usize = 2;

/// Recursive descent over the source text, no token stream.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The unparsed input, leading whitespace skipped.
    fn rest(&mut self) -> &'a str {
        let skip = self.src[self.pos..].len() - self.src[self.pos..].trim_start().len();
        self.pos += skip;
        &self.src[self.pos..]
    }

    /// Consume `tok` if it comes next.
    fn eat(&mut self, tok: &str) -> bool {
        let hit = self.rest().starts_with(tok);
        if hit {
            self.pos += tok.len();
        }
        hit
    }

    fn expect(&mut self, tok: &str) -> Result<(), ExprError> {
        if self.eat(tok) {
            return Ok(());
        }
        let found = self.rest().chars().next();
        err(format!("expected `{tok}`, found {found:?}"), self.pos)
    }

    /// Full expression: ternary (right associative, lowest precedence).
    fn expr(&mut self) -> Result<Expr, ExprError> {
        let cond = self.binary(0)?;
        if !self.eat("?") {
            return Ok(cond);
        }
        let a = self.expr()?;
        self.expect(":")?;
        let b = self.expr()?;
        Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b)))
    }

    fn binary(&mut self, level: usize) -> Result<Expr, ExprError> {
        let Some(ops) = LEVELS.get(level) else {
            return self.unary();
        };
        let mut lhs = self.binary(level + 1)?;
        while let Some(&(_, op)) = ops.iter().find(|(tok, _)| self.eat(tok)) {
            let rhs = self.binary(level + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            if level == COMPARISONS {
                break;
            }
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ExprError> {
        for (tok, op) in [("-", UnOp::Neg), ("!", UnOp::Not)] {
            if self.eat(tok) {
                return Ok(Expr::Unary(op, Box::new(self.unary()?)));
            }
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ExprError> {
        if self.eat("(") {
            let e = self.expr()?;
            self.expect(")")?;
            return Ok(e);
        }
        let rest = self.rest();
        let start = self.pos;
        let n = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let word = rest[..n].to_string();
        self.pos += n;
        match word.bytes().next() {
            None => {
                let found = rest.chars().next();
                err(format!("unexpected {found:?}"), start)
            }
            Some(b'0'..=b'9') => (word.parse().map(Expr::Int))
                .or_else(|_| err(format!("bad integer `{word}`"), start)),
            Some(_) if !self.eat("(") => Ok(Expr::Var(word)),
            Some(_) => {
                let mut args = Vec::new();
                while !self.eat(")") {
                    if !args.is_empty() {
                        self.expect(",")?;
                    }
                    args.push(self.expr()?);
                }
                Ok(Expr::Call(word, args))
            }
        }
    }
}

/// Parse a complete expression; trailing input is an error.
pub fn parse(src: &str) -> Result<Expr, ExprError> {
    let mut p = Parser { src, pos: 0 };
    let e = p.expr()?;
    match p.rest() {
        "" => Ok(e),
        rest => err(format!("trailing input `{rest}`"), p.pos),
    }
}

// ------------------------------------------------------------ evaluation --

/// A heap-allocated host function.
pub type HostFn = Arc<dyn Fn(&[i64]) -> i64 + Send + Sync>;

/// Name resolution: variables and host functions by name.
#[derive(Default, Clone)]
pub struct MapEnv {
    vars: HashMap<String, i64>,
    funcs: HashMap<String, HostFn>,
}

impl MapEnv {
    /// Empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a variable.
    pub fn set(&mut self, name: &str, value: i64) -> &mut Self {
        self.vars.insert(name.to_string(), value);
        self
    }

    /// Register a host function.
    pub fn func(&mut self, name: &str, f: HostFn) -> &mut Self {
        self.funcs.insert(name.to_string(), f);
        self
    }

    fn var(&self, name: &str) -> Option<i64> {
        self.vars.get(name).copied()
    }
}

/// Evaluate `e` under `env`.
pub fn eval(e: &Expr, env: &MapEnv) -> Result<i64, ExprError> {
    match e {
        Expr::Int(v) => Ok(*v),
        Expr::Var(name) => env.var(name).ok_or_else(|| ExprError {
            msg: format!("unbound variable `{name}`"),
            pos: 0,
        }),
        Expr::Call(name, args) => {
            let vals: Result<Vec<i64>, _> = args.iter().map(|a| eval(a, env)).collect();
            let vals = vals?;
            env.funcs
                .get(name)
                .map(|f| f(&vals))
                .ok_or_else(|| ExprError {
                    msg: format!("unknown function `{name}`"),
                    pos: 0,
                })
        }
        Expr::Unary(op, a) => {
            let v = eval(a, env)?;
            Ok(match op {
                UnOp::Neg => -v,
                UnOp::Not => (v == 0) as i64,
            })
        }
        Expr::Binary(op, a, b) => {
            // Short-circuit logical operators.
            match op {
                BinOp::And => {
                    return Ok(if eval(a, env)? != 0 && eval(b, env)? != 0 {
                        1
                    } else {
                        0
                    })
                }
                BinOp::Or => {
                    return Ok(if eval(a, env)? != 0 || eval(b, env)? != 0 {
                        1
                    } else {
                        0
                    })
                }
                _ => {}
            }
            let x = eval(a, env)?;
            let y = eval(b, env)?;
            Ok(match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Div => {
                    if y == 0 {
                        return err("division by zero", 0);
                    }
                    x / y
                }
                BinOp::Mod => {
                    if y == 0 {
                        return err("modulo by zero", 0);
                    }
                    x % y
                }
                BinOp::Eq => (x == y) as i64,
                BinOp::Ne => (x != y) as i64,
                BinOp::Lt => (x < y) as i64,
                BinOp::Le => (x <= y) as i64,
                BinOp::Gt => (x > y) as i64,
                BinOp::Ge => (x >= y) as i64,
                BinOp::And | BinOp::Or => unreachable!(),
            })
        }
        Expr::Ternary(c, a, b) => {
            if eval(c, env)? != 0 {
                eval(a, env)
            } else {
                eval(b, env)
            }
        }
    }
}

/// Parse and evaluate in one step (convenience for tests).
pub fn eval_str(src: &str, env: &MapEnv) -> Result<i64, ExprError> {
    eval(&parse(src)?, env)
}

// -------------------------------------------------------------- printing --

impl BinOp {
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

impl fmt::Display for Expr {
    /// Fully-parenthesized rendering: `parse(format!("{e}")) == e` for
    /// every expression (the roundtrip property test relies on it).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Int(v) => {
                if *v < 0 {
                    write!(f, "({v})")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Var(n) => write!(f, "{n}"),
            Expr::Call(n, args) => {
                write!(f, "{n}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Unary(UnOp::Neg, a) => write!(f, "(-{a})"),
            Expr::Unary(UnOp::Not, a) => write!(f, "(!{a})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
            Expr::Ternary(c, a, b) => write!(f, "({c} ? {a} : {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> MapEnv {
        let mut e = MapEnv::new();
        e.set("L1", 3).set("L2", 0).set("size_L2", 10);
        e.func("twice", Arc::new(|a: &[i64]| a[0] * 2));
        e
    }

    #[test]
    fn precedence() {
        let e = env();
        assert_eq!(eval_str("1 + 2 * 3", &e).unwrap(), 7);
        assert_eq!(eval_str("(1 + 2) * 3", &e).unwrap(), 9);
        assert_eq!(eval_str("10 - 2 - 3", &e).unwrap(), 5); // left assoc
        assert_eq!(eval_str("10 / 3 / 2", &e).unwrap(), 1);
        assert_eq!(eval_str("7 % 4", &e).unwrap(), 3);
    }

    #[test]
    fn comparisons_and_logic() {
        let e = env();
        assert_eq!(eval_str("L2 == 0", &e).unwrap(), 1);
        assert_eq!(eval_str("L2 != 0", &e).unwrap(), 0);
        assert_eq!(eval_str("L2 < size_L2 - 1", &e).unwrap(), 1);
        assert_eq!(eval_str("L1 <= 3 && L1 >= 3", &e).unwrap(), 1);
        assert_eq!(eval_str("0 || !0", &e).unwrap(), 1);
        assert_eq!(eval_str("!(L1 == 3)", &e).unwrap(), 0);
    }

    #[test]
    fn ternary_paper_style() {
        // The Figure 1 guard shape: (L2 == 0) ? x : y.
        let e = env();
        assert_eq!(eval_str("(L2 == 0) ? 100 : 200", &e).unwrap(), 100);
        assert_eq!(eval_str("(L2 != 0) ? 100 : 200", &e).unwrap(), 200);
        // Nested / right-associative.
        assert_eq!(eval_str("1 ? 2 : 3 ? 4 : 5", &e).unwrap(), 2);
        assert_eq!(eval_str("0 ? 2 : 0 ? 4 : 5", &e).unwrap(), 5);
    }

    #[test]
    fn calls_and_vars() {
        let e = env();
        assert_eq!(eval_str("twice(L1 + 1)", &e).unwrap(), 8);
        assert!(eval_str("nope(1)", &e).is_err());
        assert!(eval_str("missing_var", &e).is_err());
    }

    #[test]
    fn unary_minus() {
        let e = env();
        assert_eq!(eval_str("-L1 + 1", &e).unwrap(), -2);
        assert_eq!(eval_str("--3", &e).unwrap(), 3);
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = env();
        assert!(eval_str("1 / 0", &e).is_err());
        assert!(eval_str("1 % (L2)", &e).is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        let e = env();
        assert_eq!(eval_str("0 && (1/0)", &e).unwrap(), 0);
        assert_eq!(eval_str("1 || (1/0)", &e).unwrap(), 1);
    }

    #[test]
    fn parse_errors() {
        assert!(parse("1 +").is_err());
        assert!(parse("(1").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("@").is_err());
        assert!(parse("f(1,").is_err());
    }

    #[test]
    fn display_roundtrips() {
        for src in [
            "1 + 2 * 3",
            "(L2 == 0) ? C : (L2 != 0) ? D : E",
            "-x + !y % 3",
            "f(a, b + 1, (c))",
            "a && b || !c",
        ] {
            let e = parse(src).unwrap();
            let printed = format!("{e}");
            assert_eq!(
                parse(&printed).unwrap(),
                e,
                "roundtrip of `{src}` via `{printed}`"
            );
        }
    }
}
