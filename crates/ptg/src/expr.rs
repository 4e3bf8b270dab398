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
//! Two evaluators share the tree. [`compile`] is the one the DSL runs: it
//! resolves names once — parameters to slots of the task key, globals to
//! folded constants, host functions to the functions themselves — and
//! returns a [`Compiled`] closure that does no lookup and no allocation.
//! [`eval`] walks the tree against a [`MapEnv`]; it is the reference the
//! compiler and the folder are tested against.

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

// --------------------------------------------------- printing / folding --

impl BinOp {
    fn symbol(self) -> &'static str {
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

/// Constant-fold an expression: subtrees without free variables or calls
/// collapse to literals, guards with constant conditions select a branch,
/// `&&`/`||` short-circuit on constant sides, and `x / 1`, `x % 1`
/// simplify. Division/modulo by a constant zero is left unfolded (it must
/// still error at evaluation time), and `x % 1` keeps an `x` that may
/// divide by zero. Names are taken to be bound: [`compile`] checks them
/// before it folds. With the globals substituted first, this is what
/// turns a variant's `L2 % h != 0` into a constant when `h` is 1.
pub fn fold(e: &Expr) -> Expr {
    match e {
        Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Call(n, args) => Expr::Call(n.clone(), args.iter().map(fold).collect()),
        Expr::Unary(op, a) => {
            let a = fold(a);
            if let Expr::Int(v) = a {
                return Expr::Int(match op {
                    UnOp::Neg => -v,
                    UnOp::Not => (v == 0) as i64,
                });
            }
            Expr::Unary(*op, Box::new(a))
        }
        Expr::Binary(op, a, b) => {
            let a = fold(a);
            let b = fold(b);
            match (op, &a, &b) {
                // Full constant folding (guarding / and % against zero).
                (_, Expr::Int(x), Expr::Int(y)) => {
                    let v = match op {
                        BinOp::Add => Some(x.wrapping_add(*y)),
                        BinOp::Sub => Some(x.wrapping_sub(*y)),
                        BinOp::Mul => Some(x.wrapping_mul(*y)),
                        BinOp::Div => (*y != 0).then(|| x / y),
                        BinOp::Mod => (*y != 0).then(|| x % y),
                        BinOp::Eq => Some((x == y) as i64),
                        BinOp::Ne => Some((x != y) as i64),
                        BinOp::Lt => Some((x < y) as i64),
                        BinOp::Le => Some((x <= y) as i64),
                        BinOp::Gt => Some((x > y) as i64),
                        BinOp::Ge => Some((x >= y) as i64),
                        BinOp::And => Some((*x != 0 && *y != 0) as i64),
                        BinOp::Or => Some((*x != 0 || *y != 0) as i64),
                    };
                    match v {
                        Some(v) => Expr::Int(v),
                        None => Expr::Binary(*op, Box::new(a), Box::new(b)),
                    }
                }
                // Short circuits on a constant left side; one that does
                // not decide leaves the right side's truth value.
                (BinOp::And, Expr::Int(0), _) => Expr::Int(0),
                (BinOp::Or, Expr::Int(x), _) if *x != 0 => Expr::Int(1),
                (BinOp::And, Expr::Int(_), _) | (BinOp::Or, Expr::Int(0), _) => truth(b),
                // Identities.
                (BinOp::Add, Expr::Int(0), _) => b,
                (BinOp::Add, _, Expr::Int(0)) => a,
                (BinOp::Sub, _, Expr::Int(0)) => a,
                (BinOp::Mul, Expr::Int(1), _) => b,
                (BinOp::Mul, _, Expr::Int(1)) => a,
                (BinOp::Div, _, Expr::Int(1)) => a,
                (BinOp::Mod, _, Expr::Int(1)) if !may_fail(&a) => Expr::Int(0),
                _ => Expr::Binary(*op, Box::new(a), Box::new(b)),
            }
        }
        Expr::Ternary(c, a, b) => {
            let c = fold(c);
            if let Expr::Int(v) = c {
                return if v != 0 { fold(a) } else { fold(b) };
            }
            Expr::Ternary(Box::new(c), Box::new(fold(a)), Box::new(fold(b)))
        }
    }
}

/// `e` as a `0`/`1` truth value: itself when it already is one.
fn truth(e: Expr) -> Expr {
    let boolean = match &e {
        Expr::Int(v) => *v == 0 || *v == 1,
        Expr::Unary(UnOp::Not, _) => true,
        Expr::Binary(op, _, _) => !matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        ),
        _ => false,
    };
    if boolean {
        e
    } else {
        Expr::Binary(BinOp::Ne, Box::new(e), Box::new(Expr::Int(0)))
    }
}

/// Whether evaluating `e` can fail: it divides by something other than a
/// nonzero constant.
fn may_fail(e: &Expr) -> bool {
    match e {
        Expr::Int(_) | Expr::Var(_) => false,
        Expr::Call(_, args) => args.iter().any(may_fail),
        Expr::Unary(_, a) => may_fail(a),
        Expr::Binary(op, a, b) => {
            let divides =
                matches!(op, BinOp::Div | BinOp::Mod) && !matches!(**b, Expr::Int(y) if y != 0);
            divides || may_fail(a) || may_fail(b)
        }
        Expr::Ternary(c, a, b) => may_fail(c) || may_fail(a) || may_fail(b),
    }
}

// ------------------------------------------------------------ compilation --

/// Most arguments a host function call may take (they are gathered on
/// the stack).
pub const MAX_CALL_ARGS: usize = 4;

type Node = Box<dyn Fn(&[i64]) -> Option<i64> + Send + Sync>;

/// A compiled expression over a task's parameter values. Leaves —
/// constants, affine functions of one parameter, a parameter divided or
/// reduced by a constant: most priorities, placements and dependency
/// arguments, `nchains - L1 + 5 * P` or `L2 / 2` — evaluate inline;
/// every other node is one closure. `None` is a division or modulo by
/// zero, where [`eval`] reports an error.
pub enum Compiled {
    /// A constant, globals included.
    Const(i64),
    /// `scale * params[slot] + offset`, in wrapping arithmetic like the
    /// operators it folds.
    Affine {
        slot: usize,
        scale: i64,
        offset: i64,
    },
    /// `params[slot] / div`, or `params[slot] % div` when `rem`, for a
    /// nonzero constant `div`.
    DivMod { slot: usize, div: i64, rem: bool },
    /// Anything else.
    Node(Node),
}

impl Compiled {
    /// Value under parameter values `params`.
    #[inline(always)]
    pub fn eval(&self, params: &[i64]) -> Option<i64> {
        match self {
            Compiled::Node(f) => f(params),
            leaf => Some(leaf.leaf(params)),
        }
    }

    #[inline(always)]
    fn leaf(&self, params: &[i64]) -> i64 {
        match *self {
            Compiled::Const(v) => v,
            Compiled::Affine {
                slot,
                scale,
                offset,
            } => scale.wrapping_mul(params[slot]).wrapping_add(offset),
            Compiled::DivMod { slot, div, rem } if rem => params[slot] % div,
            Compiled::DivMod { slot, div, .. } => params[slot] / div,
            Compiled::Node(_) => unreachable!("not a leaf"),
        }
    }

    /// `(slot, scale, offset)` of an affine or constant expression.
    fn affine(&self) -> Option<(usize, i64, i64)> {
        match *self {
            Compiled::Const(v) => Some((0, 0, v)),
            Compiled::Affine {
                slot,
                scale,
                offset,
            } => Some((slot, scale, offset)),
            _ => None,
        }
    }
}

/// `scale * params[slot] + offset`, a constant when `scale` is 0.
fn affine(slot: usize, scale: i64, offset: i64) -> Compiled {
    match scale {
        0 => Compiled::Const(offset),
        _ => Compiled::Affine {
            slot,
            scale,
            offset,
        },
    }
}

/// Compile `e` for tasks whose parameter `i` is named `params[i]`. Every
/// other name resolves in `globals` — variables to their values, which
/// then fold, functions to the functions themselves — and an unknown
/// name is an error here rather than at evaluation. Parameters shadow
/// globals. The result agrees with [`eval`] under an environment binding
/// the parameters over `globals`.
pub fn compile(e: &Expr, params: &[String], globals: &MapEnv) -> Result<Compiled, ExprError> {
    lower(&fold(&bind(e, params, globals)?), params, globals)
}

/// Substitute global variables by their values; check every name.
fn bind(e: &Expr, params: &[String], globals: &MapEnv) -> Result<Expr, ExprError> {
    let rec = |x: &Expr| bind(x, params, globals).map(Box::new);
    Ok(match e {
        Expr::Int(_) => e.clone(),
        Expr::Var(n) if params.contains(n) => e.clone(),
        Expr::Var(n) => match globals.var(n) {
            Some(v) => Expr::Int(v),
            None => return err(format!("unbound variable `{n}`"), 0),
        },
        Expr::Call(n, args) => {
            if !globals.funcs.contains_key(n) {
                return err(format!("unknown function `{n}`"), 0);
            }
            if args.len() > MAX_CALL_ARGS {
                return err(format!("`{n}` takes at most {MAX_CALL_ARGS} arguments"), 0);
            }
            let args: Result<Vec<Expr>, _> =
                args.iter().map(|a| bind(a, params, globals)).collect();
            Expr::Call(n.clone(), args?)
        }
        Expr::Unary(op, a) => Expr::Unary(*op, rec(a)?),
        Expr::Binary(op, a, b) => Expr::Binary(*op, rec(a)?, rec(b)?),
        Expr::Ternary(c, a, b) => Expr::Ternary(rec(c)?, rec(a)?, rec(b)?),
    })
}

fn node(f: impl Fn(&[i64]) -> Option<i64> + Send + Sync + 'static) -> Compiled {
    Compiled::Node(Box::new(f))
}

/// Lower a bound, folded tree to leaves and closures.
fn lower(e: &Expr, params: &[String], globals: &MapEnv) -> Result<Compiled, ExprError> {
    let rec = |x: &Expr| lower(x, params, globals);
    Ok(match e {
        Expr::Int(v) => Compiled::Const(*v),
        Expr::Var(n) => affine(params.iter().position(|p| p == n).expect("bound"), 1, 0),
        Expr::Call(n, args) => {
            let f = globals.funcs[n].clone();
            let mut args: Vec<Compiled> = args.iter().map(rec).collect::<Result<_, _>>()?;
            // Calls on one or two leaves, the common case, skip the loop.
            let leaves = !args.iter().any(|a| matches!(a, Compiled::Node(_)));
            match (leaves, args.len()) {
                (true, 1) => {
                    let a = args.remove(0);
                    node(move |p| Some(f(&[a.leaf(p)])))
                }
                (true, 2) => {
                    let (a, b) = (args.remove(0), args.remove(0));
                    node(move |p| Some(f(&[a.leaf(p), b.leaf(p)])))
                }
                _ => node(move |p| {
                    let mut vals = [0i64; MAX_CALL_ARGS];
                    for (v, a) in vals.iter_mut().zip(&args) {
                        *v = a.eval(p)?;
                    }
                    Some(f(&vals[..args.len()]))
                }),
            }
        }
        Expr::Unary(UnOp::Neg, a) => {
            let a = rec(a)?;
            match a.affine() {
                Some((slot, scale, offset)) => {
                    affine(slot, scale.wrapping_neg(), offset.wrapping_neg())
                }
                None => node(move |p| Some(-a.eval(p)?)),
            }
        }
        Expr::Unary(UnOp::Not, a) => {
            let a = rec(a)?;
            node(move |p| Some((a.eval(p)? == 0) as i64))
        }
        Expr::Binary(op, a, b) => binary(*op, rec(a)?, rec(b)?),
        Expr::Ternary(c, a, b) => {
            let (c, a, b) = (rec(c)?, rec(a)?, rec(b)?);
            node(move |p| {
                if c.eval(p)? != 0 {
                    a.eval(p)
                } else {
                    b.eval(p)
                }
            })
        }
    })
}

/// One closure per operator, so the operator is not matched per call;
/// sums, differences and constant multiples of affine operands stay
/// affine, and a parameter over a nonzero constant stays a leaf.
fn binary(op: BinOp, a: Compiled, b: Compiled) -> Compiled {
    if let (Some((i, sa, oa)), Some((j, sb, ob))) = (a.affine(), b.affine()) {
        let one_slot = sa == 0 || sb == 0 || i == j;
        let slot = if sa == 0 { j } else { i };
        match op {
            BinOp::Div | BinOp::Mod if (sa, oa, sb) == (1, 0, 0) && ob != 0 => {
                let (div, rem) = (ob, op == BinOp::Mod);
                return Compiled::DivMod { slot: i, div, rem };
            }
            BinOp::Add if one_slot => {
                return affine(slot, sa.wrapping_add(sb), oa.wrapping_add(ob))
            }
            BinOp::Sub if one_slot => {
                return affine(slot, sa.wrapping_sub(sb), oa.wrapping_sub(ob))
            }
            BinOp::Mul if sa == 0 => return affine(j, sb.wrapping_mul(oa), ob.wrapping_mul(oa)),
            BinOp::Mul if sb == 0 => return affine(i, sa.wrapping_mul(ob), oa.wrapping_mul(ob)),
            _ => {}
        }
    }
    match op {
        BinOp::And => node(move |p| Some((a.eval(p)? != 0 && b.eval(p)? != 0) as i64)),
        BinOp::Or => node(move |p| Some((a.eval(p)? != 0 || b.eval(p)? != 0) as i64)),
        BinOp::Add => strict(a, b, |x, y| Some(x.wrapping_add(y))),
        BinOp::Sub => strict(a, b, |x, y| Some(x.wrapping_sub(y))),
        BinOp::Mul => strict(a, b, |x, y| Some(x.wrapping_mul(y))),
        BinOp::Div => strict(a, b, |x, y| (y != 0).then(|| x / y)),
        BinOp::Mod => strict(a, b, |x, y| (y != 0).then(|| x % y)),
        BinOp::Eq => strict(a, b, |x, y| Some((x == y) as i64)),
        BinOp::Ne => strict(a, b, |x, y| Some((x != y) as i64)),
        BinOp::Lt => strict(a, b, |x, y| Some((x < y) as i64)),
        BinOp::Le => strict(a, b, |x, y| Some((x <= y) as i64)),
        BinOp::Gt => strict(a, b, |x, y| Some((x > y) as i64)),
        BinOp::Ge => strict(a, b, |x, y| Some((x >= y) as i64)),
    }
}

/// A binary operator that evaluates both sides, specialized on leaf
/// operands: a leaf side costs no call.
fn strict(
    a: Compiled,
    b: Compiled,
    f: impl Fn(i64, i64) -> Option<i64> + Copy + Send + Sync + 'static,
) -> Compiled {
    use Compiled::Node;
    match (a, b) {
        (Node(x), Node(y)) => node(move |p| f(x(p)?, y(p)?)),
        (Node(x), b) => node(move |p| f(x(p)?, b.leaf(p))),
        (a, Node(y)) => node(move |p| f(a.leaf(p), y(p)?)),
        (a, b) => node(move |p| f(a.leaf(p), b.leaf(p))),
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

    #[test]
    fn folding_collapses_constants() {
        let f = |s: &str| format!("{}", fold(&parse(s).unwrap()));
        assert_eq!(f("1 + 2 * 3"), "7");
        assert_eq!(f("(1 > 2) ? x : y"), "y");
        assert_eq!(f("0 && f(1)"), "0");
        assert_eq!(f("1 || f(1)"), "1");
        assert_eq!(f("x + 0"), "x");
        assert_eq!(f("1 * x"), "x");
        assert_eq!(f("!(2 == 2)"), "0");
        assert_eq!(f("x / 1"), "x");
        assert_eq!(f("x % 1"), "0");
        assert_eq!(f("1 && (x < y)"), "(x < y)");
        assert_eq!(f("0 || x"), "(x != 0)");
        // Division by constant zero must NOT fold away (runtime error),
        // nor may `% 1` drop an operand that divides by zero.
        assert_eq!(f("1 / 0"), "(1 / 0)");
        assert_eq!(f("(1 / x) % 1"), "((1 / x) % 1)");
    }

    #[test]
    fn folding_preserves_semantics() {
        let e = env();
        for src in [
            "L1 * (2 - 1) + 0",
            "(0 || 1) ? L1 + 2 * 3 : twice(L1)",
            "twice(2 + 3) + size_L2",
            "(L2 == 0) && (3 > 2)",
        ] {
            let parsed = parse(src).unwrap();
            let folded = fold(&parsed);
            assert_eq!(
                eval(&parsed, &e).unwrap(),
                eval(&folded, &e).unwrap(),
                "{src}"
            );
        }
    }

    #[test]
    fn params_shadow_globals() {
        let mut g = MapEnv::new();
        g.set("x", 1).set("y", 10);
        let c = compile(&parse("x + y").unwrap(), &["x".into()], &g).unwrap();
        assert_eq!(c.eval(&[2]), Some(12));
    }

    #[test]
    fn compiling_folds_globals_and_checks_names() {
        let e = env();
        let params = ["L2".to_string()];
        let c = compile(&parse("(L1 + 2) * size_L2").unwrap(), &params, &e).unwrap();
        assert!(matches!(c, Compiled::Const(50)));
        // `h = 1` makes the segment test constant (the variants rely on it).
        let mut one = env();
        one.set("h", 1);
        let c = compile(&parse("L2 % h != 0").unwrap(), &params, &one).unwrap();
        assert!(matches!(c, Compiled::Const(0)));
        let c = compile(&parse("twice(L2) / 0").unwrap(), &params, &e).unwrap();
        assert_eq!(c.eval(&[4]), None, "division by zero");
        for bad in ["nope + 1", "nope(1)", "twice(1, 2, 3, 4, 5)"] {
            assert!(compile(&parse(bad).unwrap(), &params, &e).is_err(), "{bad}");
        }
    }
}
