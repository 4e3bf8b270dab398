//! The DSL's back end, run by build scripts: a parsed text becomes Rust,
//! as PaRSEC's jdf2c turns a JDF into C. Each class is one struct and one
//! [`Class`](super::Class) impl whose domain, guards, dependencies,
//! priority and placement are plain Rust over the key's parameters.
//!
//! Names resolve here, once: a parameter to its slot `p[i]`, `P` to the
//! node count, a declared global to the host's field of that name, a call
//! of a declared host function to the host's method of that name; classes
//! and flows to ids. Class `i` of the text is the struct `Ci`. The
//! generated file expects a type `Host` in scope at its `include!` site,
//! which implements [`Host`](super::Host) and has those fields and
//! methods. Each text becomes `graph(host, ctx, external_roots)`.

use super::parse::{parse, Arg, ClassDef, DepClause, DepTarget};
use super::{derr, DslError};
use crate::expr::{BinOp, Expr, UnOp};
use std::collections::HashMap;
use std::fmt::Write;

/// A piece of Rust; `atom` if it can be an operand without parentheses.
struct Frag {
    s: String,
    atom: bool,
}

fn atom(s: String) -> Frag {
    Frag { s, atom: true }
}

fn compound(s: String) -> Frag {
    Frag { s, atom: false }
}

impl Frag {
    /// As the operand of a binary operator.
    fn operand(self) -> String {
        if self.atom {
            self.s
        } else {
            format!("({})", self.s)
        }
    }
}

/// `a op b`.
fn infix(op: BinOp, a: Frag, b: Frag) -> Frag {
    compound(format!("{} {} {}", a.operand(), op.symbol(), b.operand()))
}

/// `!e` without `!`: a constant folded, a comparison flipped, `&&` and
/// `||` by De Morgan, a ternary's arms negated, a number `e == 0`.
fn negate(e: &Expr) -> Expr {
    use BinOp::*;
    let bin = |op, a, b| Expr::Binary(op, Box::new(a), Box::new(b));
    match e {
        Expr::Int(v) => Expr::Int(i64::from(*v == 0)),
        Expr::Unary(UnOp::Not, a) => (**a).clone(),
        Expr::Binary(op @ (And | Or), a, b) => {
            bin(if *op == And { Or } else { And }, negate(a), negate(b))
        }
        Expr::Binary(op @ (Eq | Ne | Lt | Le | Gt | Ge), a, b) => {
            let op = match op {
                Eq => Ne,
                Ne => Eq,
                Lt => Ge,
                Ge => Lt,
                Gt => Le,
                _ => Gt,
            };
            bin(op, (**a).clone(), (**b).clone())
        }
        Expr::Ternary(c, a, b) => {
            Expr::Ternary(c.clone(), Box::new(negate(a)), Box::new(negate(b)))
        }
        _ => bin(Eq, e.clone(), Expr::Int(0)),
    }
}

/// `if c { a } else { b }`, an `else if` when `b` is itself one.
fn ternary(c: Frag, a: Frag, b: Frag) -> Frag {
    let b = match b.s.starts_with("if ") {
        true => b.s,
        false => format!("{{ {} }}", b.s),
    };
    compound(format!("if {} {{ {} }} else {b}", c.s, a.s))
}

/// Expression translation.
impl Emit<'_> {
    /// `e` as an `i64`.
    fn int(&self, e: &Expr) -> Result<Frag, String> {
        use BinOp::*;
        Ok(match e {
            Expr::Int(v) => atom(v.to_string()),
            Expr::Var(n) => atom(self.var(n)?),
            Expr::Call(f, args) => {
                match self.funcs.iter().find(|(name, _)| name == f) {
                    None => return Err(format!("unknown function `{f}`")),
                    Some(&(_, n)) if n != args.len() => {
                        return Err(format!("`{f}` takes {n} args, {} given", args.len()))
                    }
                    _ => {}
                }
                let args = (args.iter().map(|a| Ok(self.int(a)?.s)))
                    .collect::<Result<Vec<_>, String>>()?;
                atom(format!("self.0.host.{f}({})", args.join(", ")))
            }
            Expr::Unary(UnOp::Neg, a) => match **a {
                Expr::Int(v) => compound(format!("-{v}")),
                _ => atom(format!("i64::wrapping_neg({})", self.int(a)?.s)),
            },
            Expr::Binary(op @ (Add | Sub | Mul), a, b) => {
                let f = match op {
                    Add => "wrapping_add",
                    Sub => "wrapping_sub",
                    _ => "wrapping_mul",
                };
                atom(format!("i64::{f}({}, {})", self.int(a)?.s, self.int(b)?.s))
            }
            Expr::Binary(op @ (Div | Mod), a, b) => infix(*op, self.int(a)?, self.int(b)?),
            Expr::Ternary(c, a, b) => ternary(self.cond(c)?, self.int(a)?, self.int(b)?),
            _ => atom(format!("i64::from({})", self.cond(e)?.s)),
        })
    }

    /// `e` as a `bool` (nonzero).
    fn cond(&self, e: &Expr) -> Result<Frag, String> {
        use BinOp::*;
        Ok(match e {
            Expr::Binary(op @ (Eq | Ne | Lt | Le | Gt | Ge), a, b) => {
                infix(*op, self.int(a)?, self.int(b)?)
            }
            Expr::Binary(op @ (And | Or), a, b) => infix(*op, self.cond(a)?, self.cond(b)?),
            Expr::Unary(UnOp::Not, a) => self.cond(&negate(a))?,
            Expr::Ternary(c, a, b) => ternary(self.cond(c)?, self.cond(a)?, self.cond(b)?),
            Expr::Int(v) => atom((*v != 0).to_string()),
            _ => compound(format!("{} != 0", self.int(e)?.operand())),
        })
    }

    fn var(&self, n: &str) -> Result<String, String> {
        if let Some(i) = self.def.params[..self.params].iter().position(|p| p == n) {
            Ok(format!("p[{i}]"))
        } else if n == "P" {
            Ok("self.0.nodes".into())
        } else if self.globals.contains(&n) {
            Ok(format!("self.0.host.{n}"))
        } else {
            Err(format!("unbound variable `{n}`"))
        }
    }
}

/// A condition that may be known at emit time.
enum Cond {
    Always,
    Never,
    When(Expr),
}

/// Whether the first clause whose guard holds (`None`: always) is one
/// that was `picked`: the text's if/else chain over the clauses of one
/// flow, as one short-circuit condition.
fn first_match(clauses: &[(Option<&Expr>, bool)]) -> Cond {
    let or = |a: &Expr, b: Expr| Expr::Binary(BinOp::Or, Box::new(a.clone()), Box::new(b));
    let and = |a: Expr, b: Expr| Expr::Binary(BinOp::And, Box::new(a), Box::new(b));
    let mut acc = Cond::Never;
    for &(guard, picked) in clauses.iter().rev() {
        acc = match (guard, picked, acc) {
            (None, true, _) | (Some(_), true, Cond::Always) => Cond::Always,
            (None, false, _) | (Some(_), false, Cond::Never) => Cond::Never,
            (Some(g), true, Cond::Never) => Cond::When(g.clone()),
            (Some(g), true, Cond::When(r)) => Cond::When(or(g, r)),
            (Some(g), false, Cond::Always) => Cond::When(negate(g)),
            (Some(g), false, Cond::When(r)) => Cond::When(and(negate(g), r)),
        };
    }
    acc
}

/// Rust for the text `src`, whose free names other than parameters and
/// `P` must be among `globals`, and whose calls must be of `funcs`, each
/// a host function's name and arity. An error carries the line of the
/// class it is in (or of the syntax error).
pub fn emit(src: &str, globals: &[&str], funcs: &[(&str, usize)]) -> Result<String, DslError> {
    let defs = parse(src)?;
    let mut ids = HashMap::new();
    for (i, c) in defs.iter().enumerate() {
        if ids.insert(c.name.as_str(), i).is_some() {
            return derr(c.line, format!("duplicate class `{}`", c.name));
        }
    }
    let mut out = String::from(
        "// Generated by `ptg::dsl::emit` from a PTG text: edit the text, not this file.\n\n",
    );
    let classes: Vec<String> = (0..defs.len())
        .map(|i| format!("::std::sync::Arc::new(C{i}(b.clone()))"))
        .collect();
    let _ = writeln!(
        out,
        "/// The text's classes, in text order, over `host`.
pub(super) fn graph(host: Host, ctx: ::std::sync::Arc<dyn ::ptg::GraphCtx>, external_roots: bool) -> ::ptg::TaskGraph {{
    let b = ::std::sync::Arc::new(::ptg::dsl::Bound {{ host, nodes: ctx.nodes() as i64, external_roots }});
    let classes: Vec<::std::sync::Arc<dyn ::ptg::TaskClass>> = vec![{}];
    ::ptg::TaskGraph::new(classes, ctx)
}}",
        classes.join(", ")
    );
    for (id, def) in defs.iter().enumerate() {
        let class = Emit {
            defs: &defs,
            ids: &ids,
            def,
            globals,
            funcs,
            params: def.params.len(),
        };
        let code = class.class(id).map_err(|msg| DslError {
            line: def.line,
            msg: format!("{}: {msg}", def.name),
        })?;
        out.push_str(&code);
    }
    Ok(out)
}

/// For a build script: compile the texts at `paths`, relative to the
/// package, each to `OUT_DIR/<stem>.rs` (see [`emit`]). A DSL error
/// fails the build with `<path>:<line>: <msg>`.
pub fn build(paths: &[&str], globals: &[&str], funcs: &[(&str, usize)]) {
    let var =
        |v: &str| std::path::PathBuf::from(std::env::var(v).expect("run from a build script"));
    let (dir, out) = (var("CARGO_MANIFEST_DIR"), var("OUT_DIR"));
    for path in paths {
        println!("cargo:rerun-if-changed={path}");
        let src = std::fs::read_to_string(dir.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rust = emit(&src, globals, funcs).unwrap_or_else(|e| {
            eprintln!("error: {path}:{}: {}", e.line, e.msg);
            std::process::exit(1)
        });
        let stem = std::path::Path::new(path).file_stem().expect("a file name");
        let file = out.join(stem).with_extension("rs");
        std::fs::write(&file, rust).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
    }
}

/// One class being emitted, with the declared globals and host functions
/// and the number of its parameters in scope.
#[derive(Clone, Copy)]
struct Emit<'a> {
    defs: &'a [ClassDef],
    ids: &'a HashMap<&'a str, usize>,
    def: &'a ClassDef,
    globals: &'a [&'a str],
    funcs: &'a [(&'a str, usize)],
    params: usize,
}

const KEY: &str = "&[i64; ::ptg::MAX_PARAMS]";

impl Emit<'_> {
    /// A task target as `(class id, flow id)`, its arity checked.
    fn target(&self, class: &str, flow: &str, nargs: usize) -> Result<(usize, usize), String> {
        let &ti = (self.ids.get(class)).ok_or_else(|| format!("unknown class `{class}`"))?;
        let t = &self.defs[ti];
        let fi = (t.flows.iter().position(|f| f.name == flow))
            .ok_or_else(|| format!("class `{class}` has no flow `{flow}`"))?;
        match t.params.len() {
            n if n == nargs => Ok((ti, fi)),
            n => Err(format!("`{class}` takes {n} params, {nargs} given")),
        }
    }

    fn class(&self, id: usize) -> Result<String, String> {
        let def = self.def;
        let ty = format!("C{id}");
        let mut fns = vec![self.each(id)?];
        let (inputs, roots) = self.inputs()?;
        fns.push(format!(
            "fn inputs(&self, p: {KEY}) -> usize {{ {inputs} }}"
        ));
        let outputs = self.outputs()?;
        if !outputs.is_empty() {
            fns.push(format!(
                "fn outputs(&self, p: {KEY}, out: &mut Vec<::ptg::Dep>) {{\n{outputs}    }}"
            ));
        }
        if let Some(e) = &def.priority {
            fns.push(format!(
                "fn prio(&self, p: {KEY}) -> i64 {{ {} }}",
                self.int(e)?.s
            ));
        }
        if let Some(e) = &def.placement {
            let e = self.int(e)?.s;
            fns.push(format!(
                "fn place(&self, p: {KEY}) -> usize {{ i64::rem_euclid({e}, self.0.nodes.max(1)) as usize }}"
            ));
        }
        let memory = self.memory()?;
        if !memory.is_empty() {
            fns.push(format!(
                "fn memory(&self, p: {KEY}, inputs: &mut [Option<::ptg::Payload>]) {{\n{memory}    }}"
            ));
        }
        // A key that a body does not read is not named.
        let fns: Vec<String> = (fns.into_iter())
            .map(|f| match f.contains("p[") {
                true => f,
                false => f.replacen("(&self, p:", "(&self, _p:", 1),
            })
            .collect();
        Ok(format!(
            "
/// `{name}({params})`, `BODY {body}`.
struct {ty}(::std::sync::Arc<::ptg::dsl::Bound<Host>>);

impl ::ptg::dsl::Class for {ty} {{
    type Host = Host;
    const NAME: &'static str = {name:?};
    const BODY: &'static str = {body:?};
    const FLOWS: usize = {flows};
    const ROOTS: bool = {roots};
    fn bound(&self) -> &::ptg::dsl::Bound<Host> {{
        &self.0
    }}
    {fns}
}}
",
            name = def.name,
            params = def.params.join(", "),
            body = def.body,
            flows = def.flows.len(),
            fns = fns.join("\n    "),
        ))
    }

    /// The domain walk: one nested loop per parameter, each range reading
    /// only the parameters before it.
    fn each(&self, id: usize) -> Result<String, String> {
        let n = self.def.params.len();
        let key = |params: &str| format!("f(::ptg::TaskKey {{ class: {id}, params: {params} }});");
        if n == 0 {
            let push = key("[0; ::ptg::MAX_PARAMS]");
            return Ok(format!(
                "fn each(&self, group: Option<i64>, f: &mut dyn FnMut(::ptg::TaskKey)) {{
        if group.is_none_or(|g| g == 0) {{
            {push}
        }}
    }}"
            ));
        }
        let mut body = String::from("let mut p = [0; ::ptg::MAX_PARAMS];\n");
        for (d, (lo, hi)) in self.def.ranges.iter().enumerate() {
            let s = Emit { params: d, ..*self };
            let pad = "    ".repeat(d + 2);
            let (lo, hi) = (s.int(lo)?.s, s.int(hi)?.s);
            let _ = writeln!(body, "{pad}let (lo, hi) = ({lo}, {hi});");
            let range = match d {
                0 => "group.map_or(lo, |g| lo.max(g))..=group.map_or(hi, |g| hi.min(g))",
                _ => "lo..=hi",
            };
            let _ = writeln!(body, "{pad}for v in {range} {{\n{pad}    p[{d}] = v;");
        }
        let _ = writeln!(body, "{}{}", "    ".repeat(n + 2), key("p"));
        for d in (0..n).rev() {
            let _ = writeln!(body, "{}}}", "    ".repeat(d + 2));
        }
        Ok(format!(
            "fn each(&self, group: Option<i64>, f: &mut dyn FnMut(::ptg::TaskKey)) {{\n        {body}    }}"
        ))
    }

    /// The number of task inputs: flows whose active input clause is a
    /// task, as a constant plus one term per flow the guards decide; and
    /// whether the constant is zero (so the class may have roots).
    fn inputs(&self) -> Result<(String, bool), String> {
        let (mut fixed, mut terms) = (0, Vec::new());
        for flow in &self.def.flows {
            let mut clauses = Vec::new();
            for DepClause { guard, target } in &flow.ins {
                // Check every name, though the code needs only some.
                guard.as_ref().map(|g| self.cond(g)).transpose()?;
                if let DepTarget::Task {
                    remote_flow,
                    class,
                    args,
                } = target
                {
                    self.target(class, remote_flow, args.len())?;
                    for a in args {
                        match a {
                            Arg::One(e) => self.int(e)?,
                            Arg::Range(lo, hi) => {
                                self.int(lo)?;
                                self.int(hi)?
                            }
                        };
                    }
                }
                clauses.push((guard.as_ref(), matches!(target, DepTarget::Task { .. })));
            }
            match first_match(&clauses) {
                Cond::Always => fixed += 1,
                Cond::Never => {}
                Cond::When(e) => terms.push(format!("usize::from({})", self.cond(&e)?.s)),
            }
        }
        if fixed > 0 || terms.is_empty() {
            terms.insert(0, fixed.to_string());
        }
        Ok((terms.join(" + "), fixed == 0))
    }

    /// Every output clause in text order: a guarded push, or one push per
    /// instance of the ranges it broadcasts to (the last argument running
    /// fastest).
    fn outputs(&self) -> Result<String, String> {
        let mut code = String::new();
        for (fi, flow) in self.def.flows.iter().enumerate() {
            for clause in &flow.outs {
                let DepTarget::Task {
                    remote_flow,
                    class,
                    args,
                } = &clause.target
                else {
                    continue; // output to memory: a sink, nothing to schedule
                };
                let (ci, di) = self.target(class, remote_flow, args.len())?;
                let guard = clause.guard.as_ref().map(|g| self.cond(g)).transpose()?;
                let (mut lets, mut params, mut loops) = (Vec::new(), Vec::new(), 0);
                for (i, a) in args.iter().enumerate() {
                    match a {
                        Arg::One(e) => params.push(self.int(e)?.s),
                        Arg::Range(lo, hi) => {
                            let (lo, hi) = (self.int(lo)?.s, self.int(hi)?.s);
                            lets.push(format!("let (lo{i}, hi{i}) = ({lo}, {hi});"));
                            params.push(format!("r{i}"));
                            loops += 1;
                        }
                    }
                }
                params.resize(crate::MAX_PARAMS, "0".into());
                let mut stmt = format!(
                    "out.push(::ptg::Dep {{ src_flow: {fi}, dst: ::ptg::TaskKey {{ class: {ci}, params: [{}] }}, dst_flow: {di} }});",
                    params.join(", ")
                );
                for (i, a) in args.iter().enumerate().rev() {
                    if let Arg::Range(..) = a {
                        stmt = format!("for r{i} in lo{i}..=hi{i} {{ {stmt} }}");
                    }
                }
                lets.push(stmt);
                let body = lets.join(" ");
                let _ = match (guard, loops) {
                    (Some(g), _) => writeln!(code, "        if {} {{ {body} }}", g.s),
                    (None, 0) => writeln!(code, "        {body}"),
                    (None, _) => writeln!(code, "        {{ {body} }}"),
                };
            }
        }
        Ok(code)
    }

    /// Memory inputs: a flow still empty whose active input clause is a
    /// data reference asks the host for it.
    fn memory(&self) -> Result<String, String> {
        let mut code = String::new();
        for (fi, flow) in self.def.flows.iter().enumerate() {
            for (k, clause) in flow.ins.iter().enumerate() {
                let DepTarget::Memory { name, args } = &clause.target else {
                    continue;
                };
                let picks: Vec<_> = (flow.ins.iter().enumerate())
                    .map(|(j, c)| (c.guard.as_ref(), j == k))
                    .collect();
                let when = match first_match(&picks) {
                    Cond::Always => String::new(),
                    Cond::Never => continue,
                    Cond::When(e) => format!(" && ({})", self.cond(&e)?.s),
                };
                let args = args
                    .iter()
                    .map(|a| Ok(self.int(a)?.s))
                    .collect::<Result<Vec<_>, String>>()?;
                let _ = writeln!(
                    code,
                    "        if inputs[{fi}].is_none(){when} {{ inputs[{fi}] = ::ptg::dsl::Host::data(&self.0.host, {name:?}, &[{}]); }}",
                    args.join(", ")
                );
            }
        }
        Ok(code)
    }
}
