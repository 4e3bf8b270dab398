//! The DSL's front end: source text to class definitions (the AST).
//! Nothing here knows about engines or host bindings.

use super::{derr, DslError};
use crate::expr::{self, Expr};

// ------------------------------------------------------------------- AST --

/// One argument of a dependency target: a value, or (in an output
/// clause only) a range `lo .. hi` that broadcasts to every instance in
/// it, as JDF's `-> C WRITE_C(L1, i, 0 .. n - 1)`.
#[derive(Debug, Clone)]
pub enum Arg {
    One(Expr),
    Range(Expr, Expr),
}

/// Where a dependency clause points.
#[derive(Debug, Clone)]
pub enum DepTarget {
    /// `FLOW CLASS(args)`: another task instance.
    Task {
        remote_flow: String,
        class: String,
        args: Vec<Arg>,
    },
    /// `name(args)`: host-provided data (memory reference).
    Memory { name: String, args: Vec<Expr> },
}

/// One `<-` or `->` clause.
#[derive(Debug, Clone)]
pub struct DepClause {
    pub guard: Option<Expr>,
    pub target: DepTarget,
}

/// Flow directionality keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    Read,
    Write,
    Rw,
}

#[derive(Debug, Clone)]
pub struct FlowDef {
    pub name: String,
    pub mode: FlowMode,
    pub ins: Vec<DepClause>,
    pub outs: Vec<DepClause>,
}

#[derive(Debug, Clone)]
pub struct ClassDef {
    /// 1-based source line of the header, where semantic errors point.
    pub line: usize,
    pub name: String,
    pub params: Vec<String>,
    pub ranges: Vec<(Expr, Expr)>,
    pub placement: Option<Expr>,
    pub flows: Vec<FlowDef>,
    pub priority: Option<Expr>,
    pub body: String,
}

// ---------------------------------------------------------------- parser --

fn err(line: usize, msg: impl Into<String>) -> DslError {
    DslError {
        line,
        msg: msg.into(),
    }
}

/// Parse an expression; a failure blames `line` and names `what`.
fn expr_at(src: &str, line: usize, what: &str) -> Result<Expr, DslError> {
    expr::parse(src).map_err(|e| err(line, format!("bad {what}: {e}")))
}

/// Length of the identifier `s` starts with.
fn ident_len(s: &str) -> usize {
    s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len())
}

/// Byte offsets at which one of `pats` starts outside parentheses.
fn top_level(src: &str, pats: &[&str]) -> Vec<usize> {
    let mut depth = 0;
    let mut at = Vec::new();
    for (i, c) in src.bytes().enumerate() {
        if depth == 0 && pats.iter().any(|p| src[i..].starts_with(p)) {
            at.push(i);
        }
        match c {
            b'(' => depth += 1,
            b')' => depth -= 1,
            _ => {}
        }
    }
    at
}

/// `src` cut at the top-level occurrences of `pat`.
fn split_top<'a>(src: &'a str, pat: &str) -> Vec<&'a str> {
    let mut start = 0;
    let mut out = Vec::new();
    for i in top_level(src, &[pat]) {
        out.push(&src[start..i]);
        start = i + pat.len();
    }
    out.push(&src[start..]);
    out
}

/// `lo .. hi`, if `src` is a range.
fn range(src: &str, line: usize) -> Result<Option<(Expr, Expr)>, DslError> {
    match split_top(src, "..")[..] {
        [_] => Ok(None),
        [lo, hi] => Ok(Some((
            expr_at(lo, line, "range")?,
            expr_at(hi, line, "range")?,
        ))),
        _ => Err(err(line, format!("bad range `{src}`"))),
    }
}

/// Parse a comma-separated argument list (top-level commas only).
fn parse_args(src: &str, line: usize) -> Result<Vec<Arg>, DslError> {
    if src.trim().is_empty() {
        return Ok(Vec::new());
    }
    (split_top(src, ",").into_iter())
        .map(|a| match range(a, line)? {
            Some((lo, hi)) => Ok(Arg::Range(lo, hi)),
            None => Ok(Arg::One(expr_at(a, line, "argument")?)),
        })
        .collect()
}

/// Parse one dep clause body: `[(guard) ?] FLOW CLASS(args)` or
/// `[(guard) ?] name(args)`.
fn parse_clause(src: &str, line: usize) -> Result<DepClause, DslError> {
    let src = src.trim();
    // A leading parenthesized group followed by `?` is the guard.
    let guarded = src.strip_prefix('(').and_then(|inner| {
        let close = *top_level(inner, &[")"]).first()?;
        let rest = inner[close + 1..].trim_start().strip_prefix('?')?;
        Some((&inner[..close], rest.trim_start()))
    });
    let (guard, rest) = match guarded {
        Some((g, rest)) => (Some(expr_at(g, line, "guard")?), rest),
        None => (None, src),
    };
    let n = ident_len(rest);
    if n == 0 {
        return derr(line, format!("expected a dependency, got `{rest}`"));
    }
    let (first, after) = (&rest[..n], rest[n..].trim_start());
    let args = |s: &str| match s.strip_prefix('(').and_then(|t| t.strip_suffix(')')) {
        Some(a) => parse_args(a, line),
        None => derr(line, format!("expected `(args)` in `{rest}`")),
    };
    let target = if after.starts_with('(') {
        // Memory reference: first(args).
        let args = (args(after)?.into_iter())
            .map(|a| match a {
                Arg::One(e) => Ok(e),
                Arg::Range(..) => derr(line, "a data reference takes no range"),
            })
            .collect::<Result<_, _>>()?;
        DepTarget::Memory {
            name: first.to_string(),
            args,
        }
    } else {
        // Task reference: FLOW CLASS(args).
        let m = ident_len(after);
        DepTarget::Task {
            remote_flow: first.to_string(),
            class: after[..m].to_string(),
            args: args(after[m..].trim_start())?,
        }
    };
    Ok(DepClause { guard, target })
}

/// Parse a whole program into class definitions.
pub fn parse(src: &str) -> Result<Vec<ClassDef>, DslError> {
    let mut classes: Vec<ClassDef> = Vec::new();
    let mut cur: Option<ClassDef> = None;
    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split("//").next().unwrap().trim();
        if text.is_empty() {
            continue;
        }
        let Some(def) = &mut cur else {
            // Expect a class header: NAME(p1, p2).
            let n = ident_len(text);
            let params = text[n..]
                .trim()
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'));
            let Some(params) = params.filter(|_| n > 0) else {
                return derr(line, format!("expected class header, got `{text}`"));
            };
            let params: Vec<String> = (params.split(','))
                .map(|p| p.trim().to_string())
                .filter(|p| !p.is_empty())
                .collect();
            if params.len() > crate::MAX_PARAMS {
                return derr(line, "too many parameters (max 4)");
            }
            cur = Some(ClassDef {
                line,
                name: text[..n].to_string(),
                params,
                ranges: Vec::new(),
                placement: None,
                flows: Vec::new(),
                priority: None,
                body: String::new(),
            });
            continue;
        };
        let next_param = def.params.get(def.ranges.len());
        if let Some(rest) = text.strip_prefix("BODY") {
            def.body = rest.trim().to_string();
            if def.body.is_empty() {
                return derr(line, "BODY needs a name");
            }
            if let Some(p) = next_param {
                let name = &def.name;
                return derr(
                    line,
                    format!("class {name} has no range for `{p}`: ranges precede BODY"),
                );
            }
            classes.extend(cur.take());
        } else if let Some(rest) = text.strip_prefix(':') {
            def.placement = Some(expr_at(rest, line, "placement")?);
        } else if let Some(rest) = text.strip_prefix(';') {
            def.priority = Some(expr_at(rest, line, "priority")?);
        } else if text.starts_with("<-") || text.starts_with("->") {
            // Continuation of the last flow.
            let flow = def.flows.last_mut();
            parse_deps(
                text,
                flow.ok_or_else(|| err(line, "dependency before any flow"))?,
                line,
            )?;
        } else if let Some((mode, rest)) = [
            ("READ", FlowMode::Read),
            ("WRITE", FlowMode::Write),
            ("RW", FlowMode::Rw),
        ]
        .into_iter()
        .find_map(|(kw, mode)| {
            Some((
                mode,
                text.strip_prefix(kw)?
                    .strip_prefix(char::is_whitespace)?
                    .trim(),
            ))
        }) {
            let n = ident_len(rest);
            if n == 0 {
                return derr(line, "flow needs a name");
            }
            let mut flow = FlowDef {
                name: rest[..n].to_string(),
                mode,
                ins: Vec::new(),
                outs: Vec::new(),
            };
            if !rest[n..].trim().is_empty() {
                parse_deps(rest[n..].trim(), &mut flow, line)?;
            }
            def.flows.push(flow);
        } else if let Some((lhs, rhs)) = text.split_once('=').filter(|_| next_param.is_some()) {
            // Range line: PARAM = lo .. hi, in parameter order.
            let p = next_param.unwrap();
            if lhs.trim() != p {
                return derr(
                    line,
                    format!("ranges must be declared in parameter order (expected `{p}`)"),
                );
            }
            let r = range(rhs, line)?.ok_or_else(|| err(line, "expected `lo .. hi`"))?;
            def.ranges.push(r);
        } else {
            return derr(line, format!("unrecognized line `{text}`"));
        }
    }
    match cur {
        Some(def) => derr(def.line, format!("class {} has no BODY line", def.name)),
        None => Ok(classes),
    }
}

/// Parse `<- clause`, `-> clause` sequences (one or more on a line).
fn parse_deps(src: &str, flow: &mut FlowDef, line: usize) -> Result<(), DslError> {
    let marks = top_level(src, &["<-", "->"]);
    if marks.first() != Some(&0) {
        return derr(line, format!("expected `<-` or `->` in `{src}`"));
    }
    for (j, &pos) in marks.iter().enumerate() {
        let end = marks.get(j + 1).copied().unwrap_or(src.len());
        let clause = parse_clause(&src[pos + 2..end], line)?;
        if src[pos..].starts_with("<-") {
            // WRITE flows own fresh data; they may be seeded from memory
            // (a data reference) but not from another task.
            if let DepTarget::Task { args, .. } = &clause.target {
                if flow.mode == FlowMode::Write {
                    return derr(
                        line,
                        format!("WRITE flow {} cannot have task inputs", flow.name),
                    );
                }
                if args.iter().any(|a| matches!(a, Arg::Range(..))) {
                    return derr(line, "a range argument broadcasts: outputs only");
                }
            }
            flow.ins.push(clause);
        } else if flow.mode == FlowMode::Read {
            return derr(line, format!("READ flow {} cannot have outputs", flow.name));
        } else {
            flow.outs.push(clause);
        }
    }
    Ok(())
}
