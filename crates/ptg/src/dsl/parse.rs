//! The DSL's front end: source text to class definitions (the AST), with
//! constant folding. Nothing here knows about engines or host bindings.

use super::{derr, DslError};
use crate::expr::{self, Expr};

// ------------------------------------------------------------------- AST --

/// Where a dependency clause points.
#[derive(Debug, Clone)]
pub(super) enum DepTarget {
    /// `FLOW CLASS(args)`: another task instance.
    Task {
        remote_flow: String,
        class: String,
        args: Vec<Expr>,
    },
    /// `name(args)`: host-provided data (memory reference).
    Memory { name: String, args: Vec<Expr> },
}

/// One `<-` or `->` clause.
#[derive(Debug, Clone)]
pub(super) struct DepClause {
    pub(super) guard: Option<Expr>,
    pub(super) target: DepTarget,
}

/// Flow directionality keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FlowMode {
    Read,
    Write,
    Rw,
}

#[derive(Debug, Clone)]
pub(super) struct FlowDef {
    pub(super) name: String,
    pub(super) mode: FlowMode,
    pub(super) ins: Vec<DepClause>,
    pub(super) outs: Vec<DepClause>,
}

#[derive(Debug, Clone)]
pub(super) struct ClassDef {
    pub(super) name: String,
    pub(super) params: Vec<String>,
    pub(super) ranges: Vec<(Expr, Expr)>,
    pub(super) placement: Option<Expr>,
    pub(super) flows: Vec<FlowDef>,
    pub(super) priority: Option<Expr>,
    pub(super) body: String,
}

// ---------------------------------------------------------------- parser --

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Split `src` at the top-level occurrence of `..` (not inside parens).
fn split_range(src: &str) -> Option<(&str, &str)> {
    let b = src.as_bytes();
    let mut depth = 0;
    let mut i = 0;
    while i + 1 < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'.' if depth == 0 && b[i + 1] == b'.' => {
                return Some((&src[..i], &src[i + 2..]));
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parse one dep clause body: `[(guard) ?] FLOW CLASS(args)` or
/// `[(guard) ?] name(args)`.
fn parse_clause(src: &str, line: usize) -> Result<DepClause, DslError> {
    let src = src.trim();
    let (guard, rest) = if src.starts_with('(') {
        // Find the matching close paren.
        let b = src.as_bytes();
        let mut depth = 0;
        let mut close = None;
        for (i, &c) in b.iter().enumerate() {
            if c == b'(' {
                depth += 1;
            } else if c == b')' {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
        }
        let close = close.ok_or(DslError {
            line,
            msg: "unbalanced parentheses".into(),
        })?;
        let after = src[close + 1..].trim_start();
        if let Some(stripped) = after.strip_prefix('?') {
            let g = expr::parse(&src[1..close]).map_err(|e| DslError {
                line,
                msg: format!("bad guard: {e}"),
            })?;
            (Some(g), stripped.trim_start())
        } else {
            (None, src)
        }
    } else {
        (None, src)
    };

    // rest is `IDENT IDENT(args)` (task) or `IDENT(args)` (memory).
    let ident_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if ident_end == 0 {
        return derr(
            line,
            format!("expected identifier in dependency clause `{rest}`"),
        );
    }
    let first = &rest[..ident_end];
    let after = rest[ident_end..].trim_start();
    if let Some(args_src) = after.strip_prefix('(') {
        // Memory reference: first(args).
        let args_src = args_src.strip_suffix(')').ok_or(DslError {
            line,
            msg: "missing `)` in clause".into(),
        })?;
        let args = parse_args(args_src, line)?;
        return Ok(DepClause {
            guard,
            target: DepTarget::Memory {
                name: first.to_string(),
                args,
            },
        });
    }
    // Task reference: FLOW CLASS(args).
    let ident2_end = after
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    if ident2_end == 0 {
        return derr(
            line,
            format!("expected `FLOW CLASS(args)` or `data(args)` in `{rest}`"),
        );
    }
    let class = &after[..ident2_end];
    let tail = after[ident2_end..].trim_start();
    let args_src = tail
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or(DslError {
            line,
            msg: format!("expected `(args)` after task name `{class}`"),
        })?;
    let args = parse_args(args_src, line)?;
    Ok(DepClause {
        guard,
        target: DepTarget::Task {
            remote_flow: first.to_string(),
            class: class.to_string(),
            args,
        },
    })
}

/// Parse a comma-separated argument list (top-level commas only).
fn parse_args(src: &str, line: usize) -> Result<Vec<Expr>, DslError> {
    let src = src.trim();
    if src.is_empty() {
        return Ok(Vec::new());
    }
    let mut args = Vec::new();
    let mut depth = 0;
    let mut start = 0;
    let b = src.as_bytes();
    for (i, &c) in b.iter().enumerate() {
        match c {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b',' if depth == 0 => {
                args.push(&src[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    args.push(&src[start..]);
    args.into_iter()
        .map(|a| {
            expr::parse(a).map_err(|e| DslError {
                line,
                msg: format!("bad argument: {e}"),
            })
        })
        .collect()
}

/// Parse a whole program into class definitions.
pub(super) fn parse_program(src: &str) -> Result<Vec<ClassDef>, DslError> {
    let mut classes: Vec<ClassDef> = Vec::new();
    let mut cur: Option<ClassDef> = None;

    for (lineno, raw) in src.lines().enumerate() {
        let line = lineno + 1;
        let text = strip_comment(raw).trim();
        if text.is_empty() {
            continue;
        }
        match &mut cur {
            None => {
                // Expect a class header: NAME(p1, p2).
                let open = text.find('(').ok_or(DslError {
                    line,
                    msg: format!("expected class header, got `{text}`"),
                })?;
                let name = text[..open].trim();
                if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                    return derr(line, format!("bad class name `{name}`"));
                }
                let close = text.rfind(')').ok_or(DslError {
                    line,
                    msg: "missing `)` in class header".into(),
                })?;
                let params: Vec<String> = text[open + 1..close]
                    .split(',')
                    .map(|p| p.trim().to_string())
                    .filter(|p| !p.is_empty())
                    .collect();
                if params.len() > crate::MAX_PARAMS {
                    return derr(line, "too many parameters (max 4)");
                }
                cur = Some(ClassDef {
                    name: name.to_string(),
                    params,
                    ranges: Vec::new(),
                    placement: None,
                    flows: Vec::new(),
                    priority: None,
                    body: String::new(),
                });
            }
            Some(def) => {
                if let Some(rest) = text.strip_prefix("BODY") {
                    def.body = rest.trim().to_string();
                    if def.body.is_empty() {
                        return derr(line, "BODY needs a name");
                    }
                    if def.ranges.len() != def.params.len() {
                        return derr(
                            line,
                            format!(
                                "class {} has {} params but {} ranges",
                                def.name,
                                def.params.len(),
                                def.ranges.len()
                            ),
                        );
                    }
                    classes.push(cur.take().unwrap());
                } else if let Some(rest) = text.strip_prefix(':') {
                    let e = expr::parse(rest).map_err(|e| DslError {
                        line,
                        msg: format!("bad placement: {e}"),
                    })?;
                    def.placement = Some(e);
                } else if let Some(rest) = text.strip_prefix(';') {
                    let e = expr::parse(rest).map_err(|e| DslError {
                        line,
                        msg: format!("bad priority: {e}"),
                    })?;
                    def.priority = Some(e);
                } else if text.starts_with("<-") || text.starts_with("->") {
                    // Continuation of the last flow.
                    let flow = def.flows.last_mut().ok_or(DslError {
                        line,
                        msg: "dependency before any flow".into(),
                    })?;
                    parse_flow_deps(text, flow, line)?;
                } else if let Some(rest) = keyword(text, "READ") {
                    def.flows.push(new_flow(rest, FlowMode::Read, line)?);
                } else if let Some(rest) = keyword(text, "WRITE") {
                    def.flows.push(new_flow(rest, FlowMode::Write, line)?);
                } else if let Some(rest) = keyword(text, "RW") {
                    def.flows.push(new_flow(rest, FlowMode::Rw, line)?);
                } else if def.ranges.len() < def.params.len()
                    && text.starts_with(&def.params[def.ranges.len()])
                {
                    // Range line: PARAM = lo .. hi.
                    let eq = text.find('=').ok_or(DslError {
                        line,
                        msg: "expected `=` in range".into(),
                    })?;
                    let lhs = text[..eq].trim();
                    if lhs != def.params[def.ranges.len()] {
                        return derr(
                            line,
                            format!(
                                "ranges must be declared in parameter order (expected `{}`)",
                                def.params[def.ranges.len()]
                            ),
                        );
                    }
                    let (lo, hi) = split_range(&text[eq + 1..]).ok_or(DslError {
                        line,
                        msg: "expected `lo .. hi`".into(),
                    })?;
                    let lo = expr::parse(lo).map_err(|e| DslError {
                        line,
                        msg: format!("bad range: {e}"),
                    })?;
                    let hi = expr::parse(hi).map_err(|e| DslError {
                        line,
                        msg: format!("bad range: {e}"),
                    })?;
                    def.ranges.push((lo, hi));
                } else {
                    return derr(line, format!("unrecognized line `{text}`"));
                }
            }
        }
    }
    if let Some(def) = cur {
        return derr(0, format!("class {} has no BODY line", def.name));
    }
    Ok(classes)
}

fn keyword<'a>(text: &'a str, kw: &str) -> Option<&'a str> {
    let rest = text.strip_prefix(kw)?;
    if rest.starts_with(|c: char| c.is_whitespace()) {
        Some(rest.trim_start())
    } else {
        None
    }
}

fn new_flow(rest: &str, mode: FlowMode, line: usize) -> Result<FlowDef, DslError> {
    // rest = `NAME <- ... -> ...`
    let name_end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    if name_end == 0 {
        return derr(line, "flow needs a name");
    }
    let mut flow = FlowDef {
        name: rest[..name_end].to_string(),
        mode,
        ins: Vec::new(),
        outs: Vec::new(),
    };
    let deps = rest[name_end..].trim();
    if !deps.is_empty() {
        parse_flow_deps(deps, &mut flow, line)?;
    }
    Ok(flow)
}

/// Parse `<- clause`, `-> clause` sequences (one or more on a line).
fn parse_flow_deps(src: &str, flow: &mut FlowDef, line: usize) -> Result<(), DslError> {
    // Split on top-level `<-` / `->` markers.
    let b = src.as_bytes();
    let mut marks: Vec<(usize, bool)> = Vec::new(); // (pos, is_input)
    let mut depth = 0;
    let mut i = 0;
    while i + 1 < b.len() {
        match b[i] {
            b'(' => depth += 1,
            b')' => depth -= 1,
            b'<' if depth == 0 && b[i + 1] == b'-' => marks.push((i, true)),
            b'-' if depth == 0 && b[i + 1] == b'>' => marks.push((i, false)),
            _ => {}
        }
        i += 1;
    }
    if marks.is_empty() || marks[0].0 != 0 {
        return derr(line, format!("expected `<-` or `->` in `{src}`"));
    }
    for (j, &(pos, is_input)) in marks.iter().enumerate() {
        let end = marks.get(j + 1).map(|&(p, _)| p).unwrap_or(src.len());
        let clause = parse_clause(&src[pos + 2..end], line)?;
        if is_input {
            // WRITE flows own fresh data; they may be seeded from memory
            // (a data reference) but not from another task.
            if flow.mode == FlowMode::Write && matches!(clause.target, DepTarget::Task { .. }) {
                return derr(
                    line,
                    format!("WRITE flow {} cannot have task inputs", flow.name),
                );
            }
            flow.ins.push(clause);
        } else {
            if flow.mode == FlowMode::Read {
                return derr(line, format!("READ flow {} cannot have outputs", flow.name));
            }
            flow.outs.push(clause);
        }
    }
    Ok(())
}

/// Constant-fold all expressions of a parsed class.
pub(super) fn fold_class(mut c: ClassDef) -> ClassDef {
    let fold_clause = |cl: &mut DepClause| {
        if let Some(g) = &cl.guard {
            cl.guard = Some(expr::fold(g));
        }
        match &mut cl.target {
            DepTarget::Task { args, .. } | DepTarget::Memory { args, .. } => {
                for a in args.iter_mut() {
                    *a = expr::fold(a);
                }
            }
        }
    };
    for (lo, hi) in &mut c.ranges {
        *lo = expr::fold(lo);
        *hi = expr::fold(hi);
    }
    if let Some(p) = &c.placement {
        c.placement = Some(expr::fold(p));
    }
    if let Some(p) = &c.priority {
        c.priority = Some(expr::fold(p));
    }
    for f in &mut c.flows {
        for cl in f.ins.iter_mut().chain(f.outs.iter_mut()) {
            fold_clause(cl);
        }
    }
    c
}
