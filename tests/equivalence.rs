//! Compiled PTG texts against the DSL's reference semantics: a walker
//! over `ptg::dsl::parse` and `ptg::expr::eval` that implements the JDF
//! rules — the first input clause whose guard holds is a flow's active
//! one, every output clause whose guard holds fires, and a range argument
//! broadcasts, the last one running fastest. Every task of every CCSD
//! variant, at five segment heights, three priority offsets and four node
//! counts, and every task of `src/dsl/exprs.jdf`, which holds each form
//! of expression the emitter translates, must get the same roots,
//! successors, input counts, priorities, placements, costs and edge sizes
//! from both.

use ccsd::variants::{build_graph, build_graph_external};
use ccsd::{CcsdCtx, VariantCfg};
use parsec_rt::TilePool;
use ptg::dsl::{parse, Arg, ClassDef, DepTarget, Host};
use ptg::expr::{eval, Expr, MapEnv};
use ptg::{Dep, Payload, PlainCtx, TaskGraph, TaskKey};
use std::sync::Arc;
use tce::{inspect, scale, TileSpace};

type HostFn = fn(&CcsdCtx, &[i64]) -> i64;

/// `k` with parameter `i` set to `v`.
fn with(mut k: TaskKey, i: usize, v: i64) -> TaskKey {
    k.params[i] = v;
    k
}

struct Reference {
    defs: Vec<ClassDef>,
    globals: MapEnv,
    host: Arc<dyn Host>,
    nodes: i64,
}

impl Reference {
    /// `text` over `globals`, its globals and host functions, and `host`,
    /// its bodies, on `nodes` nodes.
    fn new(text: &str, mut globals: MapEnv, host: Arc<dyn Host>, nodes: usize) -> Self {
        globals.set("P", nodes as i64);
        Self {
            defs: parse(text).unwrap(),
            globals,
            host,
            nodes: nodes.max(1) as i64,
        }
    }

    /// A variant text over `host`'s globals and host functions.
    fn ccsd(text: &str, host: CcsdCtx, nodes: usize) -> Self {
        let host = Arc::new(host);
        let mut globals = MapEnv::new();
        (globals.set("nchains", host.nchains).set("h", host.h))
            .set("reader_offset", host.reader_offset)
            .set("gemm_offset", host.gemm_offset);
        let funcs: [(&str, HostFn); 6] = [
            ("chain_len", |c, a| c.chain_len(a[0])),
            ("nsorts", |c, a| c.nsorts(a[0])),
            ("reduce_levels", |c, a| c.reduce_levels(a[0])),
            ("reduce_width", |c, a| c.reduce_width(a[0], a[1])),
            ("nowners", |c, a| c.nowners(a[0], a[1])),
            ("owner", |c, a| c.owner(a[0], a[1], a[2])),
        ];
        for (name, f) in funcs {
            let c = host.clone();
            globals.func(name, Arc::new(move |a: &[i64]| f(&c, a)));
        }
        Self::new(text, globals, host, nodes)
    }

    /// The globals with `key`'s first `n` parameters bound.
    fn env(&self, key: TaskKey, n: usize) -> MapEnv {
        let mut env = self.globals.clone();
        for (name, v) in self.defs[key.class as usize]
            .params
            .iter()
            .zip(&key.params[..n])
        {
            env.set(name, *v);
        }
        env
    }

    fn holds(guard: &Option<Expr>, env: &MapEnv) -> bool {
        guard.as_ref().is_none_or(|g| eval(g, env).unwrap() != 0)
    }

    /// Each flow's active input clause.
    fn active(&self, key: TaskKey) -> Vec<Option<&DepTarget>> {
        let env = self.env(key, 4);
        let flows = &self.defs[key.class as usize].flows;
        (flows.iter())
            .map(|f| f.ins.iter().find(|i| Self::holds(&i.guard, &env)))
            .map(|i| i.map(|i| &i.target))
            .collect()
    }

    fn inputs(&self, key: TaskKey) -> usize {
        let active = self.active(key).into_iter();
        active
            .filter(|t| matches!(t, Some(DepTarget::Task { .. })))
            .count()
    }

    /// Every instance of every class, in domain order: each range under
    /// the parameters before it.
    fn tasks(&self) -> Vec<TaskKey> {
        let mut all = Vec::new();
        for (c, def) in self.defs.iter().enumerate() {
            let mut keys = vec![TaskKey::new(c as u32, &[])];
            for (d, (lo, hi)) in def.ranges.iter().enumerate() {
                let span = |k: &TaskKey| {
                    let env = self.env(*k, d);
                    eval(lo, &env).unwrap()..=eval(hi, &env).unwrap()
                };
                keys = (keys.iter())
                    .flat_map(|&k| span(&k).map(move |v| with(k, d, v)))
                    .collect();
            }
            all.extend(keys);
        }
        all
    }

    fn roots(&self) -> Vec<TaskKey> {
        let tasks = self.tasks().into_iter();
        tasks.filter(|&k| self.inputs(k) == 0).collect()
    }

    fn successors(&self, key: TaskKey) -> Vec<Dep> {
        let env = self.env(key, 4);
        let value = |e: &Expr| eval(e, &env).unwrap();
        let mut out = Vec::new();
        for (fi, flow) in self.defs[key.class as usize].flows.iter().enumerate() {
            for clause in flow.outs.iter().filter(|c| Self::holds(&c.guard, &env)) {
                let DepTarget::Task {
                    remote_flow,
                    class,
                    args,
                } = &clause.target
                else {
                    continue;
                };
                let ci = self.defs.iter().position(|d| &d.name == class).unwrap();
                let flows = &self.defs[ci].flows;
                let di = flows.iter().position(|f| &f.name == remote_flow).unwrap();
                // Every combination of the arguments' ranges, the last
                // running fastest.
                let mut dsts = vec![TaskKey::new(ci as u32, &[])];
                for (i, a) in args.iter().enumerate() {
                    let (lo, hi) = match a {
                        Arg::One(e) => (value(e), value(e)),
                        Arg::Range(lo, hi) => (value(lo), value(hi)),
                    };
                    dsts = (dsts.iter())
                        .flat_map(|&k| (lo..=hi).map(move |v| with(k, i, v)))
                        .collect();
                }
                let (src_flow, dst_flow) = (fi as u32, di as u32);
                out.extend(dsts.into_iter().map(|dst| Dep {
                    src_flow,
                    dst,
                    dst_flow,
                }));
            }
        }
        out
    }

    /// Compare `g` with the reference on every task; returns their number.
    fn check(&self, g: &TaskGraph, what: &str) -> usize {
        let (ctx, tasks) = (g.ctx(), self.tasks());
        assert_eq!(g.roots(), self.roots(), "{what}: roots");
        for &key in &tasks {
            let (c, def) = (g.class_of(key), &self.defs[key.class as usize]);
            let env = self.env(key, 4);
            let at = format!("{what}: {}", g.display(key));
            let mut succ = Vec::new();
            c.successors(key, ctx, &mut succ);
            assert_eq!(succ, self.successors(key), "{at}: successors");
            let inputs = self.inputs(key);
            assert_eq!(c.num_inputs(key, ctx), inputs, "{at}: num_inputs");
            let prio = def.priority.as_ref().map_or(0, |e| eval(e, &env).unwrap());
            assert_eq!(c.priority(key, ctx), prio, "{at}: priority");
            let place = (def.placement.as_ref())
                .map_or(0, |e| eval(e, &env).unwrap().rem_euclid(self.nodes));
            assert_eq!(c.placement(key, ctx), place as usize, "{at}: placement");
            assert_eq!(
                c.cost(key, ctx),
                self.host.cost(&def.body, key, inputs),
                "{at}: cost"
            );
            for d in &succ {
                let bytes = self.host.flow_bytes(&def.body, key, d.src_flow, d.dst);
                assert_eq!(
                    c.flow_bytes(key, d.src_flow, d.dst, ctx),
                    bytes,
                    "{at}: flow_bytes"
                );
            }
        }
        tasks.len()
    }
}

#[test]
fn compiled_texts_match_the_reference_semantics() {
    let texts = [
        include_str!("../crates/ccsd/src/variants/v1.jdf"),
        include_str!("../crates/ccsd/src/variants/v2.jdf"),
        include_str!("../crates/ccsd/src/variants/v3.jdf"),
        include_str!("../crates/ccsd/src/variants/v4.jdf"),
        include_str!("../crates/ccsd/src/variants/v5.jdf"),
    ];
    let space = TileSpace::build(&scale::tiny());
    let mut tasks = 0;
    for nodes in [1, 2, 3, 5] {
        let ins = Arc::new(inspect(&space, nodes));
        let max = ins.max_chain_len;
        for (text, paper) in texts.iter().zip(VariantCfg::all()) {
            for h in [1, 2, 3, max, max + 5] {
                for (r, g) in [(5, 1), (0, 0), (9, 2)] {
                    let cfg = VariantCfg {
                        segment_height: h,
                        ..paper
                    }
                    .offsets(r, g);
                    let pool = Arc::new(TilePool::default());
                    let host = CcsdCtx::new(ins.clone(), cfg, None, pool.clone(), false);
                    let reference = Reference::ccsd(text, host, nodes);
                    let what = format!("{} h={h} offsets=({r}, {g}) nodes={nodes}", cfg.name);
                    tasks += reference.check(&build_graph(ins.clone(), cfg, None), &what);
                    // Seeded group by group, the roots are the same tasks.
                    let external = build_graph_external(ins.clone(), cfg, None, pool, false);
                    assert!(external.roots().is_empty(), "{what}");
                    let all = reference.roots();
                    for l1 in 0..ins.num_chains() as i64 {
                        let mut want: Vec<TaskKey> =
                            all.iter().copied().filter(|k| k.params[0] == l1).collect();
                        want.sort_by_key(|k| (k.params, k.class));
                        assert_eq!(external.group_roots(l1), want, "{what}: group {l1}");
                    }
                }
            }
        }
    }
    assert!(tasks > 40_000, "{tasks} tasks compared");
}

/// `exprs.jdf`'s globals and host function, and a data reference that
/// reads as its name's first letter and its arguments.
struct Exprs {
    n: i64,
}

impl Exprs {
    fn f(&self, a: i64, b: i64) -> i64 {
        2 * a - b
    }
}

impl Host for Exprs {
    fn data(&self, name: &str, args: &[i64]) -> Option<Payload> {
        let head = name.as_bytes()[0] as i64;
        Some(Arc::new(
            [head].iter().chain(args).map(|&v| v as f64).collect(),
        ))
    }
}

#[allow(clippy::overly_complex_bool_expr)] // first-match chains of overlapping guards
mod exprs {
    use super::Exprs as Host;
    include!(concat!(env!("OUT_DIR"), "/exprs.rs"));
}

#[test]
fn every_expression_form_matches_eval() {
    for nodes in [1, 3] {
        let mut globals = MapEnv::new();
        globals.set("n", 4);
        globals.func("f", Arc::new(|a: &[i64]| Exprs { n: 4 }.f(a[0], a[1])));
        let text = include_str!("../src/dsl/exprs.jdf");
        let reference = Reference::new(text, globals, Arc::new(Exprs { n: 4 }), nodes);
        let g = exprs::graph(Exprs { n: 4 }, Arc::new(PlainCtx { nodes }), false);
        let what = format!("exprs.jdf nodes={nodes}");
        assert_eq!(reference.check(&g, &what), 7 * 5 + 5);
        assert!(!g.roots().is_empty(), "{what}");
        // Memory inputs: the data reference of each flow's active clause.
        for key in reference.tasks() {
            let want: Vec<Option<Payload>> = (reference.active(key).into_iter())
                .map(|t| match t {
                    Some(DepTarget::Memory { name, args }) => {
                        let env = reference.env(key, 4);
                        let args: Vec<i64> = args.iter().map(|a| eval(a, &env).unwrap()).collect();
                        reference.host.data(name, &args)
                    }
                    _ => None,
                })
                .collect();
            let mut inputs = vec![None; want.len()];
            let got = g.class_of(key).execute(key, g.ctx(), &mut inputs);
            assert_eq!(got, want, "{what}: {} memory inputs", g.display(key));
        }
    }
}
