//! Locality-aware cross-rank work stealing for the distributed CCSD run.
//!
//! The paper pairs a *static* round-robin chain placement with *dynamic*
//! stealing inside each node. This module extends the dynamic half across
//! ranks: each rank's chains live in a [`ChainLedger`] instead of being
//! materialized as graph roots, and a [`ChainSource`] feeds them to the
//! native engine through the [`WorkSource`] hook. When every local deque
//! *and* the ledger run dry, the source issues a steal-request active
//! message to the nearest non-dry peer on the rank ring; the victim's
//! progress thread answers from its own ledger — preferring chains whose
//! operands already live on the thief — and the granted chains execute on
//! the thief exactly as they would have on the owner (task bodies are
//! rank-agnostic: reader gets pull from owner shards, `WRITE_C`
//! accumulates route to owner shards, so only the *compute* migrates).
//!
//! Exactly-once execution under the lossy transport rests on two facts:
//! chains leave a ledger exactly once (one mutex guards local claims and
//! donations alike), and a duplicate steal request re-receives the
//! *recorded* grant rather than a second donation (see `comm::call`).
//! Requests carry the collective run's epoch so a rank still finishing
//! run `N` answers a run-`N+1` thief dry instead of donating chains from
//! the wrong graph.

use comm::Endpoint;
use global_arrays::GangView;
use parsec_rt::{IdleGate, SourcePoll, WorkSource};
use ptg::{TaskGraph, TaskKey};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use tce::Inspection;

/// Operand-prefetch hook for granted steal chains: given a chain index,
/// issue asynchronous gets for its operand blocks (warming the tile
/// cache before the chain's reader tasks run) and return the bytes
/// requested. Installed by the layer that owns the workspace.
pub type PrefetchFn = Box<dyn Fn(i64) -> u64 + Send + Sync>;

/// Tuning knobs of the cross-rank steal protocol.
#[derive(Debug, Clone, Copy)]
pub struct StealConfig {
    /// Chains a starved worker claims from the local ledger at a time —
    /// from the run's first claim on, so chains go whole to the worker
    /// that claims them and the unclaimed rest stays donatable.
    pub batch: usize,
    /// Maximum chains requested per steal request; `0` disables
    /// cross-rank stealing entirely (the ledger still feeds local
    /// workers, but no requests hit the wire).
    pub limit: u32,
    /// Ask peers *before* claiming from the local ledger, so steals fire
    /// deterministically even on a balanced tiny workload.
    #[cfg(test)]
    pub(crate) remote_first: bool,
}

/// Victims probed concurrently when the rank goes idle. Sequential
/// probing pays one full round trip per dry victim before trying the
/// next; with fan-out the dry answers overlap and the first grant wins.
const FANOUT: usize = 2;

impl Default for StealConfig {
    fn default() -> Self {
        Self {
            batch: 2,
            limit: 2,
            #[cfg(test)]
            remote_first: false,
        }
    }
}

impl StealConfig {
    /// Static placement: every chain executes on its owner rank, as
    /// before the steal ledger existed. For tests and controls that
    /// assert on *which* rank performs the work.
    pub fn pinned() -> Self {
        Self {
            limit: 0,
            ..Self::default()
        }
    }

    /// Steal only once local work is exhausted — except in this crate's
    /// own tests, which can turn the order round.
    fn remote_first(&self) -> bool {
        #[cfg(test)]
        return self.remote_first;
        #[cfg(not(test))]
        false
    }
}

/// Counters describing one run's steal activity on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealSummary {
    /// Chains this rank claimed from its own ledger.
    pub local_claimed: u64,
    /// Chains this rank donated to thieves.
    pub donated_chains: u64,
    /// Operand + output bytes of the donated chains (the working set
    /// that migrated with them).
    pub donated_bytes: u64,
    /// Chains this rank received from victims.
    pub stolen_chains: u64,
    /// Operand + output bytes of the received chains.
    pub stolen_bytes: u64,
    /// Steal requests this rank posted (grants + dry answers).
    pub probes_sent: u64,
    /// Probes answered with zero chains; each marks its victim dry, so
    /// `probes_sent - dry_replies` is the number of granted probes.
    pub dry_replies: u64,
    /// Operand bytes requested by the grant-time prefetcher (async gets
    /// for the first granted chain's blocks, issued before the chain's
    /// reader tasks execute).
    pub prefetched_bytes: u64,
}

/// Operand + output footprint of chain `l1`: what a thief must move (or
/// already holds) to execute it.
fn chain_bytes(ins: &Inspection, l1: i64) -> u64 {
    let c = &ins.chains[l1 as usize];
    let operands: usize = c.gemms.iter().map(|g| g.a_len + g.b_len).sum();
    (operands * 8) as u64 + c.c_bytes()
}

/// Bytes of chain `l1`'s operands already resident on `node` (owner-local
/// to the thief): the donation score that makes stealing locality-aware.
fn bytes_local_to(ins: &Inspection, l1: i64, node: usize) -> u64 {
    ins.chains[l1 as usize]
        .gemms
        .iter()
        .map(|g| {
            let a = if g.a_owner == node { g.a_len } else { 0 };
            let b = if g.b_owner == node { g.b_len } else { 0 };
            ((a + b) * 8) as u64
        })
        .sum()
}

/// The rank's share of chains, claimable by local workers (front, highest
/// priority first) and donatable to thieves (back, scored by how much of
/// the chain's input already lives on the thief). One mutex covers both
/// paths, so each chain leaves exactly once.
pub struct ChainLedger {
    /// Unclaimed chains, ascending `l1` = descending priority.
    avail: Mutex<Vec<i64>>,
    claimed: AtomicU64,
    donated: AtomicU64,
    donated_bytes: AtomicU64,
}

impl ChainLedger {
    /// Ledger over the chains placed on `rank` (round-robin, as the
    /// variant texts place every class: `: L1`).
    pub fn new(ins: &Inspection, rank: usize, nranks: usize) -> Self {
        let avail: Vec<i64> = (0..ins.num_chains() as i64)
            .filter(|l1| (*l1 as usize) % nranks == rank)
            .collect();
        Self {
            avail: Mutex::new(avail),
            claimed: AtomicU64::new(0),
            donated: AtomicU64::new(0),
            donated_bytes: AtomicU64::new(0),
        }
    }

    /// Claim up to `n` chains from the front (highest priority).
    pub fn claim(&self, n: usize) -> Vec<i64> {
        let mut a = self.avail.lock().unwrap();
        let take = n.min(a.len());
        let out: Vec<i64> = a.drain(..take).collect();
        self.claimed.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Donate up to `limit` chains to `thief`, preferring chains whose
    /// operands are already thief-resident, breaking ties toward the
    /// back (lowest priority — the owner keeps the urgent work).
    pub fn donate(&self, ins: &Inspection, thief: usize, limit: usize) -> Vec<i64> {
        let mut a = self.avail.lock().unwrap();
        let mut out = Vec::new();
        for _ in 0..limit {
            let Some(best) = a
                .iter()
                .enumerate()
                .max_by_key(|(_, &l1)| (bytes_local_to(ins, l1, thief), l1))
                .map(|(i, _)| i)
            else {
                break;
            };
            out.push(a.remove(best));
        }
        self.donated.fetch_add(out.len() as u64, Ordering::Relaxed);
        let bytes: u64 = out.iter().map(|&l1| chain_bytes(ins, l1)).sum();
        self.donated_bytes.fetch_add(bytes, Ordering::Relaxed);
        out
    }

    /// Chains not yet claimed or donated.
    pub fn remaining(&self) -> usize {
        self.avail.lock().unwrap().len()
    }
}

struct SourceState {
    /// Chains granted by victims, awaiting expansion into root keys.
    granted: Vec<i64>,
    /// Steal requests on the wire; poll answers `Pending` while any are
    /// outstanding (granted chains must execute before `Empty`).
    inflight: usize,
    /// Peers that answered dry this run. Sticky: a victim's ledger only
    /// shrinks, so dry stays dry and termination is monotone.
    dry: Vec<bool>,
    /// Peers with a probe currently on the wire, so fan-out never posts
    /// two concurrent requests to one victim.
    probing: Vec<bool>,
}

/// Feeds one run's engine from the rank's [`ChainLedger`] and, when both
/// deques and ledger run dry, from its peers: the [`WorkSource`] half
/// polls (worker threads), the [`comm::StealHandler`] half donates (comm
/// thread). One object serves both so a rank is symmetric thief/victim.
pub struct ChainSource {
    ep: Arc<Endpoint>,
    ins: Arc<Inspection>,
    /// The run's graph: a chain materializes as its locality group's
    /// roots (`L1 = l1`), whatever variant the graph wires.
    graph: TaskGraph,
    scfg: StealConfig,
    epoch: u64,
    /// The job's rank gang: ledger partitioning, the victim ring, and
    /// wire targets all work in gang-logical node indices, so a job
    /// running on ranks {2,3} steals exactly as one on ranks {0,1}.
    view: GangView,
    /// Grant-time operand prefetcher (warms the tile cache for the first
    /// granted chain before its reader tasks run).
    prefetch: Option<PrefetchFn>,
    ledger: Arc<ChainLedger>,
    state: Mutex<SourceState>,
    gate: Mutex<Option<Arc<IdleGate>>>,
    stolen_chains: AtomicU64,
    stolen_bytes: AtomicU64,
    probes_sent: AtomicU64,
    dry_replies: AtomicU64,
    prefetched_bytes: AtomicU64,
    /// Self-reference so `poll(&self)` can hand the steal callback an
    /// owning clone (the engine holds us as `Arc<dyn WorkSource>`).
    weak: Weak<ChainSource>,
}

impl ChainSource {
    /// Source for one collective run at `epoch` (the globally-unique run
    /// ordinal; victims in a different run — including every rank of a
    /// *different* gang's job — answer dry).
    pub fn new(
        ep: Arc<Endpoint>,
        ins: Arc<Inspection>,
        graph: &TaskGraph,
        scfg: StealConfig,
        epoch: u64,
        view: GangView,
        prefetch: Option<PrefetchFn>,
    ) -> Arc<Self> {
        let nodes = view.members.len();
        let ledger = Arc::new(ChainLedger::new(&ins, view.my_node, nodes));
        Arc::new_cyclic(|weak| Self {
            ep,
            ins,
            graph: graph.clone(),
            scfg,
            epoch,
            view,
            prefetch,
            ledger,
            state: Mutex::new(SourceState {
                granted: Vec::new(),
                inflight: 0,
                dry: vec![false; nodes],
                probing: vec![false; nodes],
            }),
            gate: Mutex::new(None),
            stolen_chains: AtomicU64::new(0),
            stolen_bytes: AtomicU64::new(0),
            probes_sent: AtomicU64::new(0),
            dry_replies: AtomicU64::new(0),
            prefetched_bytes: AtomicU64::new(0),
            weak: weak.clone(),
        })
    }

    /// This run's steal activity so far.
    pub fn summary(&self) -> StealSummary {
        StealSummary {
            local_claimed: self.ledger.claimed.load(Ordering::Relaxed),
            donated_chains: self.ledger.donated.load(Ordering::Relaxed),
            donated_bytes: self.ledger.donated_bytes.load(Ordering::Relaxed),
            stolen_chains: self.stolen_chains.load(Ordering::Relaxed),
            stolen_bytes: self.stolen_bytes.load(Ordering::Relaxed),
            probes_sent: self.probes_sent.load(Ordering::Relaxed),
            dry_replies: self.dry_replies.load(Ordering::Relaxed),
            prefetched_bytes: self.prefetched_bytes.load(Ordering::Relaxed),
        }
    }

    /// Chains at hand without the wire: every grant that has landed, else
    /// `batch` chains from the front of the own ledger (unless peers are
    /// asked first).
    fn take_local(&self, st: &mut SourceState) -> Vec<i64> {
        if !st.granted.is_empty() {
            std::mem::take(&mut st.granted)
        } else if self.scfg.remote_first() {
            Vec::new()
        } else {
            self.ledger.claim(self.scfg.batch)
        }
    }

    fn expand(&self, chains: &[i64]) -> Vec<TaskKey> {
        chains
            .iter()
            .flat_map(|&l1| self.graph.group_roots(l1))
            .collect()
    }

    /// Nearest peer on the *gang-logical* node ring not yet known dry
    /// and not already being probed (fan-out never doubles up on one
    /// victim). A solo gang has no ring and never probes.
    fn next_victim(&self, st: &SourceState) -> Option<usize> {
        let (me, nodes) = (self.view.my_node, self.view.members.len());
        (1..nodes)
            .map(|d| (me + d) % nodes)
            .find(|&p| !st.dry[p] && !st.probing[p])
    }

    /// Post a steal request to logical node `victim` (wire target is the
    /// gang member's real rank); the reply lands on the comm thread,
    /// which banks the grant, prefetches the first granted chain's
    /// operands, and wakes the parked workers.
    fn post_steal(&self, victim: usize) {
        let this = self.weak.upgrade().expect("source polled while alive");
        self.ep.steal_async(
            self.view.members[victim],
            self.epoch,
            self.scfg.limit,
            Box::new(move |chains: Vec<u64>| {
                let mut st = this.state.lock().unwrap();
                st.inflight -= 1;
                st.probing[victim] = false;
                if chains.is_empty() {
                    st.dry[victim] = true;
                    this.dry_replies.fetch_add(1, Ordering::Relaxed);
                } else {
                    this.stolen_chains
                        .fetch_add(chains.len() as u64, Ordering::Relaxed);
                    let bytes: u64 = chains
                        .iter()
                        .map(|&l1| chain_bytes(&this.ins, l1 as i64))
                        .sum();
                    this.stolen_bytes.fetch_add(bytes, Ordering::Relaxed);
                    st.granted.extend(chains.iter().map(|&c| c as i64));
                }
                drop(st);
                // Warm the tile cache for the head of the grant before any
                // worker wakes to expand it: by the time the chain's reader
                // tasks run, their operand gets coalesce onto (or hit) the
                // transfers posted here.
                if let (Some(pf), Some(&head)) = (this.prefetch.as_ref(), chains.first()) {
                    let bytes = pf(head as i64);
                    this.prefetched_bytes.fetch_add(bytes, Ordering::Relaxed);
                }
                if let Some(g) = this.gate.lock().unwrap().clone() {
                    g.notify_all();
                }
            }),
        );
    }
}

impl WorkSource for ChainSource {
    fn attach(&self, gate: Arc<IdleGate>) {
        *self.gate.lock().unwrap() = Some(gate);
    }

    fn claim(&self) -> Option<Vec<TaskKey>> {
        let chains = self.take_local(&mut self.state.lock().unwrap());
        (!chains.is_empty()).then(|| self.expand(&chains))
    }

    fn poll(&self) -> SourcePoll {
        let mut st = self.state.lock().unwrap();
        // Under the same lock as the Empty verdict below: a grant landing
        // between a separate claim and this poll must not be missed.
        let chains = self.take_local(&mut st);
        if !chains.is_empty() {
            drop(st);
            return SourcePoll::Tasks(self.expand(&chains));
        }
        // Top up outstanding probes to the fan-out, one per distinct
        // victim; the first grant to land wins the wake-up, later
        // replies are banked (grants) or mark their victim dry.
        let mut victims = Vec::new();
        if self.scfg.limit > 0 {
            while st.inflight + victims.len() < FANOUT {
                let Some(v) = self.next_victim(&st) else {
                    break;
                };
                st.probing[v] = true;
                victims.push(v);
            }
        }
        if !victims.is_empty() || st.inflight > 0 {
            st.inflight += victims.len();
            drop(st);
            self.probes_sent
                .fetch_add(victims.len() as u64, Ordering::Relaxed);
            for v in victims {
                self.post_steal(v);
            }
            return SourcePoll::Pending;
        }
        if self.scfg.remote_first() {
            let local = self.ledger.claim(self.scfg.batch);
            if !local.is_empty() {
                drop(st);
                return SourcePoll::Tasks(self.expand(&local));
            }
        }
        SourcePoll::Empty
    }
}

impl comm::StealHandler for ChainSource {
    fn donate(&self, thief: usize, epoch: u64, limit: u32) -> Vec<u64> {
        if epoch != self.epoch {
            return Vec::new(); // thief is in a different collective run
        }
        // The wire hands us the thief's *real* rank; locality scoring
        // wants its gang-logical node. A non-member thief (stale probe
        // from another gang's job) is answered dry — epochs are globally
        // unique so the epoch check already rejects it, but a second
        // fence costs nothing.
        let Some(node) = self.view.members.iter().position(|&r| r == thief) else {
            return Vec::new();
        };
        self.ledger
            .donate(&self.ins, node, limit as usize)
            .into_iter()
            .map(|l1| l1 as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::VariantCfg;
    use tce::{inspect, scale, TileSpace};

    fn ins(nodes: usize) -> Arc<Inspection> {
        let space = TileSpace::build(&scale::tiny());
        Arc::new(inspect(&space, nodes))
    }

    #[test]
    fn ledger_partitions_round_robin() {
        let ins = ins(3);
        let n = ins.num_chains();
        let ledgers: Vec<ChainLedger> = (0..3).map(|r| ChainLedger::new(&ins, r, 3)).collect();
        let total: usize = ledgers.iter().map(ChainLedger::remaining).sum();
        assert_eq!(total, n);
        for (r, l) in ledgers.iter().enumerate() {
            for l1 in l.avail.lock().unwrap().iter() {
                assert_eq!(*l1 as usize % 3, r);
            }
        }
    }

    /// Everything `take` hands out until it comes back empty.
    fn drain(take: impl Fn() -> Vec<i64>) -> Vec<i64> {
        let mut got = Vec::new();
        loop {
            let batch = take();
            if batch.is_empty() {
                return got;
            }
            got.extend(batch);
        }
    }

    #[test]
    fn claim_and_donate_never_hand_out_a_chain_twice() {
        let ins = ins(2);
        let ledger = ChainLedger::new(&ins, 0, 2);
        let n = ledger.remaining();
        // Two workers claiming batches race a comm thread donating to a
        // thief, as in a run, until the ledger is dry.
        let mut seen: Vec<i64> = std::thread::scope(|s| {
            let claimer = || s.spawn(|| drain(|| ledger.claim(2)));
            let workers = [claimer(), claimer()];
            let donor = s.spawn(|| drain(|| ledger.donate(&ins, 1, 1)));
            workers
                .into_iter()
                .chain([donor])
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(seen.len(), n, "every chain handed out exactly once");
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "no duplicates");
        assert!(ledger.claim(8).is_empty());
        assert!(ledger.donate(&ins, 1, 8).is_empty());
        let s = ledger.claimed.load(Ordering::Relaxed) + ledger.donated.load(Ordering::Relaxed);
        assert_eq!(s as usize, n);
    }

    #[test]
    fn donation_prefers_thief_local_operands() {
        let ins = ins(4);
        let ledger = ChainLedger::new(&ins, 0, 4);
        let got = ledger.donate(&ins, 2, 1);
        assert_eq!(got.len(), 1);
        // The donated chain maximizes thief-resident operand bytes among
        // what the ledger held.
        let best = got[0];
        let score = bytes_local_to(&ins, best, 2);
        let remaining = ledger.avail.lock().unwrap().clone();
        for l1 in remaining {
            assert!(bytes_local_to(&ins, l1, 2) <= score);
        }
    }

    #[test]
    fn chain_roots_mirror_static_roots() {
        // A chain the ledger seeds into an externally rooted graph gets
        // exactly the roots the statically rooted graph has for it: one
        // READ pair per GEMM, plus the DFILL when the GEMMs chain (v1).
        use crate::variants::{build_graph, build_graph_external, DFILL};
        let ins = ins(2);
        for cfg in [VariantCfg::v1(), VariantCfg::v5()] {
            let g = build_graph_external(ins.clone(), cfg, None, Default::default(), false);
            assert!(g.roots().is_empty(), "{}: external roots", cfg.name);
            let all = build_graph(ins.clone(), cfg, None).roots();
            for l1 in 0..ins.num_chains() as i64 {
                let mut seeded = g.group_roots(l1);
                let mut want: Vec<TaskKey> =
                    all.iter().copied().filter(|k| k.params[0] == l1).collect();
                let dfills = seeded.iter().filter(|k| k.class == DFILL).count();
                let gemms = ins.chains[l1 as usize].gemms.len();
                assert_eq!(seeded.len(), 2 * gemms + dfills, "{} chain {l1}", cfg.name);
                assert_eq!(
                    dfills,
                    (cfg.name == "v1") as usize,
                    "{} chain {l1}",
                    cfg.name
                );
                seeded.sort();
                want.sort();
                assert_eq!(seeded, want, "{} chain {l1}", cfg.name);
            }
        }
    }

    #[test]
    fn chain_bytes_counts_operands_and_output() {
        let ins = ins(2);
        let c = &ins.chains[0];
        let operands: usize = c.gemms.iter().map(|g| g.a_len + g.b_len).sum();
        assert_eq!(chain_bytes(&ins, 0), (operands * 8) as u64 + c.c_bytes());
        let all: u64 = (0..ins.num_chains())
            .map(|n| ins.chains[n].gemms.len() as u64)
            .sum();
        assert!(all > 0);
    }
}
