//! The original NWChem execution model (Coarse Grain Parallelism),
//! simulated on the same hardware model as the PaRSEC variants.
//!
//! Structure, following Section III-A and IV-D of the paper:
//!
//! * one MPI rank per core; `nodes x cores_per_node` ranks total;
//! * the work is divided into **seven levels** with an explicit barrier
//!   between levels — "the task-stealing model applies only within each
//!   level";
//! * within a level, ranks acquire whole chains through **NXTVAL**: a
//!   request to the counter's owner node, a serially-serviced atomic
//!   update, and a response — the global hot spot;
//! * for every GEMM of a chain the rank issues **blocking**
//!   `GET_HASH_BLOCK`s for A and B "immediately preceding the call to the
//!   GEMM kernel. Therefore ... the communication is not overlapped with
//!   the computation, because it is not given a chance to do so"
//!   (Figures 12-13);
//! * at chain end, the guarded SORTs run (through the node's shared
//!   memory bus) and `ADD_HASH_BLOCK` pushes the result to its owner
//!   node(s), blocking.
//!
//! Numerically the original code is the serial reference executor in
//! `tce::reference`; this module reproduces its *timing* on the modeled
//! cluster. Remote accumulate streaming is charged at full (uncontended)
//! memory bandwidth on the destination — a simplification, since
//! accumulates are ~1/70th of the gets.

use crate::ctx::{ACC_RMW_FACTOR, SORT_STRIDE_FACTOR};
use dcsim::{EventQueue, FifoServer, Nic, PsResource, SimModel, SimTime};
use parsec_rt::CostModel;
use tce::Inspection;
use xtrace::{ActivityKind, Trace, WorkerId};

/// Small-message size for NXTVAL/request traffic.
const CTRL_BYTES: u64 = 64;

/// Baseline simulation parameters.
#[derive(Debug, Clone)]
pub struct BaselineCfg {
    /// Number of nodes.
    pub nodes: usize,
    /// Ranks per node (one per core).
    pub cores_per_node: usize,
    /// Hardware model (shared with the PaRSEC engine).
    pub cost: CostModel,
    /// Number of barrier-separated work levels. NWChem divides the whole
    /// CC iteration (60+ generated subroutines) into seven such levels;
    /// the chains of a single subroutine like `icsd_t2_7` form one NXTVAL
    /// work pool inside one level, so the default here is 1. Use larger
    /// values to study the barrier effect (`paper ablations`).
    pub levels: usize,
    /// Record a Gantt trace.
    pub collect_trace: bool,
}

impl BaselineCfg {
    /// Default configuration for `nodes x cores`.
    pub fn new(nodes: usize, cores_per_node: usize) -> Self {
        Self {
            nodes,
            cores_per_node,
            cost: CostModel::default(),
            levels: 1,
            collect_trace: false,
        }
    }

    /// Enable trace collection.
    pub fn collect_trace(mut self, yes: bool) -> Self {
        self.collect_trace = yes;
        self
    }

    /// Override the cost model.
    pub fn cost(mut self, c: CostModel) -> Self {
        self.cost = c;
        self
    }

    /// Override the number of barrier-separated levels.
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels.max(1);
        self
    }
}

/// Outcome of a baseline simulation.
#[derive(Debug)]
pub struct BaselineReport {
    /// Virtual makespan in ns.
    pub makespan: SimTime,
    /// NXTVAL acquisitions (includes the final empty-handed one per rank
    /// per level).
    pub nxtvals: u64,
    /// Number of `GET_HASH_BLOCK` operations.
    pub gets: u64,
    /// Total bytes moved across NICs.
    pub bytes: u64,
    /// Chains executed.
    pub chains: u64,
    /// Gantt trace (empty unless requested).
    pub trace: Trace,
}

impl BaselineReport {
    /// Makespan in seconds.
    pub fn seconds(&self) -> f64 {
        dcsim::to_secs(self.makespan)
    }
}

/// Rank program counter. The GET sequence is split into one state per
/// network interaction so that every NIC request is issued at its true
/// event time — issuing them ahead of time from a single arithmetic
/// block would make the call-order FIFO servers insert phantom idle
/// gaps in front of later requests.
#[derive(Debug, Clone, Copy)]
enum RankState {
    NeedChain,
    /// Begin GEMM `i` of `chain` (issue the GET-A request).
    Gemm {
        chain: usize,
        i: usize,
    },
    /// The GET-A request reached A's owner; its NIC now serializes the data.
    FetchA {
        chain: usize,
        i: usize,
        get_start: SimTime,
    },
    /// A arrived; issue the GET-B request.
    GetB {
        chain: usize,
        i: usize,
        get_start: SimTime,
    },
    /// The GET-B request reached B's owner.
    FetchB {
        chain: usize,
        i: usize,
        get_start: SimTime,
    },
    /// Both operands present; run the dgemm.
    Compute {
        chain: usize,
        i: usize,
        get_start: SimTime,
    },
    SortWait {
        chain: usize,
        j: usize,
        start: SimTime,
    },
    Add {
        chain: usize,
        j: usize,
    },
    Barrier,
}

struct RankSt {
    node: usize,
    row: u32,
    state: RankState,
}

#[derive(Debug, Clone, Copy)]
enum BEv {
    Resume { rank: usize },
    PsTick { node: usize, gen: u64 },
}

struct B<'a> {
    ins: &'a Inspection,
    cfg: BaselineCfg,
    nics: Vec<Nic>,
    /// Per-node ARMCI-style data servers: one-sided gets/accumulates are
    /// serviced serially per owner node at `ga_server_bw_gbs`.
    servers: Vec<FifoServer>,
    buses: Vec<PsResource>,
    counter: FifoServer,
    psmap: std::collections::HashMap<(usize, u64), usize>,
    ranks: Vec<RankSt>,
    /// Chain ids per level, deterministically shuffled: NWChem's seven
    /// levels interleave instances of many generated kernels, so
    /// consecutive NXTVAL acquisitions do not touch adjacent blocks; the
    /// shuffle stands in for that decorrelation.
    levels: Vec<Vec<usize>>,
    cur_level: usize,
    issued: usize,
    at_barrier: usize,
    barrier_max: SimTime,
    // stats + trace
    nxtvals: u64,
    gets: u64,
    bytes: u64,
    chains_done: u64,
    trace: Trace,
    cls: [u16; 5], // NXTVAL, GET, GEMM, SORT, ADD
}

impl<'a> B<'a> {
    fn new(ins: &'a Inspection, cfg: BaselineCfg) -> Self {
        let mut trace = Trace::new();
        let cls = [
            trace.class("NXTVAL", ActivityKind::Runtime),
            trace.class("GET", ActivityKind::Communication),
            trace.class("GEMM", ActivityKind::Compute),
            trace.class("SORT", ActivityKind::Compute),
            trace.class("ADD", ActivityKind::Communication),
        ];
        let ranks = (0..cfg.nodes * cfg.cores_per_node)
            .map(|r| RankSt {
                node: r / cfg.cores_per_node,
                row: (r % cfg.cores_per_node) as u32,
                state: RankState::NeedChain,
            })
            .collect();
        let n = ins.num_chains();
        let l = cfg.levels;
        let mut order: Vec<usize> = (0..n).collect();
        // Fisher-Yates with splitmix64: deterministic across runs.
        let mut state = 0x5EEDu64;
        for i in (1..n).rev() {
            state = tce::util::splitmix64(state);
            order.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let levels = (0..l)
            .map(|k| order[(k * n / l)..((k + 1) * n / l)].to_vec())
            .collect();
        let nics = (0..cfg.nodes)
            .map(|_| Nic::new(cfg.cost.nic_bw_gbs, cfg.cost.nic_latency()))
            .collect();
        let servers = (0..cfg.nodes).map(|_| FifoServer::new()).collect();
        let buses = (0..cfg.nodes)
            .map(|_| PsResource::new(cfg.cost.mem_capacity()))
            .collect();
        Self {
            ins,
            cfg,
            nics,
            servers,
            buses,
            counter: FifoServer::new(),
            psmap: Default::default(),
            ranks,
            levels,
            cur_level: 0,
            issued: 0,
            at_barrier: 0,
            barrier_max: 0,
            nxtvals: 0,
            gets: 0,
            bytes: 0,
            chains_done: 0,
            trace,
            cls,
        }
    }

    fn span(&mut self, rank: usize, cls: usize, b: SimTime, e: SimTime) {
        if self.cfg.collect_trace && e > b {
            let who = WorkerId::new(self.ranks[rank].node as u32, self.ranks[rank].row);
            self.trace.push(who, self.cls[cls], b, e);
        }
    }

    /// Issue one `GET_HASH_BLOCK` request; `landed` is the rank state once
    /// the request reaches the owner (local blocks skip the network: the
    /// copy runs at full memory bandwidth and jumps straight past the
    /// fetch state).
    #[allow(clippy::too_many_arguments)]
    fn issue_get(
        &mut self,
        rank: usize,
        owner: usize,
        bytes: u64,
        now: SimTime,
        landed: RankState,
        q: &mut EventQueue<BEv>,
    ) {
        let node = self.ranks[rank].node;
        let t0 = now + self.cfg.cost.ga_sw();
        if owner == node {
            let done = t0 + (bytes as f64 / self.cfg.cost.mem_capacity()).round() as SimTime;
            // Skip the owner-NIC state: data is already here.
            let next = match landed {
                RankState::FetchA {
                    chain,
                    i,
                    get_start,
                } => RankState::GetB {
                    chain,
                    i,
                    get_start,
                },
                RankState::FetchB {
                    chain,
                    i,
                    get_start,
                } => RankState::Compute {
                    chain,
                    i,
                    get_start,
                },
                other => other,
            };
            self.ranks[rank].state = next;
            q.post(done, BEv::Resume { rank });
        } else {
            let req = self.nics[node].send(t0, CTRL_BYTES);
            self.bytes += CTRL_BYTES;
            self.ranks[rank].state = landed;
            q.post(req, BEv::Resume { rank });
        }
    }

    /// One one-sided GA transfer serviced at the owner's data server,
    /// then delivered over the wire.
    fn serve_get(&mut self, owner: usize, bytes: u64, now: SimTime) -> SimTime {
        let (_, served) = self.servers[owner].acquire(
            now,
            self.cfg.cost.ga_server_time(bytes, self.cfg.cores_per_node),
        );
        self.bytes += bytes;
        served + self.cfg.cost.nic_latency()
    }

    fn poll_bus(&mut self, node: usize, q: &mut EventQueue<BEv>) {
        if let Some((t, gen)) = self.buses[node].poll() {
            q.post(t, BEv::PsTick { node, gen });
        }
    }

    /// Execute one step of a rank's program at `now`; post its next event.
    fn step(&mut self, rank: usize, now: SimTime, q: &mut EventQueue<BEv>) {
        let node = self.ranks[rank].node;
        let cm = self.cfg.cost.clone();
        match self.ranks[rank].state {
            RankState::NeedChain => {
                // NXTVAL round trip through node 0.
                let req = self.nics[node].send(now, CTRL_BYTES);
                let (_, served) = self.counter.acquire(req, cm.nxtval_service());
                let back = self.nics[0].send(served, CTRL_BYTES);
                self.nxtvals += 1;
                self.bytes += 2 * CTRL_BYTES;
                self.span(rank, 0, now, back);
                let level = &self.levels[self.cur_level];
                let idx = self.issued;
                self.issued += 1;
                if idx >= level.len() {
                    let _ = level;
                    self.ranks[rank].state = RankState::Barrier;
                    self.at_barrier += 1;
                    self.barrier_max = self.barrier_max.max(back);
                    if self.at_barrier == self.ranks.len() {
                        self.advance_level(q);
                    }
                } else {
                    self.ranks[rank].state = RankState::Gemm {
                        chain: level[idx],
                        i: 0,
                    };
                    q.post(back, BEv::Resume { rank });
                }
            }
            RankState::Gemm { chain, i } => {
                let c = &self.ins.chains[chain];
                if i < c.gemms.len() {
                    let g = &c.gemms[i];
                    self.gets += 1;
                    let next = |s| RankState::FetchA {
                        chain,
                        i,
                        get_start: s,
                    };
                    self.issue_get(rank, g.a_owner, (g.a_len * 8) as u64, now, next(now), q);
                } else {
                    // Chain finished computing; start the first SORT.
                    self.start_sort(rank, chain, 0, now, q);
                }
            }
            RankState::FetchA {
                chain,
                i,
                get_start,
            } => {
                // Request arrived at the owner: its data server services it.
                let g = &self.ins.chains[chain].gemms[i];
                let a_arr = self.serve_get(g.a_owner, (g.a_len * 8) as u64, now);
                self.ranks[rank].state = RankState::GetB {
                    chain,
                    i,
                    get_start,
                };
                q.post(a_arr, BEv::Resume { rank });
            }
            RankState::GetB {
                chain,
                i,
                get_start,
            } => {
                let g = &self.ins.chains[chain].gemms[i];
                self.gets += 1;
                let next = RankState::FetchB {
                    chain,
                    i,
                    get_start,
                };
                self.issue_get(rank, g.b_owner, (g.b_len * 8) as u64, now, next, q);
            }
            RankState::FetchB {
                chain,
                i,
                get_start,
            } => {
                let g = &self.ins.chains[chain].gemms[i];
                let b_arr = self.serve_get(g.b_owner, (g.b_len * 8) as u64, now);
                self.ranks[rank].state = RankState::Compute {
                    chain,
                    i,
                    get_start,
                };
                q.post(b_arr, BEv::Resume { rank });
            }
            RankState::Compute {
                chain,
                i,
                get_start,
            } => {
                let c = &self.ins.chains[chain];
                let g = &c.gemms[i];
                self.span(rank, 1, get_start, now);
                let flops = 2 * (c.m * c.n * g.k) as u64;
                let done = now + cm.cpu_time(flops);
                self.span(rank, 2, now, done);
                self.ranks[rank].state = RankState::Gemm { chain, i: i + 1 };
                q.post(done, BEv::Resume { rank });
            }
            RankState::SortWait { .. } => {
                unreachable!("SortWait is resumed by PsTick, not Resume")
            }
            RankState::Add { chain, j } => {
                let c = &self.ins.chains[chain];
                let s = &c.sorts[j];
                // Push slices to each owner node, blocking until the last
                // remote accumulate acknowledges.
                let mut t = now + cm.ga_sw();
                for (owner, range) in &s.owners {
                    let bytes = (range.len() * 8) as u64;
                    if *owner == node {
                        let stream = (ACC_RMW_FACTOR * bytes) as f64 / cm.mem_capacity();
                        t += stream.round() as SimTime;
                    } else {
                        // One-sided accumulate: data server applies the
                        // read-modify-write at the owner, then acks.
                        let (_, served) = self.servers[*owner].acquire(
                            t,
                            cm.ga_server_time(ACC_RMW_FACTOR * bytes, self.cfg.cores_per_node),
                        );
                        self.bytes += bytes;
                        t = served + cm.nic_latency();
                    }
                }
                self.span(rank, 4, now, t);
                if j + 1 < c.sorts.len() {
                    self.start_sort(rank, chain, j + 1, t, q);
                } else {
                    self.chains_done += 1;
                    self.ranks[rank].state = RankState::NeedChain;
                    q.post(t, BEv::Resume { rank });
                }
            }
            RankState::Barrier => unreachable!("barrier ranks are resumed by advance_level"),
        }
    }

    fn start_sort(
        &mut self,
        rank: usize,
        chain: usize,
        j: usize,
        now: SimTime,
        q: &mut EventQueue<BEv>,
    ) {
        let node = self.ranks[rank].node;
        let bytes = 2 * self.ins.chains[chain].c_bytes() * SORT_STRIDE_FACTOR;
        let id = self.buses[node].submit(now, self.cfg.cost.mem_work(bytes));
        self.psmap.insert((node, id), rank);
        self.ranks[rank].state = RankState::SortWait {
            chain,
            j,
            start: now,
        };
        self.poll_bus(node, q);
    }

    fn advance_level(&mut self, q: &mut EventQueue<BEv>) {
        self.cur_level += 1;
        self.issued = 0;
        self.at_barrier = 0;
        if self.cur_level >= self.levels.len() {
            return; // done: queue drains
        }
        let t = self.barrier_max;
        for r in 0..self.ranks.len() {
            self.ranks[r].state = RankState::NeedChain;
            q.post(t, BEv::Resume { rank: r });
        }
    }
}

impl SimModel for B<'_> {
    type Ev = BEv;
    fn handle(&mut self, now: SimTime, ev: BEv, q: &mut EventQueue<BEv>) {
        match ev {
            BEv::Resume { rank } => self.step(rank, now, q),
            BEv::PsTick { node, gen } => {
                for id in self.buses[node].tick(now, gen) {
                    let rank = self.psmap.remove(&(node, id)).expect("unknown PS job");
                    let RankState::SortWait { chain, j, start } = self.ranks[rank].state else {
                        panic!("rank was not sorting");
                    };
                    self.span(rank, 3, start, now);
                    self.ranks[rank].state = RankState::Add { chain, j };
                    self.step(rank, now, q);
                }
                self.poll_bus(node, q);
            }
        }
    }
}

/// Simulate the original code on the modeled cluster.
pub fn simulate_baseline(ins: &Inspection, cfg: &BaselineCfg) -> BaselineReport {
    let mut b = B::new(ins, cfg.clone());
    let mut q = EventQueue::new();
    for r in 0..b.ranks.len() {
        q.post(0, BEv::Resume { rank: r });
    }
    dcsim::run(&mut b, &mut q);
    assert_eq!(
        b.cur_level, b.cfg.levels,
        "baseline did not finish all levels"
    );
    assert_eq!(
        b.chains_done as usize,
        ins.num_chains(),
        "not all chains executed"
    );
    BaselineReport {
        makespan: q.now(),
        nxtvals: b.nxtvals,
        gets: b.gets,
        bytes: b.bytes,
        chains: b.chains_done,
        trace: b.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tce::{inspect, scale, TileSpace};

    fn ins(nodes: usize) -> Inspection {
        let space = TileSpace::build(&scale::small());
        inspect(&space, nodes)
    }

    #[test]
    fn baseline_completes_all_chains() {
        let ins = ins(4);
        let rep = simulate_baseline(&ins, &BaselineCfg::new(4, 2));
        assert_eq!(rep.chains as usize, ins.num_chains());
        assert_eq!(rep.gets as usize, 2 * ins.total_gemms);
        // Every rank pays one empty NXTVAL per level, plus one per chain.
        let ranks = 8;
        assert_eq!(rep.nxtvals as usize, ins.num_chains() + ranks);
        assert!(rep.makespan > 0);
    }

    #[test]
    fn baseline_trace_has_no_overlap_per_rank() {
        let ins = ins(2);
        let rep = simulate_baseline(&ins, &BaselineCfg::new(2, 2).collect_trace(true));
        assert!(rep.trace.find_overlap().is_none());
        // The defining property of the original code: communication is
        // never overlapped with computation on the same node... within a
        // rank it is strictly interleaved. With 2 ranks per node some
        // cross-rank overlap can occur; the per-node ratio must still be
        // far from the PaRSEC variants' (checked in integration tests).
        let stats = xtrace::analyze::stats(&rep.trace);
        assert!(stats.per_class.contains_key("GET"));
        assert!(stats.per_class.contains_key("GEMM"));
        assert!(stats.per_class["NXTVAL"].0 > 0);
    }

    #[test]
    fn single_rank_has_zero_overlap() {
        let ins = ins(1);
        let rep = simulate_baseline(&ins, &BaselineCfg::new(1, 1).collect_trace(true));
        let overlap = xtrace::analyze::comm_overlap(&rep.trace);
        assert_eq!(
            overlap[&0].overlapped, 0,
            "blocking gets cannot overlap compute"
        );
        assert!(overlap[&0].comm > 0);
    }

    #[test]
    fn more_ranks_reduce_makespan_until_saturation() {
        // Needs compute-heavy GEMMs (medium scale) — at toy scales the
        // workload is pure communication and the original model cannot
        // scale at all, which is itself the paper's point taken to the
        // extreme.
        let space = TileSpace::build(&scale::medium());
        let ins4 = inspect(&space, 4);
        let t1 = simulate_baseline(&ins4, &BaselineCfg::new(4, 1)).makespan;
        let t3 = simulate_baseline(&ins4, &BaselineCfg::new(4, 3)).makespan;
        assert!(t3 < t1, "3 cores/node ({t3}) should beat 1 ({t1})");
    }
}
