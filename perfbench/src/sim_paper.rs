//! `sim-paper`: Table-3 rows. One operation is one algorithm run on all four
//! engines on the simulated 80-core Intel machine at 80 simulated threads.
//! Simulator accounting, the split (shardable) phases and each engine's
//! layout and placement do the work; the real-thread executor does none.

use polymer_algos::{Bfs, PageRank, Sssp};
use polymer_api::{Engine, Program, RunResult};
use polymer_core::PolymerEngine;
use polymer_galois::GaloisEngine;
use polymer_graph::{gen, Graph};
use polymer_ligra::LigraEngine;
use polymer_numa::{set_sim_sharding, Machine, MachineSpec, SimShardMode};
use polymer_xstream::XStreamEngine;

use crate::inputs::{self, adj_of, sub_seed};
use crate::oracle::{self, Adj};
use crate::report::Metrics;
use crate::spans::{median, Spans};
use crate::{Class, Op, Pass, Round, SetupTimes, Workload};

/// Simulated threads: the paper's 80-core machine, fully used.
const SIM_THREADS: usize = 80;
/// PageRank iterations of a Table-3 row (the paper times the first five).
const TABLE3_PR_ITERS: usize = 5;
/// Iterations of the long run of the set-up intercept pair, and pairs run.
const SETUP_PAIR_ITERS: usize = 5;
const SETUP_PAIRS: usize = 3;
const ENGINES: [&str; 4] = ["polymer", "ligra", "xstream", "galois"];
/// The row classes, in round order.
const ALGOS: [Class; 3] = [Class::Pr, Class::Bfs, Class::Sssp];

/// One engine's run: host ms, simulated seconds, bytes moved, iterations.
struct EngineRun {
    ms: f64,
    sim_s: f64,
    bytes: u64,
    iterations: usize,
}

/// One engine's outcome in a row: its run and values, or its error.
type Row<V> = Vec<Result<(EngineRun, Vec<V>), String>>;

/// Oracle answers for the fixed inputs.
struct Expected {
    pr: Vec<f64>,
    pr_iters: usize,
    bfs: Vec<u32>,
    sssp: Vec<u64>,
}

pub struct SimPaper {
    g: Graph,
    adj: Adj,
    spec: MachineSpec,
    source: u32,
    expected: Option<Expected>,
    /// Host ms per (engine, algorithm) over the traced pass.
    host_ms: [[Vec<f64>; 3]; 4],
    /// Simulated seconds and bytes per engine over one round.
    sim_round: [(f64, u64); 4],
    host_ns: f64,
    bytes: u64,
    rounds: usize,
}

impl SimPaper {
    pub fn new(seed: u64, spans: &mut Spans, t: &mut SetupTimes) -> SimPaper {
        // One host thread at a time: `Auto` would start one per simulated
        // socket in every phase, 8 on intel80, whatever the host has.
        set_sim_sharding(SimShardMode::Off);
        let op = spans.op();
        let scale = inputs::SIM_RMAT_SCALE;
        let m = inputs::RMAT_EDGES_PER_VERTEX << scale;
        let (el, ms) = spans.time("graph.gen.rmat", op, 0, || {
            gen::rmat(scale, m, gen::RMAT_GRAPH500, sub_seed(seed, 2))
        });
        t.generate_ms = ms;
        let (g, ms) = spans.time("graph.Graph::from_edges", op, 0, || Graph::from_edges(&el));
        t.csr_ms = ms;
        let adj = adj_of(&el);
        let source = inputs::hub_depots(&adj)[0];
        // The paper's barrier and LLC costs, scaled to this graph's size.
        let mut spec = MachineSpec::intel80();
        spec.barrier_scale = el.num_edges() as f64 / inputs::RMAT24_EDGES;
        spec.llc_scale = el.num_vertices as f64 / inputs::RMAT24_VERTICES;
        SimPaper {
            g,
            adj,
            spec,
            source,
            expected: None,
            host_ms: Default::default(),
            sim_round: [(0.0, 0); 4],
            host_ns: 0.0,
            bytes: 0,
            rounds: 0,
        }
    }

    /// Run `prog` on engine `e` on a fresh machine.
    fn run_engine<P: Program>(
        &self,
        spans: &mut Spans,
        op: u64,
        e: usize,
        prog: &P,
    ) -> (Result<RunResult<P::Val>, String>, f64) {
        let traced = spans.is_on();
        let name = format!("sim.{}.{}", ENGINES[e], prog.name());
        let anchor = spans.now_us();
        let (g, spec) = (&self.g, &self.spec);
        let (r, ms) = spans.time(&name, op, e as u64, || {
            let machine = Machine::new(spec.clone());
            match e {
                0 => PolymerEngine::new().try_run_traced(&machine, SIM_THREADS, g, prog, traced),
                1 => LigraEngine::new().try_run_traced(&machine, SIM_THREADS, g, prog, traced),
                2 => XStreamEngine::new().try_run_traced(&machine, SIM_THREADS, g, prog, traced),
                _ => GaloisEngine::new().try_run_traced(&machine, SIM_THREADS, g, prog, traced),
            }
        });
        if let Ok(r) = &r {
            if let Some(buf) = r.trace() {
                spans.merge_sim(op, anchor, e as u64, buf);
            }
        }
        (r.map_err(|e| e.to_string()), ms)
    }

    /// One Table-3 row: `prog` on all four engines. Returns each engine's
    /// run (or its error) and its values.
    fn row<P: Program>(&self, spans: &mut Spans, prog: &P) -> Row<P::Val> {
        let op = spans.op();
        (0..ENGINES.len())
            .map(|e| {
                let (r, ms) = self.run_engine(spans, op, e, prog);
                r.map(|r| {
                    let t = r.total_cost();
                    let run = EngineRun {
                        ms,
                        sim_s: r.seconds(),
                        bytes: t.bytes_local + t.bytes_remote,
                        iterations: r.iterations,
                    };
                    (run, r.values)
                })
            })
            .collect()
    }

    fn expected(&mut self) -> &Expected {
        if self.expected.is_none() {
            let a = &self.adj;
            let (pr, pr_iters) =
                oracle::pagerank_gated(&a.offsets, &a.targets, TABLE3_PR_ITERS, 0.85, 1e-9);
            self.expected = Some(Expected {
                pr,
                pr_iters,
                bfs: oracle::bfs_levels(&a.offsets, &a.targets, self.source),
                sssp: oracle::dijkstra(a, self.source),
            });
        }
        self.expected.as_ref().expect("just computed")
    }

    /// Fold one row into the round: its op, its exact counts, its checks.
    fn file<V>(
        &mut self,
        round: &mut Round,
        a: usize,
        row: Row<V>,
        check: impl Fn(&mut Self, &[V], usize) -> Result<(), String>,
    ) {
        let mut ms = 0.0;
        let mut ok = true;
        for (e, r) in row.into_iter().enumerate() {
            match r {
                Ok((run, values)) => {
                    ms += run.ms;
                    round
                        .repeat
                        .extend([run.iterations as u64, run.sim_s.to_bits(), run.bytes]);
                    if self.rounds == 0 {
                        self.sim_round[e].0 += run.sim_s;
                        self.sim_round[e].1 += run.bytes;
                    }
                    self.host_ms[e][a].push(run.ms);
                    self.host_ns += run.ms * 1e6;
                    self.bytes += run.bytes;
                    if let Err(err) = check(self, &values, run.iterations) {
                        round.errors.push(format!("{}: {err}", ENGINES[e]));
                    }
                }
                Err(err) => {
                    ok = false;
                    eprintln!("perfbench: {} failed: {err}", ENGINES[e]);
                }
            }
        }
        round.ops.push(Op {
            class: ALGOS[a],
            ms,
            ok,
        });
        round.busy_s += ms / 1e3;
    }
}

impl Workload for SimPaper {
    fn round(&mut self, spans: &mut Spans) -> Round {
        let mut round = Round::default();
        let n = self.g.num_vertices();
        let row = self.row(spans, &PageRank::new(n).with_iters(TABLE3_PR_ITERS));
        self.file(&mut round, 0, row, |s, v, it| {
            let exp = s.expected();
            oracle::check_close("PR", v, &exp.pr, oracle::PR_TOL)
                .and_then(|_| oracle::check_iterations("PR", it, exp.pr_iters))
        });
        let row = self.row(spans, &Bfs::new(self.source));
        self.file(&mut round, 1, row, |s, v, _| {
            oracle::check_exact("BFS", v, &s.expected().bfs)
        });
        let row = self.row(spans, &Sssp::new(self.source));
        self.file(&mut round, 2, row, |s, v, _| {
            oracle::check_exact("SSSP", v, &s.expected().sssp)
        });
        self.rounds += 1;
        round
    }

    fn layer_metrics(&mut self, spans: &mut Spans, _untraced: &Pass, m: &mut Metrics) {
        let n = self.g.num_vertices();
        for (e, engine) in ENGINES.iter().enumerate() {
            for (a, algo) in ["pr", "bfs", "sssp"].iter().enumerate() {
                m.set(
                    format!("sim.{engine}.{algo}_ms"),
                    median(&self.host_ms[e][a]),
                );
            }
            m.set(format!("sim.{engine}.sim_s"), self.sim_round[e].0);
            m.set(
                format!("sim.{engine}.bytes_moved"),
                self.sim_round[e].1 as f64,
            );
            // Layout and placement: the intercept of a 1-iteration and a
            // k-iteration PageRank, median of a few pairs.
            let op = spans.op();
            let intercepts: Vec<f64> = (0..SETUP_PAIRS)
                .map(|_| {
                    let (_, t1) = self.run_engine(spans, op, e, &PageRank::new(n).with_iters(1));
                    let (_, tk) = self.run_engine(
                        spans,
                        op,
                        e,
                        &PageRank::new(n).with_iters(SETUP_PAIR_ITERS),
                    );
                    t1 - (tk - t1) / (SETUP_PAIR_ITERS - 1) as f64
                })
                .collect();
            m.set(format!("sim.{engine}.setup_ms"), median(&intercepts));
        }
        m.set(
            "sim.host_ns_per_byte",
            self.host_ns / self.bytes.max(1) as f64,
        );
    }
}
