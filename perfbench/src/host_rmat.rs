//! `host-rmat`: the Polymer engine on the real-thread backend over an R-MAT
//! graph. The executor's dense, low-diameter edge phase does nearly all the
//! work; the simulator and the service do none.

use polymer_algos::{Bfs, ConnectedComponents, PageRank, Sssp};
use polymer_api::{Backend, Engine, Program, RealThreadsConfig};
use polymer_core::PolymerEngine;
use polymer_graph::{gen, Graph};
use polymer_numa::{Machine, MachineSpec};

use crate::inputs::{self, adj_of, sub_seed};
use crate::oracle::{self, Adj};
use crate::report::Metrics;
use crate::spans::{median, Spans};
use crate::{host_cores, Class, Op, Pass, Round, SetupTimes, Workload};

/// PageRank iterations per operation.
pub const PR_ITERS: usize = 10;
/// Repeats of each extra roofline / scaling measurement.
const EXTRA_REPS: usize = 3;

/// Oracle answers, computed once (the inputs never change).
struct Expected {
    pr: (Vec<f64>, usize),
    bfs: Vec<Vec<u32>>,
    sssp: Vec<Vec<u64>>,
    cc: Vec<u32>,
}

/// Per-class accumulators of the traced pass.
#[derive(Default)]
struct ClassLayer {
    iterations_per_round: u64,
    us_per_iter: Vec<f64>,
    wait_us: f64,
    iter_us: f64,
}

pub struct HostRmat {
    g: Graph,
    sym: Graph,
    adj: Adj,
    depots: Vec<u32>,
    threads: usize,
    backend: Backend,
    machine: Machine,
    engine: PolymerEngine,
    expected: Option<Expected>,
    rounds: usize,
    layer: [ClassLayer; 4],
}

impl HostRmat {
    pub fn new(seed: u64, spans: &mut Spans, t: &mut SetupTimes) -> HostRmat {
        let op = spans.op();
        let scale = inputs::HOST_RMAT_SCALE;
        let m = inputs::RMAT_EDGES_PER_VERTEX << scale;
        let (el, ms) = spans.time("graph.gen.rmat", op, 0, || {
            gen::rmat(scale, m, gen::RMAT_GRAPH500, sub_seed(seed, 1))
        });
        t.generate_ms = ms;
        let (g, csr1) = spans.time("graph.Graph::from_edges", op, 0, || Graph::from_edges(&el));
        let mut sel = el.clone();
        let ((), ms) = spans.time("graph.EdgeList::symmetrize", op, 0, || sel.symmetrize());
        t.symmetrize_ms = ms;
        let (sym, csr2) = spans.time("graph.Graph::from_edges", op, 0, || Graph::from_edges(&sel));
        t.csr_ms = csr1 + csr2;
        let adj = adj_of(&el);
        let depots = inputs::hub_depots(&adj);
        let threads = host_cores();
        HostRmat {
            g,
            sym,
            adj,
            depots,
            threads,
            backend: Backend::RealThreads(RealThreadsConfig::default()),
            machine: Machine::new(MachineSpec::test2()),
            engine: PolymerEngine::new(),
            expected: None,
            rounds: 0,
            layer: Default::default(),
        }
    }

    fn expected(&mut self) -> &Expected {
        if self.expected.is_none() {
            let a = &self.adj;
            let pairs =
                (0..a.n()).flat_map(|v| a.targets[a.range(v)].iter().map(move |&t| (v as u32, t)));
            self.expected = Some(Expected {
                pr: oracle::pagerank_gated(&a.offsets, &a.targets, PR_ITERS, 0.85, 1e-9),
                bfs: self
                    .depots
                    .iter()
                    .map(|&s| oracle::bfs_levels(&a.offsets, &a.targets, s))
                    .collect(),
                sssp: self
                    .depots
                    .iter()
                    .map(|&s| oracle::dijkstra(a, s))
                    .collect(),
                cc: oracle::components(a.n(), pairs),
            });
        }
        self.expected.as_ref().expect("just computed")
    }

    /// Run `prog` through the public entry point: `Engine::try_run_on` when
    /// untraced, the executor's traced twin with the engine's profile when
    /// traced. Returns values, iterations and host ms.
    fn run<P: Program>(
        &mut self,
        spans: &mut Spans,
        class: Class,
        sym: bool,
        prog: &P,
        threads: usize,
    ) -> Outcome<P::Val> {
        let g = if sym { &self.sym } else { &self.g };
        let name = format!("api.{}", prog.name());
        if !spans.is_on() {
            let op = spans.op();
            let (r, ms) = spans.time(&name, op, 0, || {
                self.engine
                    .try_run_on(&self.backend, &self.machine, threads, g, prog)
            });
            return (r.ok().map(|r| (r.values, r.iterations)), ms);
        }
        let Backend::RealThreads(cfg) = &self.backend else {
            unreachable!("host-rmat runs on real threads")
        };
        let t = spans.traced_run(&name, g, prog, threads, cfg, &self.engine.exec_profile());
        let l = &mut self.layer[class as usize];
        l.wait_us += t.wait_us;
        l.iter_us += t.iter_us;
        if t.result.is_some() {
            l.us_per_iter.push(t.us_per_iter());
        }
        (t.result, t.ms)
    }
}

/// A run's values and iterations (`None` if it failed) and its host ms.
type Outcome<V> = (Option<(Vec<V>, usize)>, f64);

impl Workload for HostRmat {
    fn round(&mut self, spans: &mut Spans) -> Round {
        let mut round = Round::default();
        let mut answers: Vec<(usize, Answer)> = Vec::new();
        let n = self.g.num_vertices();
        let t = self.threads;
        let push = |round: &mut Round, class, ms, iters: Option<usize>| {
            round.ops.push(Op {
                class,
                ms,
                ok: iters.is_some(),
            });
            round.busy_s += ms / 1e3;
            round.repeat.push(iters.unwrap_or(usize::MAX) as u64);
        };
        let (r, ms) = self.run(
            spans,
            Class::Pr,
            false,
            &PageRank::new(n).with_iters(PR_ITERS),
            t,
        );
        push(&mut round, Class::Pr, ms, r.as_ref().map(|x| x.1));
        if let Some((v, it)) = r {
            answers.push((0, Answer::Ranks(v, it)));
        }
        for i in 0..self.depots.len() {
            let (r, ms) = self.run(spans, Class::Bfs, false, &Bfs::new(self.depots[i]), t);
            push(&mut round, Class::Bfs, ms, r.as_ref().map(|x| x.1));
            if let Some((v, it)) = r {
                answers.push((i, Answer::Levels(v, it)));
            }
        }
        for i in 0..self.depots.len() {
            let (r, ms) = self.run(spans, Class::Sssp, false, &Sssp::new(self.depots[i]), t);
            push(&mut round, Class::Sssp, ms, r.as_ref().map(|x| x.1));
            if let Some((v, _)) = r {
                answers.push((i, Answer::Distances(v)));
            }
        }
        let (r, ms) = self.run(spans, Class::Cc, true, &ConnectedComponents::new(), t);
        push(&mut round, Class::Cc, ms, r.as_ref().map(|x| x.1));
        if let Some((v, _)) = r {
            answers.push((0, Answer::Labels(v)));
        }

        if spans.is_on() && self.rounds == 0 {
            for (o, &it) in round.ops.iter().zip(&round.repeat) {
                self.layer[o.class as usize].iterations_per_round += it;
            }
        }
        self.rounds += 1;

        let exp = self.expected();
        for (i, ans) in answers {
            let res = match ans {
                Answer::Ranks(v, it) => oracle::check_close("PR", &v, &exp.pr.0, oracle::PR_TOL)
                    .and_then(|_| oracle::check_iterations("PR", it, exp.pr.1)),
                Answer::Levels(v, it) => {
                    oracle::check_exact("BFS", &v, &exp.bfs[i]).and_then(|_| {
                        oracle::check_iterations("BFS", it, oracle::bfs_iterations(&exp.bfs[i]))
                    })
                }
                Answer::Distances(v) => oracle::check_exact("SSSP", &v, &exp.sssp[i]),
                Answer::Labels(v) => oracle::check_exact("CC", &v, &exp.cc),
            };
            if let Err(e) = res {
                round.errors.push(e);
            }
        }
        round
    }

    fn layer_metrics(&mut self, spans: &mut Spans, untraced: &Pass, m: &mut Metrics) {
        let classes = [
            (Class::Pr, "pr"),
            (Class::Bfs, "bfs"),
            (Class::Sssp, "sssp"),
            (Class::Cc, "cc"),
        ];
        for (class, key) in classes {
            let l = &self.layer[class as usize];
            m.set(
                format!("api.{key}.iterations"),
                l.iterations_per_round as f64,
            );
            m.set(format!("api.{key}.us_per_iter"), median(&l.us_per_iter));
            // CC has no barrier-wait figure in the catalogue.
            if class != Class::Cc {
                m.set(
                    format!("sync.{key}.barrier_wait_share"),
                    l.wait_us / l.iter_us.max(1e-9),
                );
            }
        }
        // The serial roofline over the program's own CSR.
        let (off, tgt) = (self.g.out_offsets(), self.g.out_targets());
        let op = spans.op();
        let native_pr: Vec<f64> = (0..EXTRA_REPS)
            .map(|_| {
                spans
                    .time("native.pagerank", op, 1, || {
                        oracle::pagerank_gated(off, tgt, PR_ITERS, 0.85, 1e-9)
                    })
                    .1
            })
            .collect();
        let native_bfs: Vec<f64> = (0..EXTRA_REPS)
            .map(|_| {
                spans
                    .time("native.bfs", op, 1, || {
                        oracle::bfs_levels(off, tgt, self.depots[0])
                    })
                    .1
            })
            .collect();
        let pr_ms = untraced.median_ms(Class::Pr);
        m.set("api.pr.native_ms", median(&native_pr));
        m.set("api.bfs.native_ms", median(&native_bfs));
        m.set("api.pr.over_native", pr_ms / median(&native_pr));
        // Scaling: the same PR on one executor thread, untraced.
        let was_on = std::mem::replace(spans, Spans::new(false));
        let n = self.g.num_vertices();
        let one: Vec<f64> = (0..EXTRA_REPS)
            .map(|_| {
                self.run(
                    spans,
                    Class::Pr,
                    false,
                    &PageRank::new(n).with_iters(PR_ITERS),
                    1,
                )
                .1
            })
            .collect();
        *spans = was_on;
        m.set("api.pr.scaling", median(&one) / pr_ms);
    }
}

enum Answer {
    Ranks(Vec<f64>, usize),
    Levels(Vec<u32>, usize),
    Distances(Vec<u64>),
    Labels(Vec<u32>),
}
