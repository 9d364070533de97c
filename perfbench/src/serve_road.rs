//! `serve-road` and `serve-road-ingest`: a `GraphService` on the real-thread
//! backend, one thread per request, over a roadUS-shaped grid.
//! Thousand-superstep traversals make the per-superstep work (frontier swap,
//! the multi-source lane sweep) the cost.
//!
//! Every round submits three bursts while the service is paused, so the
//! same sweeps form on every run: a BFS burst and an SSSP burst over depots
//! `[d0, d1, d2, d0]` (one coalesced four-lane sweep each on a static
//! graph) and a one-of-each burst (10-iteration PR, then BFS and SSSP from
//! `d3`, each a supervised solo run). With ingest, every burst starts with a
//! traffic update, and the answers come from the mutable graph, the overlay
//! topology and the warm-start engines, each lane's answer warm-started
//! across the three batches applied since its previous answer.
//!
//! Each ingest round also runs [`merged_window_probe`], a fixed check of a
//! warm start across two batches that re-weight the same road segment.

use std::collections::HashMap;
use std::time::Instant;

use polymer_algos::{Bfs, PageRank, Sssp, DEFAULT_PR_TOL};
use polymer_api::{Engine, Program, RealThreadsConfig};
use polymer_core::PolymerEngine;
use polymer_graph::{gen, DeltaBatch, Edge, EdgeList, Graph};
use polymer_serve::{
    GraphService, RequestKind, ResponseValues, ServeConfig, ServeResponse, ServeStats,
};

use crate::inputs::{self, adj_of, sub_seed, Traffic, TrafficUpdate};
use crate::oracle::{self, Adj, EdgeMirror};
use crate::report::Metrics;
use crate::spans::{median, quantile, Spans};
use crate::{host_cores, Class, Op, Pass, Round, SetupTimes, Workload};

/// PageRank iterations of a static-graph request.
const PR_ITERS: usize = 10;
/// Bound on the largest fixpoint residual of PageRank after an ingest. The
/// service converges residuals to `DEFAULT_PR_TOL` (1e-12) per vertex and
/// answers carry ~1e-11; an answer that missed a closure or an opening is
/// off by ~1e-6 at the segment's ends.
const RESIDUAL_TOL: f64 = 1000.0 * DEFAULT_PR_TOL;

/// Extra executor runs per algorithm for the per-layer figures.
const EXTRA_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Req {
    Bfs(u32),
    Sssp(u32),
    Pr,
}

impl Req {
    fn kind(self) -> RequestKind {
        match self {
            Req::Bfs(source) => RequestKind::Bfs { source },
            Req::Sssp(source) => RequestKind::Sssp {
                source,
                delta: Sssp::new(source).delta,
            },
            Req::Pr => RequestKind::PageRank { iters: PR_ITERS },
        }
    }

    fn class(self) -> Class {
        match self {
            Req::Bfs(_) => Class::Bfs,
            Req::Sssp(_) => Class::Sssp,
            Req::Pr => Class::Pr,
        }
    }
}

/// Oracle answers for one graph version.
#[derive(Default)]
struct Oracles {
    levels: HashMap<u32, Vec<u32>>,
    dist: HashMap<u32, Vec<u64>>,
}

/// The ingest side: traffic updates and the benchmark's edge mirror.
struct Ingest {
    traffic: Traffic,
    mirror: EdgeMirror,
}

/// Serving figures of the traced pass.
#[derive(Default)]
struct ServeLayer {
    submit_us: Vec<f64>,
    /// (class, batched, latency ms, iterations) per answered query.
    answers: Vec<(Class, bool, f64, usize)>,
    ingest_ms: Vec<f64>,
    /// Coalesced sweeps, requests they answered, incremental answers and
    /// cache hits per round (the same in every round).
    per_round: [u64; 4],
    compactions: u64,
}

pub struct ServeRoad {
    svc: GraphService,
    adj: Adj,
    depots: Vec<u32>,
    ingest: Option<Ingest>,
    oracles: Oracles,
    static_pr: Option<(Vec<f64>, usize)>,
    first_ingest_ms: f64,
    probe_reported: bool,
    layer: ServeLayer,
}

impl ServeRoad {
    pub fn new(seed: u64, ingest: bool, spans: &mut Spans, t: &mut SetupTimes) -> ServeRoad {
        let op = spans.op();
        let side = inputs::ROAD_SIDE;
        let (el, ms) = spans.time("graph.gen.road_grid", op, 0, || {
            gen::road_grid(side, side, inputs::ROAD_BOND, sub_seed(seed, 3))
        });
        t.generate_ms = ms;
        let (g, ms) = spans.time("graph.Graph::from_edges", op, 0, || Graph::from_edges(&el));
        t.csr_ms = ms;
        // One worker running each request on one thread. With two threads
        // on a two-core host, every one of a traversal's ~900 supersteps
        // waits at a barrier and each sweep phase starts its threads anew,
        // and round times spread three times wider; the barrier's share is
        // measured per layer by `executor_figures` at `host_cores` threads.
        let cfg = ServeConfig {
            workers: 1,
            threads_per_request: 1,
            ..ServeConfig::default()
        };
        let (svc, ms) = spans.time("serve.GraphService::new", op, 0, || {
            GraphService::new(g, cfg)
        });
        t.start_ms = ms;
        let svc = svc.expect("a valid service configuration");
        let ingest = ingest.then(|| Ingest {
            traffic: Traffic::new(sub_seed(seed, 4), &el, side),
            mirror: EdgeMirror::new(
                el.num_vertices,
                el.edges.iter().map(|e| (e.src, e.dst, e.weight)),
            ),
        });
        ServeRoad {
            svc,
            adj: adj_of(&el),
            depots: inputs::road_depots(&el, side),
            ingest,
            oracles: Oracles::default(),
            static_pr: None,
            first_ingest_ms: 0.0,
            probe_reported: false,
            layer: ServeLayer::default(),
        }
    }

    /// One burst: submit (with a traffic update first, when ingesting) while
    /// paused, resume, and wait for every answer in submit order.
    fn burst(&mut self, spans: &mut Spans, reqs: &[Req], round: &mut Round) {
        let update = self.ingest.as_mut().map(|i| i.traffic.next_update());
        let mut kinds: Vec<(Option<Req>, RequestKind)> = Vec::new();
        if let Some(up) = &update {
            kinds.push((
                None,
                RequestKind::Ingest {
                    batch: up.batch.clone(),
                },
            ));
        }
        kinds.extend(reqs.iter().map(|&r| (Some(r), r.kind())));

        self.svc.pause();
        let start = Instant::now();
        let mut tickets = Vec::new();
        for (req, kind) in kinds {
            let op = spans.op();
            let sent = spans.now_us();
            let (t, ms) = spans.time("serve.submit", op, 0, || self.svc.submit(kind));
            if spans.is_on() {
                self.layer.submit_us.push(ms * 1e3);
            }
            tickets.push((req, op, sent, t));
        }
        self.svc.resume();
        let mut answers = Vec::new();
        for (req, op, sent, ticket) in tickets {
            let result = ticket
                .map_err(|e| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()));
            let ms = (spans.now_us() - sent) / 1e3;
            let name = req.map_or("serve.request/Ingest", |r| match r {
                Req::Bfs(_) => "serve.request/BFS",
                Req::Sssp(_) => "serve.request/SSSP",
                Req::Pr => "serve.request/PageRank",
            });
            spans.record(name, op, 1, sent, ms * 1e3);
            let class = req.map_or(Class::Ingest, Req::class);
            round.ops.push(Op {
                class,
                ms,
                ok: result.is_ok(),
            });
            match result {
                Ok(resp) => answers.push((req, ms, resp)),
                Err(e) => eprintln!("perfbench: {name} failed: {e}"),
            }
        }
        round.busy_s += start.elapsed().as_secs_f64();

        // Everything below checks answers; none of it is timed.
        if let Some(up) = update {
            self.apply_update(&up, &answers, round);
        }
        let mutated = self.ingest.is_some();
        let batch_iters = self.batch_bfs_iterations(reqs);
        for (req, ms, resp) in &answers {
            let Some(req) = *req else { continue };
            let counts = [resp.iterations as u64, resp.batched_lanes as u64];
            if mutated {
                round.seq.extend(counts);
            } else {
                round.repeat.extend(counts);
            }
            if spans.is_on() {
                self.layer.answers.push((
                    req.class(),
                    resp.batched_lanes > 1,
                    *ms,
                    resp.iterations,
                ));
            }
            if let Err(e) = self.check(req, resp, batch_iters) {
                round.errors.push(e);
            }
        }
    }

    /// Apply an ingested traffic update to the mirror and check the
    /// service's ingest counters against the mirror's. A failed ingest
    /// changed nothing, on either side.
    fn apply_update(
        &mut self,
        up: &TrafficUpdate,
        answers: &[(Option<Req>, f64, ServeResponse)],
        round: &mut Round,
    ) {
        let Some((_, ms, resp)) = answers.iter().find(|(r, _, _)| r.is_none()) else {
            return;
        };
        let ing = self.ingest.as_mut().expect("updates only when ingesting");
        let want = ing.mirror.apply(&up.deletes, &up.inserts);
        self.adj = ing.mirror.adj();
        self.oracles = Oracles::default();
        if self.first_ingest_ms == 0.0 {
            self.first_ingest_ms = *ms;
        }
        self.layer.ingest_ms.push(*ms);
        match resp.values.ingest_stats() {
            Some(s) => {
                let got = (s.inserted, s.updated, s.deleted, s.missing);
                if got != (want.inserted, want.updated, want.deleted, want.missing) {
                    round.errors.push(format!(
                        "ingest counters {got:?}, the mirror gives {want:?}"
                    ));
                }
                round.seq.push(s.compacted as u64);
            }
            None => round
                .errors
                .push("ingest answered without counters".to_string()),
        }
    }

    /// The sweep iteration count of a coalesced BFS burst on a static graph:
    /// its deepest lane's.
    fn batch_bfs_iterations(&mut self, reqs: &[Req]) -> usize {
        let sources: Vec<u32> = reqs
            .iter()
            .filter_map(|r| if let Req::Bfs(s) = r { Some(*s) } else { None })
            .collect();
        sources
            .iter()
            .map(|&s| oracle::bfs_iterations(self.levels(s)))
            .max()
            .unwrap_or(0)
    }

    fn levels(&mut self, s: u32) -> &Vec<u32> {
        let a = &self.adj;
        self.oracles
            .levels
            .entry(s)
            .or_insert_with(|| oracle::bfs_levels(&a.offsets, &a.targets, s))
    }

    fn check(
        &mut self,
        req: Req,
        resp: &ServeResponse,
        batch_bfs_iters: usize,
    ) -> Result<(), String> {
        let mutated = self.ingest.is_some();
        match (req, &resp.values) {
            (Req::Bfs(s), ResponseValues::Levels(v)) => {
                let want = self.levels(s);
                oracle::check_exact("BFS", v, want)?;
                if mutated {
                    return Ok(());
                }
                let solo = oracle::bfs_iterations(want);
                oracle::check_iterations(
                    "BFS",
                    resp.iterations,
                    if resp.batched_lanes > 1 {
                        batch_bfs_iters
                    } else {
                        solo
                    },
                )
            }
            // After an ingest the graph changes every round: a linear-time
            // optimality certificate stands in for a fresh Dijkstra per
            // answer.
            (Req::Sssp(s), ResponseValues::Distances(v)) if mutated => {
                oracle::check_distances(&self.adj, s, v)
            }
            (Req::Sssp(s), ResponseValues::Distances(v)) => {
                let a = &self.adj;
                let want = self
                    .oracles
                    .dist
                    .entry(s)
                    .or_insert_with(|| oracle::dijkstra(a, s));
                oracle::check_exact("SSSP", v, want)
            }
            // After an ingest the service serves the converged fixpoint.
            (Req::Pr, ResponseValues::Ranks(v)) if mutated => {
                let r = oracle::pagerank_residual(&self.adj.offsets, &self.adj.targets, 0.85, v);
                if r <= RESIDUAL_TOL {
                    Ok(())
                } else {
                    Err(format!(
                        "PR: fixpoint residual {r:e} exceeds {RESIDUAL_TOL:e}"
                    ))
                }
            }
            (Req::Pr, ResponseValues::Ranks(v)) => {
                let a = &self.adj;
                let (want, it) = self.static_pr.get_or_insert_with(|| {
                    oracle::pagerank_gated(&a.offsets, &a.targets, PR_ITERS, 0.85, 1e-9)
                });
                oracle::check_close("PR", v, want, oracle::PR_TOL)
                    .and_then(|_| oracle::check_iterations("PR", resp.iterations, *it))
            }
            (r, _) => Err(format!("{r:?} answered with the wrong kind of values")),
        }
    }
}

/// A fixed check, independent of the seed, of a warm start across several
/// applied batches: a service over the path 0 → 1 → 2 (weights 5, 1) takes
/// an ingest (switching it to mutated mode), answers SSSP from 0, takes two
/// traffic updates that both re-weight 0 → 1 (to 7, then 9, each a delete
/// and an insert), and answers SSSP from 0 again, warm-started from its
/// first answer across both batches. Both answers are checked against
/// Dijkstra over the benchmark's mirror of the edges.
///
/// `AppliedBatch::merged_with` keeps the later batch's old weight (7) for a
/// pair changed in both batches, so the repair never learns that the prior
/// answer used 5, and vertex 1 keeps distance 5: the probe fails on every
/// round until that is mended, and counts in `failed`. The workload's
/// traffic model never touches a segment twice, so this probe, not the
/// seeded stream, is where the fault shows.
fn merged_window_probe() -> Result<(), String> {
    let edges = [(0, 1, 5), (1, 2, 1)];
    let mut el = EdgeList::new(3);
    for (s, t, w) in edges {
        el.push(Edge::weighted(s, t, w));
    }
    let mut mirror = EdgeMirror::new(3, edges.into_iter());
    let cfg = ServeConfig {
        workers: 1,
        threads_per_request: 1,
        ..ServeConfig::default()
    };
    let svc = GraphService::new(Graph::from_edges(&el), cfg).map_err(|e| e.to_string())?;
    let ask = |kind: RequestKind| {
        svc.submit(kind)
            .and_then(|t| t.wait())
            .map_err(|e| e.to_string())
    };
    let ingest = |mirror: &mut EdgeMirror, deletes: &[(u32, u32)], inserts: &[(u32, u32, u32)]| {
        let mut batch = DeltaBatch::new();
        for &(s, t) in deletes {
            batch.delete(s, t);
        }
        for &(s, t, w) in inserts {
            batch.insert(s, t, w);
        }
        mirror.apply(deletes, inserts);
        ask(RequestKind::Ingest { batch })
    };
    let sssp = RequestKind::Sssp {
        source: 0,
        delta: Sssp::new(0).delta,
    };
    ingest(&mut mirror, &[], &[(2, 0, 3)])?;
    let first = ask(sssp.clone())?;
    let want_first = oracle::dijkstra(&mirror.adj(), 0);
    ingest(&mut mirror, &[(0, 1)], &[(0, 1, 7)])?;
    ingest(&mut mirror, &[(0, 1)], &[(0, 1, 9)])?;
    let second = ask(sssp)?;
    let want_second = oracle::dijkstra(&mirror.adj(), 0);
    for (resp, want) in [(first, want_first), (second, want_second)] {
        match resp.values.distances() {
            Some(got) => oracle::check_exact("probe SSSP", got, &want)?,
            None => return Err("probe SSSP answered without distances".to_string()),
        }
    }
    Ok(())
}

/// Traced executor runs equal to the solo request `prog` on this graph, at
/// `host_cores` threads, for the executor and barrier figures of `key`.
fn executor_figures<P: Program>(
    spans: &mut Spans,
    m: &mut Metrics,
    key: &str,
    g: &Graph,
    prog: &P,
) {
    let cfg = RealThreadsConfig::default();
    let profile = PolymerEngine::new().exec_profile();
    let name = format!("api.{}", prog.name());
    let (mut wait, mut busy, mut iters, mut us) = (0.0, 0.0, 0, Vec::new());
    for _ in 0..EXTRA_REPS {
        let t = spans.traced_run(&name, g, prog, host_cores(), &cfg, &profile);
        wait += t.wait_us;
        busy += t.iter_us;
        us.push(t.us_per_iter());
        iters = t.result.map_or(0, |r| r.1);
    }
    m.set(format!("api.{key}.iterations"), iters as f64);
    m.set(format!("api.{key}.us_per_iter"), median(&us));
    m.set(
        format!("sync.{key}.barrier_wait_share"),
        wait / busy.max(1e-9),
    );
}

impl Workload for ServeRoad {
    /// With ingest, the first traffic update switches the service to its
    /// mutated mode and every lane's first answer after it is a cold overlay
    /// run (10–14 s in all). Users pay that once per deployment, so it is
    /// set-up: one full round, timed into `setup_s`.
    fn warm_up(&mut self, spans: &mut Spans) -> Round {
        if self.ingest.is_none() {
            return Round::default();
        }
        let was = std::mem::replace(spans, Spans::new(false));
        let r = self.round(spans);
        *spans = was;
        self.layer = ServeLayer::default();
        r
    }

    fn round(&mut self, spans: &mut Spans) -> Round {
        let mut round = Round::default();
        let before = self.svc.stats();
        let [d0, d1, d2, d3] = [
            self.depots[0],
            self.depots[1],
            self.depots[2],
            self.depots[3],
        ];
        self.burst(
            spans,
            &[Req::Bfs(d0), Req::Bfs(d1), Req::Bfs(d2), Req::Bfs(d0)],
            &mut round,
        );
        self.burst(
            spans,
            &[Req::Sssp(d0), Req::Sssp(d1), Req::Sssp(d2), Req::Sssp(d0)],
            &mut round,
        );
        self.burst(spans, &[Req::Pr, Req::Bfs(d3), Req::Sssp(d3)], &mut round);
        if self.ingest.is_some() {
            let probe = merged_window_probe();
            if let Err(e) = &probe {
                if !self.probe_reported {
                    eprintln!("perfbench: merged-window probe failed (counted in `failed`): {e}");
                    self.probe_reported = true;
                }
            }
            round.ops.push(Op {
                class: Class::Probe,
                ms: 0.0,
                ok: probe.is_ok(),
            });
        }
        let after = self.svc.stats();
        let delta = |f: fn(&ServeStats) -> u64| f(&after) - f(&before);
        let per_round = [
            delta(|s| s.batches),
            delta(|s| s.batched_requests),
            delta(|s| s.incremental_answers),
            delta(|s| s.cache_hits),
        ];
        round.repeat.extend(per_round);
        round
            .repeat
            .extend([delta(|s| s.ingests), delta(|s| s.failed)]);
        if spans.is_on() {
            self.layer.per_round = per_round;
            self.layer.compactions += delta(|s| s.compactions);
        }
        round
    }

    fn layer_metrics(&mut self, spans: &mut Spans, _untraced: &Pass, m: &mut Metrics) {
        let l = &self.layer;
        let lat = |class: Class, batched: bool| -> f64 {
            let xs: Vec<f64> = l
                .answers
                .iter()
                .filter(|a| a.0 == class && a.1 == batched)
                .map(|a| a.2)
                .collect();
            median(&xs)
        };
        m.set("serve.submit_us", median(&l.submit_us));
        m.set("serve.solo_bfs_ms", lat(Class::Bfs, false));
        m.set("serve.solo_sssp_ms", lat(Class::Sssp, false));
        m.set("serve.solo_pr_ms", lat(Class::Pr, false));
        m.set("serve.batched_bfs_ms", lat(Class::Bfs, true));
        m.set("serve.batched_sssp_ms", lat(Class::Sssp, true));
        let all: Vec<f64> = l.answers.iter().map(|a| a.2).collect();
        // A 90th percentile needs at least ten samples beyond it.
        m.set(
            "serve.latency_p90_ms",
            if all.len() >= 100 {
                quantile(&all, 0.9)
            } else {
                0.0
            },
        );
        let [sweeps, swept, incremental, hits] = l.per_round.map(|c| c as f64);
        m.set("serve.sweeps", sweeps);
        m.set(
            "serve.lanes_per_sweep",
            if sweeps > 0.0 { swept / sweeps } else { 0.0 },
        );
        m.set("serve.incremental_answers", incremental);
        m.set("serve.cache_hits", hits);
        if self.ingest.is_some() {
            let its: Vec<f64> = l.answers.iter().map(|a| a.3 as f64).collect();
            m.set("serve.answer_iterations", median(&its));
            m.set("graph.first_ingest_ms", self.first_ingest_ms);
            m.set("graph.ingest_ms", median(&l.ingest_ms));
            m.set("graph.compactions", l.compactions as f64);
        } else {
            let g = self.svc.graph();
            let d = self.depots[3];
            executor_figures(spans, m, "bfs", g, &Bfs::new(d));
            executor_figures(spans, m, "sssp", g, &Sssp::new(d));
            let pr = PageRank::new(g.num_vertices()).with_iters(PR_ITERS);
            executor_figures(spans, m, "pr", g, &pr);
        }
    }
}
