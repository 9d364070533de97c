//! The repository benchmark: four workloads, each run from this one process,
//! printing end-to-end metrics (tracing off) or per-layer metrics (a traced
//! run) as one JSON line.
//!
//! ```text
//! perfbench --workload <host-rmat|sim-paper|serve-road|serve-road-ingest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! See README.md for why each workload exists and how its inputs are made.

mod host_rmat;
mod inputs;
mod oracle;
mod report;
mod serve_road;
mod sim_paper;
mod spans;

use report::{Metrics, END_TO_END, PER_LAYER};
use spans::{median, Spans};

/// Host cores: the busy-thread budget of every workload.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Operation classes, for per-class medians.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Pr,
    Bfs,
    Sssp,
    Cc,
    Ingest,
    /// An untimed correctness probe: it counts in `attempted` and `failed`
    /// only.
    Probe,
}

/// One operation of a round: an algorithm run, a Table-3 row, a request or
/// an ingest.
pub struct Op {
    pub class: Class,
    pub ms: f64,
    pub ok: bool,
}

/// What one round of a workload's fixed operation sequence reports.
#[derive(Default)]
pub struct Round {
    pub ops: Vec<Op>,
    /// Host time the round's operations took, excluding answer checking.
    pub busy_s: f64,
    /// Counts every round must repeat exactly.
    pub repeat: Vec<u64>,
    /// Counts the same round of another pass over the same inputs must
    /// repeat exactly (the traced and untraced passes).
    pub seq: Vec<u64>,
    /// Answers that disagree with the oracles.
    pub errors: Vec<String>,
}

/// Program time of one set-up, by stage.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub csr_ms: f64,
    pub symmetrize_ms: f64,
    pub start_ms: f64,
}

impl SetupTimes {
    fn total_s(&self) -> f64 {
        (self.generate_ms + self.csr_ms + self.symmetrize_ms + self.start_ms) / 1e3
    }
}

/// A set-up workload instance.
pub trait Workload {
    /// Work that must finish before timing starts and that users pay once
    /// per deployment, not per operation; its time is added to `setup_s`.
    fn warm_up(&mut self, _spans: &mut Spans) -> Round {
        Round::default()
    }

    /// One round of the workload's fixed operation sequence.
    fn round(&mut self, spans: &mut Spans) -> Round;

    /// Per-layer metrics from the traced pass, plus any extra measurements
    /// a layer needs (serial roofline loops, scaling runs).
    fn layer_metrics(&mut self, spans: &mut Spans, untraced: &Pass, m: &mut Metrics);
}

/// Build one workload instance; the program's set-up stages are timed into
/// `times`.
fn make(name: &str, seed: u64, spans: &mut Spans, times: &mut SetupTimes) -> Box<dyn Workload> {
    match name {
        "host-rmat" => Box::new(host_rmat::HostRmat::new(seed, spans, times)),
        "sim-paper" => Box::new(sim_paper::SimPaper::new(seed, spans, times)),
        "serve-road" => Box::new(serve_road::ServeRoad::new(seed, false, spans, times)),
        "serve-road-ingest" => Box::new(serve_road::ServeRoad::new(seed, true, spans, times)),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

const WORKLOADS: &[&str] = &["host-rmat", "sim-paper", "serve-road", "serve-road-ingest"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The rounds of one measured pass.
pub struct Pass {
    pub rounds: Vec<Round>,
}

impl Pass {
    pub fn busy_s(&self) -> f64 {
        self.rounds.iter().map(|r| r.busy_s).sum()
    }

    pub fn ops(&self) -> impl Iterator<Item = &Op> {
        self.rounds.iter().flat_map(|r| r.ops.iter())
    }

    /// Operations completed per second over one round of the fixed
    /// sequence, median over rounds. Rounds of a static graph all cost the
    /// same; with ingest, a traffic update that re-roots a large shortest-path
    /// subtree makes a rare round ten times slower, and a mean over a
    /// 20-second run would swing with how many such rounds it caught (the
    /// tail shows in `serve.latency_p90_ms`).
    pub fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| {
                let done = r.ops.iter().filter(|o| o.ok && o.class != Class::Probe);
                done.count() as f64 / r.busy_s
            })
            .collect();
        median(&rates)
    }

    /// Median operation time of `class`, ms.
    pub fn median_ms(&self, class: Class) -> f64 {
        let xs: Vec<f64> = self
            .ops()
            .filter(|o| o.class == class && o.ok)
            .map(|o| o.ms)
            .collect();
        median(&xs)
    }
}

/// Run whole rounds until the measured time reaches `seconds` (or exactly
/// `rounds` rounds, when given).
fn run_pass(w: &mut dyn Workload, spans: &mut Spans, seconds: f64, rounds: Option<usize>) -> Pass {
    let mut pass = Pass { rounds: Vec::new() };
    loop {
        let done = match rounds {
            Some(k) => pass.rounds.len() >= k,
            None => !pass.rounds.is_empty() && pass.busy_s() >= seconds,
        };
        if done {
            return pass;
        }
        pass.rounds.push(w.round(spans));
    }
}

/// Exact-repeat checks: every round repeats the first round's `repeat`
/// counts, and round `i` of `other` (the traced pass) repeats round `i`.
fn repeat_errors(pass: &Pass, other: Option<&Pass>) -> Vec<String> {
    let mut errs = Vec::new();
    if let Some(first) = pass.rounds.first() {
        for (i, r) in pass.rounds.iter().enumerate() {
            if r.repeat != first.repeat {
                errs.push(format!(
                    "round {i} counts {:?} differ from round 0 {:?}",
                    r.repeat, first.repeat
                ));
            }
        }
    }
    if let Some(other) = other {
        for (i, (a, b)) in pass.rounds.iter().zip(&other.rounds).enumerate() {
            if a.repeat != b.repeat || a.seq != b.seq {
                errs.push(format!(
                    "round {i}: untraced counts {:?}/{:?} differ from traced {:?}/{:?}",
                    a.repeat, a.seq, b.repeat, b.seq
                ));
            }
        }
    }
    errs
}

/// Set the workload up `setups` times (keeping the last instance) and warm
/// it up; returns the instance, each set-up's stage times and the warm-up.
fn set_up(
    args: &Args,
    spans: &mut Spans,
    setups: usize,
) -> (Box<dyn Workload>, Vec<SetupTimes>, Round) {
    let mut times = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..setups {
        // Drop the previous instance first so set-ups do not stack in memory.
        drop(w.take());
        let mut t = SetupTimes::default();
        w = Some(make(&args.workload, args.seed, spans, &mut t));
        times.push(t);
    }
    let mut w = w.expect("at least one set-up");
    let warm = w.warm_up(spans);
    (w, times, warm)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} host_cores {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        host_cores()
    );

    let mut metrics = Metrics::default();
    let mut errors: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut count = |r: &Round, errors: &mut Vec<String>| {
        attempted += r.ops.len() as u64;
        failed += r.ops.iter().filter(|o| !o.ok).count() as u64;
        errors.extend(r.errors.iter().cloned());
    };

    let mut setup_spans = Spans::new(args.trace);
    let (mut w, setups, warm) = set_up(&args, &mut setup_spans, SETUPS);
    count(&warm, &mut errors);
    let warm_s = warm.busy_s;
    let setup_s = median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()) + warm_s;

    if !args.trace {
        let pass = run_pass(w.as_mut(), &mut Spans::new(false), args.seconds, None);
        for r in &pass.rounds {
            count(r, &mut errors);
        }
        errors.extend(repeat_errors(&pass, None));
        let n_ops = pass
            .ops()
            .filter(|o| o.ok && o.class != Class::Probe)
            .count() as f64;
        metrics.set("setup_s", setup_s);
        metrics.set("ops_per_s", pass.ops_per_s());
        metrics.set("bfs_ms", pass.median_ms(Class::Bfs));
        metrics.set("sssp_ms", pass.median_ms(Class::Sssp));
        metrics.set("pr_ms", pass.median_ms(Class::Pr));
        metrics.set("peak_rss_mb", report::peak_rss_mb());
        eprintln!(
            "perfbench: {} rounds, {} ops in {:.3} s measured; warm-up {:.3} s",
            pass.rounds.len(),
            n_ops,
            pass.busy_s(),
            warm_s
        );
        eprint!("{}", metrics.table(END_TO_END));
        finish(&args, errors, attempted, failed, &metrics, END_TO_END);
        return;
    }

    // Traced run: an untraced pass over half the time, then a traced pass
    // over the same number of rounds from a fresh set-up, so both see the
    // same inputs and their counts must agree round by round.
    let pass_a = run_pass(w.as_mut(), &mut Spans::new(false), args.seconds / 2.0, None);
    drop(w);
    let (mut w, _, warm_b) = set_up(&args, &mut setup_spans, 1);
    count(&warm_b, &mut errors);
    let mut spans = setup_spans;
    let pass_b = run_pass(w.as_mut(), &mut spans, 0.0, Some(pass_a.rounds.len()));
    for r in pass_a.rounds.iter().chain(&pass_b.rounds) {
        count(r, &mut errors);
    }
    errors.extend(repeat_errors(&pass_a, Some(&pass_b)));
    errors.extend(repeat_errors(&pass_b, None));

    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    metrics.set("graph.generate_ms", med(|t| t.generate_ms));
    metrics.set("graph.csr_build_ms", med(|t| t.csr_ms));
    metrics.set("graph.symmetrize_ms", med(|t| t.symmetrize_ms));
    metrics.set(
        "trace.overhead_pct",
        (pass_b.busy_s() / pass_a.busy_s() - 1.0) * 100.0,
    );
    w.layer_metrics(&mut spans, &pass_a, &mut metrics);

    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.chrome_json())) {
        Ok(()) => eprintln!("perfbench: Chrome trace written to {}", path.display()),
        Err(e) => errors.push(format!("writing {}: {e}", path.display())),
    }
    eprintln!(
        "perfbench: untraced pass {:.3} s, traced pass {:.3} s over {} rounds: tracing overhead {:+.2} %",
        pass_a.busy_s(),
        pass_b.busy_s(),
        pass_a.rounds.len(),
        metrics.get("trace.overhead_pct")
    );
    eprint!("{}", metrics.table(PER_LAYER));
    finish(&args, errors, attempted, failed, &metrics, PER_LAYER);
}

fn finish(
    args: &Args,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    m: &Metrics,
    defs: &[(&str, &str)],
) {
    for e in errors.iter().take(20) {
        eprintln!("perfbench: CHECK FAILED [{}]: {e}", args.workload);
    }
    let metrics = match m.finish(defs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        errors.is_empty()
    );
}
