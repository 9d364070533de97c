//! The benchmark's own timeline: one span around every public call it makes
//! into the program, tagged with the operation or request id, merged with
//! the spans the program emits (executor worker spans, simulator phases)
//! and written out as a Chrome trace.

use std::fmt::Write as _;
use std::time::Instant;

use polymer_api::{parallel, ExecProfile, Program, RealThreadsConfig};
use polymer_graph::Graph;
use polymer_numa::{SharedTracer, TraceBuffer};

/// Chrome-trace process lanes.
const PID_BENCH: u32 = 1;
const PID_WORKERS: u32 = 2;
const PID_SIM: u32 = 3;

struct Event {
    name: String,
    pid: u32,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    op: u64,
}

/// Span recorder. When off, [`Spans::time`] still times the call (the
/// benchmark needs the duration either way) but records nothing.
pub struct Spans {
    on: bool,
    epoch: Instant,
    events: Vec<Event>,
    next_op: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            events: Vec::new(),
            next_op: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh operation id.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Microseconds since the recorder's epoch.
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` as the span `name` of operation `op` on lane `lane` and
    /// return its result with its duration in milliseconds.
    pub fn time<T>(&mut self, name: &str, op: u64, lane: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        if self.on {
            let ts_us = start.duration_since(self.epoch).as_secs_f64() * 1e6;
            self.push(name, PID_BENCH, lane, ts_us, dur.as_secs_f64() * 1e6, op);
        }
        (out, dur.as_secs_f64() * 1e3)
    }

    /// Record a span measured elsewhere (a request's submit → answer).
    pub fn record(&mut self, name: &str, op: u64, lane: u64, start_us: f64, dur_us: f64) {
        if self.on {
            self.push(name, PID_BENCH, lane, start_us, dur_us, op);
        }
    }

    /// Run `prog` on the real-thread executor with worker tracing, through
    /// the traced twin of `Engine::try_run_on` (`try_run_threads_traced`
    /// with the engine's `exec_profile()`), as span `name` of a fresh
    /// operation, and merge the workers' spans.
    pub fn traced_run<P: Program>(
        &mut self,
        name: &str,
        g: &Graph,
        prog: &P,
        threads: usize,
        cfg: &RealThreadsConfig,
        profile: &ExecProfile,
    ) -> TracedRun<P::Val> {
        let op = self.op();
        let origin = self.now_us();
        let tracer = SharedTracer::new(cfg.groups, threads);
        let (r, ms) = self.time(name, op, 0, || {
            parallel::try_run_threads_traced(g, prog, threads, cfg, profile, Some(&tracer))
        });
        let buf = tracer.into_buffer();
        self.merge_workers(op, origin, &buf);
        let sum = |name: &str| -> f64 {
            buf.worker_spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_us)
                .sum()
        };
        TracedRun {
            result: r.ok(),
            ms,
            wait_us: sum("barrier-wait"),
            iter_us: sum("iteration"),
        }
    }

    /// Merge the executor's wall-clock worker spans of operation `op`; the
    /// buffer's times are relative to a tracer created at `origin_us`.
    fn merge_workers(&mut self, op: u64, origin_us: f64, buf: &TraceBuffer) {
        for s in &buf.worker_spans {
            self.push(
                s.name,
                PID_WORKERS,
                s.worker as u64,
                origin_us + s.start_us,
                s.dur_us,
                op,
            );
        }
    }

    /// Merge a simulator timeline (simulated µs) of operation `op`, anchored
    /// at the operation's host start, on the lane of engine `lane`.
    pub fn merge_sim(&mut self, op: u64, anchor_us: f64, lane: u64, buf: &TraceBuffer) {
        for p in &buf.phases {
            self.push(p.name, PID_SIM, lane, anchor_us + p.start_us, p.dur_us, op);
        }
        for b in &buf.barriers {
            self.push(
                "barrier",
                PID_SIM,
                lane,
                anchor_us + b.start_us,
                b.dur_us,
                op,
            );
        }
    }

    fn push(&mut self, name: &str, pid: u32, tid: u64, ts_us: f64, dur_us: f64, op: u64) {
        self.events.push(Event {
            name: name.to_string(),
            pid,
            tid,
            ts_us,
            dur_us,
            op,
        });
    }

    /// The Chrome trace-event JSON of everything recorded.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let lanes = [
            (PID_BENCH, "benchmark (host clock)"),
            (PID_WORKERS, "executor workers (host clock)"),
            (PID_SIM, "simulator phases (simulated us from op start)"),
        ];
        for (pid, name) in lanes {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"args\":{{\"name\":\"{name}\"}}}},"
            );
        }
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i + 1 == self.events.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
                e.name.replace('"', "'"),
                e.pid,
                e.tid,
                e.ts_us,
                e.dur_us.max(0.0),
                e.op
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One traced executor run.
pub struct TracedRun<V> {
    /// Values and iterations; `None` if the run failed.
    pub result: Option<(Vec<V>, usize)>,
    /// Host time of the run, ms.
    pub ms: f64,
    /// Summed `barrier-wait` and `iteration` worker span time, µs (waits
    /// nest inside iterations).
    pub wait_us: f64,
    pub iter_us: f64,
}

impl<V> TracedRun<V> {
    /// Host µs per iteration (0 if the run failed).
    pub fn us_per_iter(&self) -> f64 {
        self.result
            .as_ref()
            .map_or(0.0, |r| self.ms * 1e3 / r.1.max(1) as f64)
    }
}
