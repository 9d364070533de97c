//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("bfs_ms", "ms"),
    ("sssp_ms", "ms"),
    ("pr_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of a traced run. Every workload prints all of
/// them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("graph.symmetrize_ms", "ms"),
    ("graph.first_ingest_ms", "ms"),
    ("graph.ingest_ms", "ms"),
    ("graph.compactions", "count"),
    ("api.pr.iterations", "count"),
    ("api.bfs.iterations", "count"),
    ("api.sssp.iterations", "count"),
    ("api.cc.iterations", "count"),
    ("api.pr.us_per_iter", "us"),
    ("api.bfs.us_per_iter", "us"),
    ("api.sssp.us_per_iter", "us"),
    ("api.cc.us_per_iter", "us"),
    ("api.pr.native_ms", "ms"),
    ("api.bfs.native_ms", "ms"),
    ("api.pr.over_native", "ratio"),
    ("api.pr.scaling", "ratio"),
    ("sync.bfs.barrier_wait_share", "ratio"),
    ("sync.sssp.barrier_wait_share", "ratio"),
    ("sync.pr.barrier_wait_share", "ratio"),
    ("sim.polymer.pr_ms", "ms"),
    ("sim.polymer.bfs_ms", "ms"),
    ("sim.polymer.sssp_ms", "ms"),
    ("sim.ligra.pr_ms", "ms"),
    ("sim.ligra.bfs_ms", "ms"),
    ("sim.ligra.sssp_ms", "ms"),
    ("sim.xstream.pr_ms", "ms"),
    ("sim.xstream.bfs_ms", "ms"),
    ("sim.xstream.sssp_ms", "ms"),
    ("sim.galois.pr_ms", "ms"),
    ("sim.galois.bfs_ms", "ms"),
    ("sim.galois.sssp_ms", "ms"),
    ("sim.polymer.setup_ms", "ms"),
    ("sim.ligra.setup_ms", "ms"),
    ("sim.xstream.setup_ms", "ms"),
    ("sim.galois.setup_ms", "ms"),
    ("sim.host_ns_per_byte", "ns/B"),
    ("sim.polymer.sim_s", "s"),
    ("sim.ligra.sim_s", "s"),
    ("sim.xstream.sim_s", "s"),
    ("sim.galois.sim_s", "s"),
    ("sim.polymer.bytes_moved", "B"),
    ("sim.ligra.bytes_moved", "B"),
    ("sim.xstream.bytes_moved", "B"),
    ("sim.galois.bytes_moved", "B"),
    ("serve.submit_us", "us"),
    ("serve.solo_bfs_ms", "ms"),
    ("serve.solo_sssp_ms", "ms"),
    ("serve.solo_pr_ms", "ms"),
    ("serve.batched_bfs_ms", "ms"),
    ("serve.batched_sssp_ms", "ms"),
    ("serve.latency_p90_ms", "ms"),
    ("serve.sweeps", "count"),
    ("serve.lanes_per_sweep", "count"),
    ("serve.incremental_answers", "count"),
    ("serve.cache_hits", "count"),
    ("serve.answer_iterations", "count"),
    ("trace.overhead_pct", "%"),
];

/// Metric values by name; [`Metrics::finish`] fills in the units.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The result's `metrics` object over the catalogue `defs`, in its
    /// order: missing entries read 0, non-finite values are refused.
    pub fn finish(&self, defs: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::new();
        for &(name, unit) in defs {
            let v = self.get(name);
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        for name in self.0.keys() {
            if !defs.iter().any(|&(n, _)| n == *name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// A two-column table of the catalogue `defs`, for the log.
    pub fn table(&self, defs: &[(&str, &str)]) -> String {
        defs.iter()
            .map(|&(name, unit)| format!("  {name:<30} {:>16.6} {unit}\n", self.get(name)))
            .collect()
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
