//! What one run measured and checked, the metric tables `BENCHMARK.json`
//! lists, and the statistics the workloads report.

use rlb_util::json::Value;

/// End-to-end metrics: every workload reports each of them on a
/// `--trace 0` run. `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics of a `--trace 1` run. A layer a workload never calls
/// reports 0: it did no work there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.generate_s", "s"),
    ("matchers.views_s", "s"),
    ("matchers.cs_js_s", "s"),
    ("core.linearity_s", "s"),
    ("complexity.compute_s", "s"),
    ("complexity.points", "count"),
    ("complexity.distinct_share", "ratio"),
    ("blocking.tune_s", "s"),
    ("blocking.candidates", "count"),
    ("roster.wall_s", "s"),
    ("roster.busy_s", "s"),
    ("roster.dl_busy_s", "s"),
    ("roster.ml_busy_s", "s"),
    ("roster.linear_busy_s", "s"),
    ("roster.slowest_s", "s"),
    ("roster.utilization", "ratio"),
    ("engine.ingest_ms", "ms"),
    ("engine.assess_ms", "ms"),
    ("engine.assess_scoring_ms", "ms"),
    ("engine.assess_complexity_ms", "ms"),
    ("engine.link_ms", "ms"),
    ("engine.ann_link_ms", "ms"),
    ("engine.assess_cached_share", "ratio"),
    ("serve.requests_per_s", "1/s"),
    ("serve.ingest_p50_ms", "ms"),
    ("serve.assess_p50_ms", "ms"),
    ("serve.link_p50_ms", "ms"),
    ("serve.link_p90_ms", "ms"),
    ("serve.ann_link_p50_ms", "ms"),
    ("serve.assess_wait_ms", "ms"),
    ("serve.link_wait_ms", "ms"),
    ("blocking.ann_recall10", "ratio"),
];

/// The result of one run: operation counts, failed output checks, and the
/// measured metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: layer calls on the pipeline workloads, requests
    /// on `serve-mixed`.
    pub attempted: u64,
    /// Operations that returned an error, an `ok:false` reply, a refused
    /// connection or a timeout.
    pub failed: u64,
    /// One line per failed output check; the run is correct iff empty.
    pub problems: Vec<String>,
    /// Measured values by metric name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// Records one measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Adds to a measured value (0 when not yet set).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let current = self.get(name).unwrap_or(0.0);
        self.set(name, current + value);
    }

    /// A value recorded so far.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Counts one operation and whether it failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// with every metric of the table the run kind reports. An end-to-end
    /// metric the workload did not measure, or a name outside both tables,
    /// is a bug in the benchmark and yields `Err`.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in &self.metrics {
            if !table.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the reported table"));
            }
        }
        let mut metrics = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match (self.get(name), trace) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            metrics.push((
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            ));
        }
        let line = Value::Obj(vec![
            ("correct".into(), Value::Bool(self.problems.is_empty())),
            ("attempted".into(), Value::Num(self.attempted as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(metrics)),
        ]);
        Ok(line.to_json_string())
    }
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. With `n` samples, `n - ceil(p·n/100)` samples lie
/// beyond it; the request counts of `serve-mixed` keep that at ten or more
/// for every percentile it reports. 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident set (`VmHWM`) of a process in MiB, from
/// `/proc/<pid>/status`; `pid = None` reads this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_leave_the_stated_tail() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 50.0), 100.0);
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&forty, 75.0), 30.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_rejects_missing_and_unknown_metrics() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.0);
        assert!(o.result_line(false).is_err(), "wall_s missing");
        o.set("not_a_metric", 1.0);
        assert!(o.result_line(true).is_err());
    }
}
