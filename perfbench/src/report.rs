//! What a workload hands back, and the two things printed from it: the
//! full record line and the final result line.

use crate::cli::{RunArgs, Workload};
use crate::json::{self, Obj};
use crate::stats::Summary;

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("speedup_vs_f32", "x"),
    ("on_time_pct", "%"),
    ("float_agree_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("tensor.im2col.conv1_us", "us"),
    ("tensor.im2col.conv2_us", "us"),
    ("tensor.im2col.conv3_us", "us"),
    ("tensor.qgemm.conv1_us", "us"),
    ("tensor.qgemm.conv2_us", "us"),
    ("tensor.qgemm.conv3_us", "us"),
    ("tensor.shift_macs", "count"),
    ("tensor.qgemm_gmacs_per_s", "GMAC/s"),
    ("accel.conv1_us", "us"),
    ("accel.pool1_us", "us"),
    ("accel.conv2_us", "us"),
    ("accel.pool2_us", "us"),
    ("accel.conv3_us", "us"),
    ("accel.pool3_us", "us"),
    ("accel.ip_us", "us"),
    ("accel.relu_us", "us"),
    ("core.quantize_in_us", "us"),
    ("core.dequantize_out_us", "us"),
    ("core.forward_other_us", "us"),
    ("core.image_open_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.infer_us", "us"),
    ("serve.respond_us", "us"),
    ("serve.batch_mean", "count"),
    ("serve.swap_us", "us"),
    ("serve.client_other_us", "us"),
    ("http.overhead_us", "us"),
    ("nn.float_forward_us", "us"),
    ("loadgen.images_per_s", "1/s"),
    ("loadgen.latency_p50_us", "us"),
    ("loadgen.latency_p99_us", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer rows a workload's path does not contain; they are
/// reported as 0. Every other metric must be measured.
pub fn not_on_path(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Cifar10Offline => &[
            "serve.submit_us",
            "serve.queue_wait_us",
            "serve.infer_us",
            "serve.respond_us",
            "serve.batch_mean",
            "serve.swap_us",
            "serve.client_other_us",
            "http.overhead_us",
        ],
        // The serve stages are counted by the server whether or not the
        // run is traced, so there is no traced pass to set against an
        // untraced one.
        Workload::ServeOpen => &["http.overhead_us", "trace.overhead_pct"],
        // The HTTP handler calls `Server::submit` inside the server.
        Workload::HttpClosed => &["serve.submit_us", "trace.overhead_pct"],
    }
}

/// One measured metric; `summary` holds the sample it is the median
/// (or percentile) of, when there is one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// A named part of an end-to-end figure (µs); parts plus the remainder
/// add up to `total`.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub of: String,
    pub total: f64,
    pub rows: Vec<(String, f64)>,
}

impl Breakdown {
    pub fn remainder(&self) -> f64 {
        self.total - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }

    fn json(&self) -> String {
        let rows = self.rows.iter().map(|(n, v)| Obj::new().str("name", n).num("us", *v).finish());
        Obj::new()
            .str("of", &self.of)
            .num("total_us", self.total)
            .raw("rows", json::array(rows))
            .num("remainder_us", self.remainder())
            .finish()
    }
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The workload's settings, as a JSON object.
    pub config: String,
    /// Datapath layers of the traced run.
    pub layers: Vec<Breakdown>,
    /// Pipeline stages of the traced run.
    pub stages: Vec<Breakdown>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push(Metric { name: name.into(), value, summary: None });
    }

    pub fn put_summary(&mut self, name: &str, value: f64, sample: &[f64]) {
        self.metrics.push(Metric { name: name.into(), value, summary: Some(Summary::of(sample)) });
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The final result line: every end-to-end metric untraced, every
    /// per-layer metric traced. A metric the workload should have
    /// measured but did not is an error, not a silent 0.
    pub fn result_line(&self, args: &RunArgs) -> Result<String, String> {
        let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Obj::new();
        for &(name, unit) in names {
            let value = match self.get(name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(m) => return Err(format!("metric {name} is not finite ({})", m.value)),
                None if args.trace && not_on_path(args.workload).contains(&name) => 0.0,
                None => return Err(format!("{} did not measure {name}", args.workload.name())),
            };
            metrics = metrics.raw(name, Obj::new().num("value", value).str("unit", unit).finish());
        }
        Ok(Obj::new()
            .raw("correct", "true")
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", metrics.finish())
            .finish())
    }

    /// The full record: settings, environment, every metric with its
    /// sample summary, and the layer and stage breakdowns.
    pub fn record_line(&self, args: &RunArgs) -> String {
        let mut metrics = Obj::new();
        for m in &self.metrics {
            let unit = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == m.name)
                .map_or("", |(_, u)| u);
            let mut o = Obj::new().num("value", m.value).str("unit", unit);
            if let Some(s) = m.summary {
                o = o
                    .num("n", s.n as f64)
                    .num("median", s.median)
                    .num("q1", s.q1)
                    .num("q3", s.q3)
                    .num("spread", s.spread());
            }
            metrics = metrics.raw(&m.name, o.finish());
        }
        Obj::new()
            .str("record", "perfbench")
            .str("workload", args.workload.name())
            .num("seed", args.seed as f64)
            .num("seconds", args.seconds as f64)
            .num("trace", f64::from(u8::from(args.trace)))
            .str("git_rev", &git_rev())
            .raw("features", "[]")
            .num("visible_cpus", std::thread::available_parallelism().map_or(0, |n| n.get()) as f64)
            .raw("config", if self.config.is_empty() { "{}" } else { &self.config })
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .raw("metrics", metrics.finish())
            .raw("layers", json::array(self.layers.iter().map(Breakdown::json)))
            .raw("stages", json::array(self.stages.iter().map(Breakdown::json)))
            .finish()
    }
}

/// The commit being measured, read from `.git` when the run happens
/// inside a clone; "unknown" in an exported tree.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}"))
                .or_else(|| {
                    read(".git/packed-refs")?
                        .lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .map(String::from)
                })
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `BENCHMARK.json` lists exactly the metrics this program reports,
    /// with the same units, in the same order.
    #[test]
    fn spec_matches_the_program() {
        let spec = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name")?.as_str())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for w in Workload::ALL {
            for name in not_on_path(w) {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| n == name),
                    "{name} is not a per-layer metric"
                );
            }
        }
    }
}
