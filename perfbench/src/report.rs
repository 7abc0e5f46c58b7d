//! One benchmark run's outcome: metrics with every repetition's sample,
//! output checks, and the attempted/failed tally, rendered as the
//! human-readable report, the results file and the final JSON line.

use crate::stats::{median, nearest_rank, quartiles, tail_percentile};
use std::fmt::Write as _;

/// A metric with the samples it was computed from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of this mode (end-to-end, or per-layer when traced),
    /// in the order BENCHMARK.json lists them.
    pub metrics: Vec<Metric>,
    /// Figures printed and recorded but not part of this mode's JSON.
    pub info: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Runs attempted and runs failed (any check on the run failed).
    pub attempted: u64,
    pub failed: u64,
    /// Span summary of a traced pass: (name, calls, total ns, self ns).
    pub spans: Vec<(&'static str, usize, u64, u64)>,
}

impl Outcome {
    /// Add a metric whose value is the median of `samples`.
    pub fn metric(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            samples,
        });
    }

    /// Add a metric with a value computed from `samples` by the caller.
    pub fn metric_at(&mut self, name: &str, unit: &'static str, value: f64, samples: Vec<f64>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Add a single-valued metric.
    pub fn value(&mut self, name: &str, unit: &'static str, v: f64) {
        self.metric(name, unit, vec![v]);
    }

    /// Add a printed-only figure.
    pub fn info(&mut self, name: &str, unit: &'static str, samples: Vec<f64>) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value: median(&samples),
            samples,
        });
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    /// Tally one run.
    pub fn run(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.failed == 0
            && self.checks.iter().all(|c| c.ok)
            && self
                .metrics
                .iter()
                .chain(&self.info)
                .all(|m| m.value.is_finite())
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable report.
    pub fn render_text(&self, workload: &str) -> String {
        let mut s = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = write!(
                s,
                "{workload:<10} {:<28} {:>16} {:<8}",
                m.name,
                fmt(m.value),
                m.unit
            );
            if m.samples.len() > 1 {
                let (q1, q3) = quartiles(&m.samples);
                let _ = write!(s, "  n={} q1={} q3={}", m.samples.len(), fmt(q1), fmt(q3));
            }
            s.push('\n');
        }
        let _ = writeln!(
            s,
            "{workload:<10} {:<28} {:>16} {:<8}  ({} of {} runs)",
            "failed_frac",
            fmt(self.failed_frac()),
            "fraction",
            self.failed,
            self.attempted
        );
        for (name, calls, total, own) in &self.spans {
            let _ = writeln!(
                s,
                "{workload:<10} span {:<23} calls={calls:<6} total_ms={:<12} self_ms={}",
                name,
                fmt(*total as f64 / 1e6),
                fmt(*own as f64 / 1e6)
            );
        }
        for c in &self.checks {
            let _ = writeln!(
                s,
                "{workload:<10} check {:<22} {} {}",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            );
        }
        s
    }

    /// The final result line.
    pub fn render_result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The results file: fingerprint, seed, every sample of every metric,
    /// the checks and the span summary.
    pub fn render_results(&self, header: &[(&str, String)]) -> String {
        let mut s = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(s, "  {}: {},", json_str(k), v);
        }
        let _ = writeln!(s, "  \"correct\": {},", self.correct());
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed);
        let _ = writeln!(s, "  \"failed_frac\": {},", json_num(self.failed_frac()));
        let metric_rows = |ms: &[Metric]| -> String {
            ms.iter()
                .map(|m| {
                    let samples: Vec<String> = m.samples.iter().map(|v| json_num(*v)).collect();
                    let (q1, q3) = quartiles(&m.samples);
                    format!(
                        "    {}: {{\"unit\": {}, \"value\": {}, \"q1\": {}, \"q3\": {}, \"samples\": [{}]}}",
                        json_str(&m.name),
                        json_str(m.unit),
                        json_num(m.value),
                        json_num(q1),
                        json_num(q3),
                        samples.join(", ")
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        let _ = writeln!(
            s,
            "  \"metrics\": {{\n{}\n  }},",
            metric_rows(&self.metrics)
        );
        let _ = writeln!(s, "  \"info\": {{\n{}\n  }},", metric_rows(&self.info));
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    json_str(&c.name),
                    c.ok,
                    json_str(&c.detail)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"checks\": [\n{}\n  ],", checks.join(",\n"));
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|(n, calls, total, own)| {
                format!(
                    "    {{\"name\": {}, \"calls\": {calls}, \"total_ns\": {total}, \"self_ns\": {own}}}",
                    json_str(n)
                )
            })
            .collect();
        let _ = writeln!(s, "  \"spans\": [\n{}\n  ]\n}}", spans.join(",\n"));
        s
    }
}

/// The end-to-end timings of a timed run. The work is repeated in
/// rounds, each running the same runs. Throughputs are totals over every
/// round, and a run's wall time is its mean over the rounds: on a shared
/// machine whose speed drifts for seconds at a time, a mean moves less
/// from one benchmark run to the next than a median or a minimum, which
/// jump between the machine's fast and slow spells. Every round's raw
/// sample is kept beside the value for the results file.
#[derive(Debug, Default)]
pub struct Timings {
    pub setup_s: Vec<f64>,
    /// Wall times of each run (by its index in the round), one per round.
    run_s: Vec<Vec<f64>>,
    /// Totals over every round.
    runs: usize,
    wall_s: f64,
    sim_s: f64,
    delivered: u64,
    /// One sample per round.
    runs_per_s: Vec<f64>,
    sim_s_per_wall_s: Vec<f64>,
    ns_per_delivery: Vec<f64>,
}

impl Timings {
    /// Run `run` of this round took `wall_s`.
    pub fn run(&mut self, run: usize, wall_s: f64) {
        if run >= self.run_s.len() {
            self.run_s.resize(run + 1, Vec::new());
        }
        self.run_s[run].push(wall_s);
    }

    /// One round of `runs` runs took `wall_s`, simulated `sim_s` and
    /// delivered `delivered` messages.
    pub fn round(&mut self, runs: usize, wall_s: f64, sim_s: f64, delivered: u64) {
        self.runs += runs;
        self.wall_s += wall_s;
        self.sim_s += sim_s;
        self.delivered += delivered;
        self.runs_per_s.push(runs as f64 / wall_s);
        self.sim_s_per_wall_s.push(sim_s / wall_s);
        self.ns_per_delivery
            .push(wall_s * 1e9 / delivered.max(1) as f64);
    }

    /// Append the end-to-end metrics, in BENCHMARK.json order.
    pub fn report(self, out: &mut Outcome) {
        let mean_ms: Vec<f64> = self
            .run_s
            .iter()
            .map(|w| w.iter().sum::<f64>() * 1e3 / w.len() as f64)
            .collect();
        let all_ms: Vec<f64> = self.run_s.iter().flatten().map(|w| w * 1e3).collect();
        let tail = tail_percentile(mean_ms.len());
        let rounds = self.runs_per_s.len() as f64;
        out.metric("setup_s", "s", self.setup_s);
        out.metric_at(
            "runs_per_s",
            "1/s",
            self.runs as f64 / self.wall_s,
            self.runs_per_s,
        );
        out.metric_at("run_ms_p50", "ms", median(&mean_ms), all_ms.clone());
        out.metric_at("run_ms_p90", "ms", nearest_rank(&mean_ms, tail), all_ms);
        out.metric_at(
            "sim_s_per_wall_s",
            "ratio",
            self.sim_s / self.wall_s,
            self.sim_s_per_wall_s,
        );
        out.metric_at(
            "ns_per_delivery",
            "ns",
            self.wall_s * 1e9 / self.delivered.max(1) as f64,
            self.ns_per_delivery,
        );
        out.value("peak_rss_mb", "MiB", crate::peak_rss_mb());
        out.info("run_ms_tail_percentile", "percent", vec![tail]);
        out.info("rounds", "count", vec![rounds]);
    }
}

/// A number as measured, all digits kept; non-finite values become null.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Compact display for the text report (the JSON keeps every digit).
fn fmt(v: f64) -> String {
    if v == 0.0 || (v.abs() >= 0.001 && v.abs() < 1e7) {
        format!("{v:.4}")
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.metric("setup_s", "s", vec![0.3, 0.1, 0.2]);
        o.run(true);
        let line = o.render_result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.2, \"unit\": \"s\"}}}"
        );
        o.run(false);
        assert!(!o.correct());
    }
}
