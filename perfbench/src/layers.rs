//! Per-layer figures gathered by a workload's traced passes, and the
//! fixed list of per-layer metrics every workload reports.
//!
//! A layer that does no work in a workload reports 0 for it, so every
//! workload prints the same metric names.

use crate::ledger::{self, OpCounts, UnitCosts};
use crate::report::Outcome;
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;
use btr_obs::{ObsRecorder, Profile, Subsystem};
use btr_sim::{SimMetrics, World};

/// Everything a workload's traced passes measured or counted.
#[derive(Debug, Default)]
pub struct Layers {
    /// Span times. Planner: seconds inside `BtrSystem::plan`, and plans
    /// built.
    pub plan_s: f64,
    pub plans: u64,
    /// Campaign: milliseconds in `schedule::generate` and per run in
    /// `verdict::score`.
    pub schedule_gen_ms: f64,
    pub score_ms: Vec<f64>,
    /// Core: per-run milliseconds in `build_world` and
    /// `judge_actuations`.
    pub build_world_ms: Vec<f64>,
    pub judge_ms: Vec<f64>,
    /// Sim: seconds inside `World::start` + `run_until`, and counters.
    pub run_s: f64,
    pub sim: SimMetrics,
    /// Counts from the subsystem profile and the traffic matrix.
    pub profile: Profile,
    pub hops: u64,
    pub routing_resident_bytes: usize,
    /// Runtime / detector / evidence counters from `NodeStats`.
    pub outputs_sent: u64,
    pub outputs_missed: u64,
    pub heartbeats_sent: u64,
    pub near_misses: u64,
    pub suppressed: u64,
    pub convictions: u64,
    pub evidence_generated: u64,
    pub evidence_forwarded: u64,
    pub evidence_rejected: u64,
    /// Heap allocations during the traced runs.
    pub allocs: u64,
    /// Wall-profiling pass: per-subsystem wall ns and the simulator wall
    /// it came from.
    pub wall_profile: Profile,
    pub wall_total_ns: u64,
    /// Wall seconds of the untraced and the traced pass over the same runs.
    pub untraced_s: f64,
    pub traced_s: f64,
    /// Isolated unit costs.
    pub units: UnitCosts,
    /// Protocol figures.
    pub protocol: Protocol,
}

/// Protocol outcome of a set of judged runs: pure functions of code and
/// seed.
#[derive(Debug, Default, Clone)]
pub struct Protocol {
    /// Bad-output windows (ms) of faulted runs whose outputs went bad.
    pub recovery_ms: Vec<f64>,
    /// Slack to R (ms) of every faulted run.
    pub slack_ms: Vec<f64>,
    pub ok_outputs: u64,
    pub total_outputs: u64,
}

impl Protocol {
    pub fn add(&mut self, faulted: bool, recovery_us: u64, slack_us: i64, bad: u64, total: u64) {
        if faulted {
            if recovery_us > 0 {
                self.recovery_ms.push(recovery_us as f64 / 1e3);
            }
            self.slack_ms.push(slack_us as f64 / 1e3);
        }
        self.ok_outputs += total.saturating_sub(bad);
        self.total_outputs += total;
    }

    pub fn acceptable_frac(&self) -> f64 {
        self.ok_outputs as f64 / self.total_outputs.max(1) as f64
    }

    /// Append the protocol figures, as metrics or as printed-only info.
    pub fn report(&self, out: &mut Outcome, as_metrics: bool) {
        let rows = [
            ("recovery_ms_p50", "sim_ms", median(&self.recovery_ms)),
            (
                "recovery_ms_max",
                "sim_ms",
                nearest_rank(&self.recovery_ms, 100.0),
            ),
            (
                "slack_ms_min",
                "sim_ms",
                self.slack_ms
                    .iter()
                    .copied()
                    .reduce(f64::min)
                    .unwrap_or(0.0),
            ),
            ("acceptable_frac", "fraction", self.acceptable_frac()),
        ];
        for (name, unit, v) in rows {
            if as_metrics {
                out.value(name, unit, v);
            } else {
                out.info(name, unit, vec![v]);
            }
        }
    }
}

/// Remove the `ObsRecorder` a world was given.
pub fn take_obs(w: &mut World) -> ObsRecorder {
    w.take_recorder()
        .and_then(|r| {
            r.as_any()
                .and_then(|a| a.downcast_ref::<ObsRecorder>().cloned())
        })
        .unwrap_or_default()
}

impl Layers {
    /// Fold one traced world's recorder and counters in.
    pub fn absorb_world(&mut self, rec: &ObsRecorder, m: &SimMetrics) {
        self.profile.merge(rec.subsystem_profile());
        self.hops += rec.traffic_matrix().link_msgs_total();
        let s = &mut self.sim;
        s.msgs_sent += m.msgs_sent;
        s.bytes_sent += m.bytes_sent;
        s.msgs_delivered += m.msgs_delivered;
        s.drops_guardian += m.drops_guardian;
        s.drops_forward += m.drops_forward;
        s.drops_other += m.drops_other;
        s.events += m.events;
        s.timers += m.timers;
        s.actuations += m.actuations;
    }

    /// Read the layer times off the traced pass's spans.
    pub fn absorb_spans(&mut self, tracer: &Tracer) {
        for s in tracer.spans() {
            let ms = s.dur_ns() as f64 / 1e6;
            match s.name {
                "planner.plan" => self.plan_s += ms / 1e3,
                "campaign.schedule_gen" => self.schedule_gen_ms += ms,
                "campaign.score" => self.score_ms.push(ms),
                "core.build_world" => self.build_world_ms.push(ms),
                "core.judge" => self.judge_ms.push(ms),
                "sim.run" => self.run_s += ms / 1e3,
                _ => {}
            }
        }
    }

    /// Fold per-node runtime stats in.
    pub fn absorb_stats(&mut self, st: &btr_runtime::NodeStats) {
        self.outputs_sent += st.outputs_sent;
        self.outputs_missed += st.outputs_missed;
        self.heartbeats_sent += st.heartbeats_sent;
        self.near_misses += st.near_miss_accusations;
        self.suppressed += st.suppressed_declarations;
        self.evidence_generated += st.evidence_generated;
        self.evidence_forwarded += st.evidence_forwarded;
        self.evidence_rejected += st.evidence_rejected;
    }

    pub fn op_counts(&self) -> OpCounts {
        OpCounts {
            signs: self.profile.count(Subsystem::CryptoSign),
            verifies: self.profile.count(Subsystem::CryptoVerify),
            audits: self.profile.count(Subsystem::Audit),
            hops: self.hops,
        }
    }

    /// Mean envelope size on the wire, with FEC overhead removed
    /// (`bytes_sent` counts every hop).
    pub fn mean_msg_bytes(&self, fec_factor: f64) -> usize {
        if self.hops == 0 {
            return 64;
        }
        (self.sim.bytes_sent as f64 / self.hops as f64 / fec_factor).round() as usize
    }

    /// Append every per-layer metric, in BENCHMARK.json order.
    pub fn report(&self, out: &mut Outcome) {
        let p = &self.profile;
        let c = |s| p.count(s) as f64;
        let delivered = self.sim.msgs_delivered.max(1) as f64;
        let per_run_mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        out.value("planner.plan_s", "s", self.plan_s);
        out.value("planner.plans", "count", self.plans as f64);
        out.value(
            "planner.ms_per_plan",
            "ms",
            if self.plans == 0 {
                0.0
            } else {
                self.plan_s * 1e3 / self.plans as f64
            },
        );
        out.value("campaign.schedule_gen_ms", "ms", self.schedule_gen_ms);
        out.value("campaign.score_ms", "ms", per_run_mean(&self.score_ms));
        out.value(
            "core.build_world_ms",
            "ms",
            per_run_mean(&self.build_world_ms),
        );
        out.value("core.judge_ms", "ms", per_run_mean(&self.judge_ms));
        out.value("sim.run_s", "s", self.run_s);
        out.value("sim.events", "count", self.sim.events as f64);
        out.value("sim.timers", "count", self.sim.timers as f64);
        out.value("sim.queue_ops", "count", c(Subsystem::Queue));
        out.value(
            "sim.ns_per_event",
            "ns",
            self.run_s * 1e9 / self.sim.events.max(1) as f64,
        );
        out.value(
            "sim.msgs_delivered",
            "count",
            self.sim.msgs_delivered as f64,
        );
        out.value("sim.bytes_sent", "bytes", self.sim.bytes_sent as f64);
        out.value(
            "sim.drops_guardian",
            "count",
            self.sim.drops_guardian as f64,
        );
        out.value(
            "sim.drops_other",
            "count",
            (self.sim.drops_other + self.sim.drops_forward) as f64,
        );
        out.value("net.route_lookups", "count", c(Subsystem::Routing));
        out.value("net.hops", "count", self.hops as f64);
        out.value(
            "net.hops_per_delivery",
            "ratio",
            self.hops as f64 / delivered,
        );
        out.value("net.route_ns_per_hop", "ns", self.units.route_ns_per_hop);
        out.value(
            "net.routing_resident_bytes",
            "bytes",
            self.routing_resident_bytes as f64,
        );
        out.value("net.fec_ns", "ns", self.units.fec_ns);
        out.value("crypto.signs", "count", c(Subsystem::CryptoSign));
        out.value("crypto.verifies", "count", c(Subsystem::CryptoVerify));
        out.value("crypto.audits", "count", c(Subsystem::Audit));
        out.value("crypto.sign_ns", "ns", self.units.sign_ns);
        out.value("crypto.verify_ns", "ns", self.units.verify_ns);
        out.value("crypto.verify_batch_ns", "ns", self.units.verify_batch_ns);
        out.value("runtime.dispatches", "count", c(Subsystem::Dispatch));
        out.value("runtime.outputs_sent", "count", self.outputs_sent as f64);
        out.value(
            "runtime.outputs_missed",
            "count",
            self.outputs_missed as f64,
        );
        out.value(
            "runtime.heartbeats_sent",
            "count",
            self.heartbeats_sent as f64,
        );
        out.value("detector.near_misses", "count", self.near_misses as f64);
        out.value("detector.suppressed", "count", self.suppressed as f64);
        out.value("detector.convictions", "count", self.convictions as f64);
        out.value(
            "evidence.generated",
            "count",
            self.evidence_generated as f64,
        );
        out.value(
            "evidence.forwarded",
            "count",
            self.evidence_forwarded as f64,
        );
        out.value("evidence.rejected", "count", self.evidence_rejected as f64);
        out.value("modeswitch.switches", "count", c(Subsystem::ModeSwitch));
        out.value(
            "alloc.per_delivery",
            "count",
            self.allocs as f64 / delivered,
        );

        let total = self.wall_total_ns.max(1) as f64;
        let pct = |s| self.wall_profile.wall_ns(s) as f64 * 100.0 / total;
        let scoped: f64 = [
            Subsystem::Routing,
            Subsystem::CryptoSign,
            Subsystem::CryptoVerify,
            Subsystem::Audit,
            Subsystem::Dispatch,
            Subsystem::ModeSwitch,
        ]
        .into_iter()
        .map(pct)
        .sum();
        out.value("wall.routing_pct", "%", pct(Subsystem::Routing));
        out.value("wall.crypto_sign_pct", "%", pct(Subsystem::CryptoSign));
        out.value("wall.crypto_verify_pct", "%", pct(Subsystem::CryptoVerify));
        out.value("wall.audit_pct", "%", pct(Subsystem::Audit));
        out.value("wall.dispatch_pct", "%", pct(Subsystem::Dispatch));
        out.value("wall.mode_switch_pct", "%", pct(Subsystem::ModeSwitch));
        out.value("wall.other_pct", "%", 100.0 - scoped);
        out.value(
            "trace.overhead_pct",
            "%",
            (self.traced_s - self.untraced_s) * 100.0 / self.untraced_s.max(1e-9),
        );

        let predicted = ledger::predicted_s(&self.op_counts(), &self.units);
        out.value("ledger.predicted_s", "s", predicted);
        out.value(
            "ledger.residual_pct",
            "%",
            (self.run_s - predicted) * 100.0 / self.run_s.max(1e-9),
        );
        out.value(
            "ns_per_hop",
            "ns",
            self.untraced_s * 1e9 / self.hops.max(1) as f64,
        );
        self.protocol.report(out, true);
    }
}
