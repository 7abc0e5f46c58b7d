//! The simulator hot-path benchmark scenario.
//!
//! A pinned 20-node end-to-end workload that stresses the per-message
//! costs of the simulator: multi-hop routing on a mesh (cached route
//! slices), per-shard FEC loss sampling (a xoshiro256** stream), signed
//! control traffic (scratch-buffer signing), and unsigned data-plane
//! traffic. Runs are deterministic per seed, which the golden tests
//! below pin down. `harness bench` measures the scenario with and
//! without a recorder installed and emits `BENCH_sim.json`.

use btr_model::{Duration, Envelope, NodeId, Payload, Time, Topology};
use btr_obs::ObsRecorder;
use btr_sim::{NodeBehavior, NodeCtx, SimConfig, SimMetrics, TimerId, World};

/// Nodes in the pinned scenario (4x5 mesh).
pub const HOTPATH_NODES: usize = 20;
/// Default period count for the headline benchmark run.
pub const HOTPATH_PERIODS: u64 = 10_000;
/// Per-shard loss probability (ppm) in the pinned scenario.
pub const HOTPATH_LOSS_PPM: u32 = 20_000;
/// FEC code of the pinned scenario: 4 data + 2 parity shards.
pub const HOTPATH_FEC: (u8, u8) = (4, 2);
/// Obs-overhead ceiling: a collecting recorder on the hot path may cost
/// at most this much wall-clock overhead (per cent).
pub const OBS_OVERHEAD_PCT: f64 = 2.0;
/// Absolute noise floor for the overhead gate: short smoke runs jitter
/// by more than 2% run-to-run, so deltas below this many nanoseconds
/// never fail the gate.
pub const OBS_NOISE_NS: u128 = 10_000_000;
/// Throughput floor (delivered msgs/s) for the pinned scenario with
/// the recorder enabled.
pub const OBS_THROUGHPUT_FLOOR: f64 = 2_300_000.0;
/// Rounds per mode in the obs-overhead A/B. Each mode's best
/// (minimum-wall) round is what the gate compares: scheduler noise
/// only ever adds time, so the minima converge on the true costs
/// while single-shot comparisons jitter by several percent.
pub const OBS_AB_ROUNDS: u32 = 3;

/// Traffic generator: every period, each node sends three unsigned
/// data-plane envelopes to distant peers (multi-hop on the mesh) and one
/// signed heartbeat to its successor.
struct Blaster {
    period: Duration,
    periods: u64,
    fired: u64,
    n: u32,
}

impl NodeBehavior for Blaster {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer(Duration(0), 0);
    }

    fn on_message(&mut self, _ctx: &mut NodeCtx<'_>, _env: Envelope) {}

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, _timer: TimerId) {
        let me = ctx.id().0;
        let n = self.n;
        // Unsigned data plane: three far peers, stride-coprime with n so
        // the whole mesh sees traffic.
        for stride in [7u32, 11, 13] {
            let dst = NodeId((me + stride) % n);
            let env = Envelope::new(
                ctx.id(),
                dst,
                ctx.local_now(),
                Payload::Control((stride % 251) as u8),
            );
            ctx.send_env(env);
        }
        // Signed control plane: heartbeat to the successor.
        ctx.send(
            NodeId((me + 1) % n),
            Payload::Heartbeat { period: self.fired },
        );
        self.fired += 1;
        if self.fired < self.periods {
            ctx.set_timer(self.period, 0);
        }
    }
}

/// Build the pinned 20-node world.
///
/// `loss_ppm` is parameterised so tests can vary the loss rate; `trace`
/// enables full event tracing for the determinism tests.
pub fn hotpath_world(seed: u64, periods: u64, loss_ppm: u32, trace: bool) -> World {
    let topo = Topology::mesh(4, 5, 1_000_000, Duration(5));
    let mut cfg = SimConfig::new(seed);
    cfg.loss_ppm = loss_ppm;
    cfg.fec = if loss_ppm > 0 {
        Some(HOTPATH_FEC)
    } else {
        None
    };
    cfg.trace = trace;
    let mut w = World::new(topo, cfg);
    for i in 0..HOTPATH_NODES as u32 {
        w.set_behavior(
            NodeId(i),
            Box::new(Blaster {
                period: w.period(),
                periods,
                fired: 0,
                n: HOTPATH_NODES as u32,
            }),
        );
    }
    w
}

/// Run the pinned scenario to completion and return its metrics.
pub fn run_hotpath(seed: u64, periods: u64, loss_ppm: u32) -> SimMetrics {
    let mut w = hotpath_world(seed, periods, loss_ppm, false);
    w.start();
    w.run_until(Time(
        periods.saturating_mul(w.period().as_micros()) + 1_000_000,
    ));
    *w.metrics()
}

/// One measured run of the pinned scenario.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeasurement {
    /// Messages accepted into the network.
    pub msgs_sent: u64,
    /// Messages delivered end to end.
    pub msgs_delivered: u64,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock nanoseconds for the run.
    pub wall_ns: u128,
    /// Heap allocations during the run (0 if no counting allocator is
    /// installed; the harness binary installs one).
    pub allocations: u64,
    /// True if the run hit the event-cap safety valve before the
    /// horizon — the measurement covers a prefix, not the scenario.
    pub truncated: bool,
}

impl HotPathMeasurement {
    /// Delivered messages per wall-clock second.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.msgs_delivered as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Wall-clock nanoseconds per delivered message.
    pub fn ns_per_delivery(&self) -> f64 {
        if self.msgs_delivered == 0 {
            return 0.0;
        }
        self.wall_ns as f64 / self.msgs_delivered as f64
    }

    /// Allocations per delivered message.
    pub fn allocs_per_delivery(&self) -> f64 {
        if self.msgs_delivered == 0 {
            return 0.0;
        }
        self.allocations as f64 / self.msgs_delivered as f64
    }
}

/// Measure the pinned scenario.
///
/// `alloc_counter` reads the process-wide allocation count (the harness
/// binary wires in its counting global allocator; library callers can
/// pass `|| 0`).
pub fn measure_hotpath(
    seed: u64,
    periods: u64,
    alloc_counter: &dyn Fn() -> u64,
) -> HotPathMeasurement {
    let mut w = hotpath_world(seed, periods, HOTPATH_LOSS_PPM, false);
    w.start();
    let horizon = Time(periods.saturating_mul(w.period().as_micros()) + 1_000_000);
    let allocs_before = alloc_counter();
    let start = std::time::Instant::now();
    w.run_until(horizon);
    let wall_ns = start.elapsed().as_nanos();
    let allocations = alloc_counter().saturating_sub(allocs_before);
    let m = w.metrics();
    HotPathMeasurement {
        msgs_sent: m.msgs_sent,
        msgs_delivered: m.msgs_delivered,
        events: m.events,
        wall_ns,
        allocations,
        truncated: w.truncated(),
    }
}

/// Measure the pinned scenario with a collecting `ObsRecorder`
/// installed — the A side of the obs-overhead gate. Returns the
/// measurement plus the recorder so callers can cross-check its
/// counters against the engine metrics.
pub fn measure_hotpath_observed(
    seed: u64,
    periods: u64,
    alloc_counter: &dyn Fn() -> u64,
) -> (HotPathMeasurement, ObsRecorder) {
    let mut w = hotpath_world(seed, periods, HOTPATH_LOSS_PPM, false);
    w.set_recorder(Box::new(ObsRecorder::new()));
    w.start();
    let horizon = Time(periods.saturating_mul(w.period().as_micros()) + 1_000_000);
    let allocs_before = alloc_counter();
    let start = std::time::Instant::now();
    w.run_until(horizon);
    let wall_ns = start.elapsed().as_nanos();
    let allocations = alloc_counter().saturating_sub(allocs_before);
    let m = *w.metrics();
    let truncated = w.truncated();
    let rec = w
        .take_recorder()
        .and_then(|r| {
            r.as_any()
                .and_then(|a| a.downcast_ref::<ObsRecorder>().cloned())
        })
        .unwrap_or_default();
    (
        HotPathMeasurement {
            msgs_sent: m.msgs_sent,
            msgs_delivered: m.msgs_delivered,
            events: m.events,
            wall_ns,
            allocations,
            truncated,
        },
        rec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_sim::TraceEvent;

    fn traced_run(seed: u64, periods: u64, loss_ppm: u32) -> (SimMetrics, Vec<TraceEvent>) {
        let mut w = hotpath_world(seed, periods, loss_ppm, true);
        w.start();
        w.run_until(Time(periods * w.period().as_micros() + 1_000_000));
        (*w.metrics(), w.trace().to_vec())
    }

    #[test]
    fn same_seed_same_mode_is_bit_identical() {
        let a = traced_run(11, 50, HOTPATH_LOSS_PPM);
        let b = traced_run(11, 50, HOTPATH_LOSS_PPM);
        assert_eq!(a.0, b.0, "metrics diverged");
        assert_eq!(a.1, b.1, "traces diverged");
    }

    #[test]
    fn different_seeds_diverge_under_loss() {
        let a = run_hotpath(1, 100, HOTPATH_LOSS_PPM);
        let b = run_hotpath(2, 100, HOTPATH_LOSS_PPM);
        assert_ne!(
            (a.drops_other, a.msgs_delivered),
            (b.drops_other, b.msgs_delivered),
            "independent seeds should sample different loss patterns"
        );
    }

    #[test]
    fn optimized_loss_rate_tracks_config() {
        // FEC(4,2) at 2% per-shard loss: a message dies iff >= 3 of its 6
        // shards drop, i.e. P = C(6,3)·0.02³·0.98³ + ... ≈ 1.5e-4. Over
        // 160 000 attempts the expectation is ~24 drops (σ ≈ 5); the band
        // below is > 4σ wide on both sides.
        let m = run_hotpath(5, 2_000, HOTPATH_LOSS_PPM);
        let attempts = m.msgs_sent + m.drops_other;
        let rate = m.drops_other as f64 / attempts as f64;
        assert!(
            (0.00004..0.0004).contains(&rate),
            "loss rate {rate} outside expected band ({} of {attempts})",
            m.drops_other
        );
    }

    #[test]
    fn arena_mode_matches_pinned_golden() {
        // The simulator's behaviour anchor: xoshiro loss stream + arena-
        // backed event queue, seed 7, 200 periods. The arena queue
        // replays the pinned scenario bit-for-bit run over run, and any
        // change to its event ordering or the loss stream moves these
        // counters.
        let m = run_hotpath(7, 200, HOTPATH_LOSS_PPM);
        let golden = SimMetrics {
            msgs_sent: 15_997,
            bytes_sent: 4_464_624,
            msgs_delivered: 15_997,
            drops_guardian: 0,
            drops_forward: 0,
            drops_other: 3,
            events: 19_997,
            timers: 4_000,
            actuations: 0,
        };
        assert_eq!(m, golden, "arena-mode pinned run changed");
    }

    #[test]
    fn arena_drains_after_run() {
        // Every queued envelope handle must be reclaimed by the time the
        // queue drains — a nonzero count here is an arena leak.
        let mut w = hotpath_world(7, 50, HOTPATH_LOSS_PPM, false);
        w.start();
        w.run_until(Time(50 * w.period().as_micros() + 1_000_000));
        assert_eq!(w.queued_events(), 0);
        assert_eq!(w.envelopes_in_flight(), 0);
    }

    #[test]
    fn observed_hotpath_matches_unobserved_run() {
        // The obs-overhead A/B is only meaningful if the observed run is
        // the *same* run: identical engine counters, and a recorder whose
        // tallies agree with the metrics it shadowed.
        use btr_obs::Counter;
        let plain = run_hotpath(7, 100, HOTPATH_LOSS_PPM);
        let (obs, rec) = measure_hotpath_observed(7, 100, &|| 0);
        assert_eq!(obs.msgs_sent, plain.msgs_sent);
        assert_eq!(obs.msgs_delivered, plain.msgs_delivered);
        assert_eq!(obs.events, plain.events);
        assert!(!obs.truncated);
        assert_eq!(rec.counter(Counter::Sends), plain.msgs_sent);
        assert_eq!(rec.counter(Counter::Delivers), plain.msgs_delivered);
        assert_eq!(rec.counter(Counter::Events), plain.events);
        assert_eq!(rec.counter(Counter::Timers), plain.timers);
    }
}
