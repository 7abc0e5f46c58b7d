//! The experiment harness: regenerates every table/figure in
//! EXPERIMENTS.md, the hot-path perf benchmark, and the fault-injection
//! campaign engine.
//!
//! Usage:
//!
//! ```text
//! harness all               # run the full experiment suite
//! harness e1 e7 a2          # run selected experiments
//! harness bench [periods]   # A/B the simulator hot path, emit BENCH_sim.json
//! harness campaign [...]    # fault-injection campaign, emit CAMPAIGN_btr.json
//! harness --list            # list every subcommand and experiment id
//! harness --threads N ...   # worker threads (campaign + e6 planner)
//! ```

use btr_bench::experiments as exp;
use btr_bench::hotpath::{
    self, HotPathMeasurement, HOTPATH_FEC, HOTPATH_LOSS_PPM, HOTPATH_NODES, HOTPATH_PERIODS,
    OBS_NOISE_NS, OBS_OVERHEAD_PCT, OBS_THROUGHPUT_FLOOR,
};
use btr_bench::live::{self, LiveMeasurement, LIVE_PACE, LIVE_SEED, LIVE_SMOKE_PACE};
use btr_bench::profile::{self, ProfilePoint, PROFILE_FAMILIES};
use btr_bench::scale::{
    self, ScaleMeasurement, SCALE_NODES, SCALE_ROUTING_BUDGET, SCALE_SMOKE_MSGS, SCALE_TARGET_MSGS,
};
use btr_bench::signed::{
    self, SignedMeasurement, SIGNED_NODES, SIGNED_SPEEDUP_FLOOR, SIGNED_WITNESSES,
};
use btr_crypto::AuthSuite;
use btr_obs::{
    Histogram, Lat, RecoveryTimeline, SpeedscopeBuilder, Subsystem, TraceBuilder, FLIGHT_CAP,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations so `harness bench` can report allocations per
/// delivered message (the headline "allocation-free hot path" metric).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to the system allocator unchanged;
// the only addition is a relaxed counter increment.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Minimal JSON writer (serialization crates are stubbed offline; the
/// format here is flat and fully controlled).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.1}")
    } else {
        "null".to_string()
    }
}

fn measurement_json(label: &str, m: &HotPathMeasurement) -> String {
    format!(
        concat!(
            "    \"{}\": {{\n",
            "      \"msgs_sent\": {},\n",
            "      \"msgs_delivered\": {},\n",
            "      \"events\": {},\n",
            "      \"wall_ns\": {},\n",
            "      \"msgs_per_sec\": {},\n",
            "      \"ns_per_delivery\": {},\n",
            "      \"allocations\": {},\n",
            "      \"allocs_per_delivery\": {},\n",
            "      \"truncated\": {}\n",
            "    }}"
        ),
        label,
        m.msgs_sent,
        m.msgs_delivered,
        m.events,
        m.wall_ns,
        json_f64(m.msgs_per_sec()),
        json_f64(m.ns_per_delivery()),
        m.allocations,
        json_f64(m.allocs_per_delivery()),
        m.truncated,
    )
}

/// Measure the pinned signed-traffic scenario under one suite, warmup
/// included, plus the direct sign+verify pair cost.
fn measure_suite(seed: u64, suite: AuthSuite, periods: u64) -> (SignedMeasurement, f64) {
    let _ = signed::measure_signed(seed, suite, periods / 10 + 1, &alloc_count);
    let m = signed::measure_signed(seed, suite, periods, &alloc_count);
    let pair_ns = signed::measure_pair_ns(suite, 20_000);
    (m, pair_ns)
}

fn signed_suite_json(m: &SignedMeasurement, pair_ns: f64) -> String {
    format!(
        concat!(
            "      \"{}\": {{\n",
            "        \"msgs_delivered\": {},\n",
            "        \"sigs_signed\": {},\n",
            "        \"sigs_verified\": {},\n",
            "        \"wall_ns\": {},\n",
            "        \"msgs_per_sec\": {},\n",
            "        \"ns_per_delivery\": {},\n",
            "        \"sig_ops_per_sec\": {},\n",
            "        \"pair_ns\": {},\n",
            "        \"allocations\": {},\n",
            "        \"truncated\": {}\n",
            "      }}"
        ),
        m.suite.name(),
        m.msgs_delivered,
        m.sigs_signed,
        m.sigs_verified,
        m.wall_ns,
        json_f64(m.msgs_per_sec()),
        json_f64(m.ns_per_delivery()),
        json_f64(m.sig_ops_per_sec()),
        json_f64(pair_ns),
        m.allocations,
        m.truncated,
    )
}

/// Run the signed-traffic suite A/B. Returns the JSON section and
/// whether the SipHash suite met the sign+verify speedup floor.
fn run_signed_bench(periods: u64) -> (String, bool) {
    let seed = 7;
    println!(
        "signed-traffic A/B: {SIGNED_NODES}-node mesh, {periods} periods, \
         {SIGNED_WITNESSES} witnesses/message, loss-free"
    );
    let (hmac, hmac_pair) = measure_suite(seed, AuthSuite::HmacSha256, periods);
    let (sip, sip_pair) = measure_suite(seed, AuthSuite::SipHash24, periods);

    let report = |m: &SignedMeasurement, pair: f64| {
        println!(
            "  {:<12} {:>11.0} msgs/s  {:>10.0} sig-ops/s  {:>7.0} ns/delivery  {:>7.0} ns/pair",
            m.suite.name(),
            m.msgs_per_sec(),
            m.sig_ops_per_sec(),
            m.ns_per_delivery(),
            pair,
        );
    };
    report(&hmac, hmac_pair);
    report(&sip, sip_pair);
    let e2e = if sip.wall_ns > 0 {
        hmac.wall_ns as f64 / sip.wall_ns as f64
    } else {
        f64::NAN
    };
    let pair = if sip_pair > 0.0 {
        hmac_pair / sip_pair
    } else {
        f64::NAN
    };
    println!("  speedup   {pair:.2}x sign+verify, {e2e:.2}x end-to-end (same scenario, same seed)");
    let floor_ok = pair.is_finite() && pair >= SIGNED_SPEEDUP_FLOOR;
    if !floor_ok {
        eprintln!(
            "error: siphash24 sign+verify speedup {pair:.2}x is below the {SIGNED_SPEEDUP_FLOOR}x floor"
        );
    }
    if hmac.rejects != 0 || sip.rejects != 0 {
        eprintln!(
            "error: signed scenario rejected traffic (hmac {}, sip {})",
            hmac.rejects, sip.rejects
        );
    }
    if hmac.truncated || sip.truncated {
        eprintln!("error: a signed measurement hit the event-cap safety valve (truncated)");
    }
    let json = format!(
        concat!(
            "  \"signed\": {{\n",
            "    \"scenario\": {{\n",
            "      \"nodes\": {},\n",
            "      \"topology\": \"mesh-4x5\",\n",
            "      \"periods\": {},\n",
            "      \"witnesses_per_message\": {},\n",
            "      \"loss_ppm\": 0,\n",
            "      \"seed\": {}\n",
            "    }},\n",
            "    \"suites\": {{\n",
            "{},\n",
            "{}\n",
            "    }},\n",
            "    \"speedup_sign_verify\": {},\n",
            "    \"speedup_end_to_end\": {},\n",
            "    \"speedup_floor\": {}\n",
            "  }}"
        ),
        SIGNED_NODES,
        periods,
        SIGNED_WITNESSES,
        seed,
        signed_suite_json(&hmac, hmac_pair),
        signed_suite_json(&sip, sip_pair),
        json_f64(pair),
        json_f64(e2e),
        json_f64(SIGNED_SPEEDUP_FLOOR),
    );
    (
        json,
        floor_ok && hmac.rejects == 0 && sip.rejects == 0 && !hmac.truncated && !sip.truncated,
    )
}

fn run_bench(periods: u64, signed: bool, out_path: &str) {
    println!(
        "hot path: {HOTPATH_NODES}-node mesh, {periods} periods, \
         loss {HOTPATH_LOSS_PPM} ppm/shard, FEC {HOTPATH_FEC:?}"
    );
    let seed = 7;

    // Warm up once (page-in, branch predictors, route caches).
    let _ = hotpath::measure_hotpath(seed, periods / 10 + 1, &alloc_count);

    // Obs overhead A/B: the identical scenario with a collecting
    // recorder installed — the recorder sees every event, send, and
    // delivery, so this is the worst-case instrumentation cost. Wall
    // clocks on a shared machine jitter several percent run
    // to run, well above the ceiling being gated, so both modes run
    // OBS_AB_ROUNDS interleaved rounds and the best (minimum-wall)
    // round of each is compared: noise only ever adds time, so the
    // minima converge on the true costs.
    let _ = hotpath::measure_hotpath_observed(seed, periods / 10 + 1, &alloc_count);
    let mut optimized = hotpath::measure_hotpath(seed, periods, &alloc_count);
    let (mut observed, mut obs_rec) =
        hotpath::measure_hotpath_observed(seed, periods, &alloc_count);
    for _ in 1..hotpath::OBS_AB_ROUNDS {
        let o = hotpath::measure_hotpath(seed, periods, &alloc_count);
        if o.wall_ns < optimized.wall_ns {
            optimized = o;
        }
        let (b, rec) = hotpath::measure_hotpath_observed(seed, periods, &alloc_count);
        if b.wall_ns < observed.wall_ns {
            observed = b;
            obs_rec = rec;
        }
    }

    let report = |label: &str, m: &HotPathMeasurement| {
        println!(
            "  {label:<9} {:>12.0} msgs/s  {:>8.0} ns/delivery  {:>7.2} allocs/delivery  \
             ({} delivered)",
            m.msgs_per_sec(),
            m.ns_per_delivery(),
            m.allocs_per_delivery(),
            m.msgs_delivered,
        );
    };
    report("optimized", &optimized);
    report("observed", &observed);
    let obs_delta_ns = observed.wall_ns.saturating_sub(optimized.wall_ns);
    let obs_overhead_pct = if optimized.wall_ns > 0 {
        obs_delta_ns as f64 / optimized.wall_ns as f64 * 100.0
    } else {
        f64::NAN
    };
    println!(
        "  obs       +{obs_overhead_pct:.2}% wall with recorder on (ceiling {OBS_OVERHEAD_PCT}%)"
    );
    // The gated recorder also stages the per-subsystem count profile
    // and the traffic matrix, so the ceiling above prices the profiling
    // recorder too. Assert it actually collected — a recorder that
    // stopped seeing events would make the gate vacuous.
    let profile_events = obs_rec.subsystem_profile().total_count();
    let traffic_ok = obs_rec.traffic_matrix().rx_total() == observed.msgs_delivered;
    println!(
        "  profile   {profile_events} subsystem events staged inside the ceiling (traffic {})",
        if traffic_ok {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );
    let obs_profile_fail = profile_events == 0 || !traffic_ok;
    // Short smoke runs jitter more than the ceiling; the absolute noise
    // floor keeps the gate meaningful at every period count. The
    // throughput floor is only meaningful at the full pinned length,
    // and only when the un-instrumented baseline itself clears it —
    // an absolute msgs/s number calibrates the *machine*, while the
    // recorder's cost is what the relative ceiling above always gates.
    let obs_overhead_fail = obs_overhead_pct.is_finite()
        && obs_overhead_pct > OBS_OVERHEAD_PCT
        && obs_delta_ns > OBS_NOISE_NS;
    let floor_enforced =
        periods >= HOTPATH_PERIODS && optimized.msgs_per_sec() >= OBS_THROUGHPUT_FLOOR;
    let obs_floor_fail = floor_enforced && observed.msgs_per_sec() < OBS_THROUGHPUT_FLOOR;

    // The signed-traffic suite A/B rides along when requested, adding a
    // `signed` section and gating the sign+verify speedup floor.
    let (signed_json, signed_ok) = if signed {
        let (json, ok) = run_signed_bench(periods);
        (format!(",\n{json}"), ok)
    } else {
        (String::new(), true)
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sim_hot_path\",\n",
            "  \"scenario\": {{\n",
            "    \"nodes\": {},\n",
            "    \"topology\": \"mesh-4x5\",\n",
            "    \"periods\": {},\n",
            "    \"loss_ppm_per_shard\": {},\n",
            "    \"fec\": [{}, {}],\n",
            "    \"seed\": {}\n",
            "  }},\n",
            "  \"modes\": {{\n",
            "{},\n",
            "{}\n",
            "  }},\n",
            "  \"obs_overhead\": {{\n",
            "    \"overhead_pct\": {},\n",
            "    \"ceiling_pct\": {},\n",
            "    \"throughput_floor\": {},\n",
            "    \"floor_enforced\": {},\n",
            "    \"profile_events\": {},\n",
            "    \"traffic_consistent\": {}\n",
            "  }}{}\n",
            "}}\n"
        ),
        HOTPATH_NODES,
        periods,
        HOTPATH_LOSS_PPM,
        HOTPATH_FEC.0,
        HOTPATH_FEC.1,
        seed,
        measurement_json("optimized", &optimized),
        measurement_json("observed", &observed),
        json_f64(obs_overhead_pct),
        json_f64(OBS_OVERHEAD_PCT),
        json_f64(OBS_THROUGHPUT_FLOOR),
        floor_enforced,
        profile_events,
        traffic_ok,
        signed_json,
    );
    match std::fs::write(out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => {
            eprintln!("  failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    // A truncated measurement is not the pinned scenario: the safety
    // valve fired and the numbers cover a prefix. Publish the flag in
    // the JSON (above) and fail the gate.
    if optimized.truncated || observed.truncated {
        eprintln!("error: a hot-path measurement hit the event-cap safety valve (truncated)");
        std::process::exit(1);
    }
    if obs_overhead_fail {
        eprintln!(
            "error: obs overhead {obs_overhead_pct:.2}% exceeds the {OBS_OVERHEAD_PCT}% ceiling"
        );
        std::process::exit(1);
    }
    if obs_floor_fail {
        eprintln!(
            "error: observed throughput {:.0} msgs/s is below the {OBS_THROUGHPUT_FLOOR:.0} floor",
            observed.msgs_per_sec()
        );
        std::process::exit(1);
    }
    if obs_profile_fail {
        eprintln!(
            "error: the gated recorder staged {profile_events} subsystem events and its \
             traffic matrix was {}consistent with the run",
            if traffic_ok { "" } else { "in" }
        );
        std::process::exit(1);
    }
    if !signed_ok {
        std::process::exit(1);
    }
}

fn run_scale_cli(mut args: Vec<String>) {
    let seed = take_value(&mut args, "--seed").unwrap_or(7u64);
    let smoke = take_flag(&mut args, "--smoke");
    let out_path: String = take_value(&mut args, "--out").unwrap_or("BENCH_scale.json".into());
    let nodes: Vec<usize> = match take_value::<String>(&mut args, "--nodes") {
        None => SCALE_NODES.to_vec(),
        Some(list) => {
            let parsed: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
            match parsed {
                Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 2) => v,
                _ => {
                    eprintln!("error: --nodes wants a comma list of sizes >= 2, got '{list}'");
                    std::process::exit(2);
                }
            }
        }
    };
    if let Some(stray) = args.first() {
        eprintln!("error: unknown scale argument '{stray}'");
        std::process::exit(2);
    }

    let target = if smoke {
        SCALE_SMOKE_MSGS
    } else {
        SCALE_TARGET_MSGS
    };
    println!(
        "scale sweep: torus n ∈ {nodes:?}, ~{target} msgs/point, seed {seed}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut points: Vec<ScaleMeasurement> = Vec::new();
    let mut over_budget = false;
    for &n in &nodes {
        // Warm once (page-in, route materialisation) then measure.
        let _ = scale::measure_scale(n, seed, target / 10 + 1, &alloc_count);
        let m = scale::measure_scale(n, seed, target, &alloc_count);
        println!(
            "  n={:<5} {:>9} torus  {:>12.0} msgs/s  {:>7.0} ns/delivery  {:>9} routing bytes ({})  {:>6} allocs",
            m.nodes,
            format!("{}x{}", m.rows, m.cols),
            m.msgs_per_sec(),
            m.ns_per_delivery(),
            m.routing_resident_bytes,
            m.routing_kind,
            m.allocations,
        );
        if !m.within_routing_budget() {
            eprintln!(
                "error: n={} routing residency {} exceeds the sub-quadratic budget {}",
                m.nodes, m.routing_resident_bytes, SCALE_ROUTING_BUDGET
            );
            over_budget = true;
        }
        if m.msgs_delivered == 0 {
            eprintln!("error: n={} delivered nothing", m.nodes);
            over_budget = true;
        }
        if m.envelopes_leaked != 0 {
            eprintln!(
                "error: n={} leaked {} arena envelopes",
                m.nodes, m.envelopes_leaked
            );
            over_budget = true;
        }
        if m.truncated {
            eprintln!(
                "error: n={} hit the event-cap safety valve (truncated measurement)",
                m.nodes
            );
            over_budget = true;
        }
        points.push(m);
    }

    let point_json = |m: &ScaleMeasurement| {
        format!(
            concat!(
                "    {{\n",
                "      \"nodes\": {},\n",
                "      \"torus\": \"{}x{}\",\n",
                "      \"periods\": {},\n",
                "      \"msgs_sent\": {},\n",
                "      \"msgs_delivered\": {},\n",
                "      \"events\": {},\n",
                "      \"wall_ns\": {},\n",
                "      \"msgs_per_sec\": {},\n",
                "      \"ns_per_delivery\": {},\n",
                "      \"allocations\": {},\n",
                "      \"routing_kind\": \"{}\",\n",
                "      \"routing_resident_bytes\": {},\n",
                "      \"drops_forward\": {},\n",
                "      \"truncated\": {}\n",
                "    }}"
            ),
            m.nodes,
            m.rows,
            m.cols,
            m.periods,
            m.msgs_sent,
            m.msgs_delivered,
            m.events,
            m.wall_ns,
            json_f64(m.msgs_per_sec()),
            json_f64(m.ns_per_delivery()),
            m.allocations,
            m.routing_kind,
            m.routing_resident_bytes,
            m.drops_forward,
            m.truncated,
        )
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"sim_scale\",\n",
            "  \"seed\": {},\n",
            "  \"smoke\": {},\n",
            "  \"routing_budget_bytes\": {},\n",
            "  \"sweep\": [\n{}\n  ]\n",
            "}}\n"
        ),
        seed,
        smoke,
        SCALE_ROUTING_BUDGET,
        points
            .iter()
            .map(point_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => {
            eprintln!("error: failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    if over_budget {
        std::process::exit(1);
    }
}

/// `harness profile`: the deterministic hot-path profiling report.
/// Torus points at every sweep size plus one point per extra family
/// (for their distinct natural cuts), each measured by the three-pass
/// kernel in `btr_bench::profile`. Emits the JSON report, a speedscope
/// export, collapsed-stack text, and merges the torus per-n cost
/// breakdown into the scale report. Exits 1 if any point perturbed its
/// run, disagreed with `SimMetrics`, or scored fewer than two
/// candidate partitions.
fn run_profile_cli(mut args: Vec<String>) {
    let seed = take_value(&mut args, "--seed").unwrap_or(7u64);
    let smoke = take_flag(&mut args, "--smoke");
    let out_path: String = take_value(&mut args, "--out").unwrap_or("PROFILE_btr.json".into());
    let speedscope_path: String =
        take_value(&mut args, "--profile-out").unwrap_or("PROFILE_btr.speedscope.json".into());
    let stacks_path: String =
        take_value(&mut args, "--stacks-out").unwrap_or("PROFILE_btr.stacks.txt".into());
    let scale_path: String =
        take_value(&mut args, "--scale-out").unwrap_or("BENCH_scale.json".into());
    let nodes: Vec<usize> = match take_value::<String>(&mut args, "--nodes") {
        None => SCALE_NODES.to_vec(),
        Some(list) => {
            let parsed: Result<Vec<usize>, _> = list.split(',').map(str::parse).collect();
            match parsed {
                Ok(v) if !v.is_empty() && v.iter().all(|&n| n >= 2) => v,
                _ => {
                    eprintln!("error: --nodes wants a comma list of sizes >= 2, got '{list}'");
                    std::process::exit(2);
                }
            }
        }
    };
    if let Some(stray) = args.first() {
        eprintln!("error: unknown profile argument '{stray}'");
        std::process::exit(2);
    }

    let target = if smoke {
        SCALE_SMOKE_MSGS
    } else {
        SCALE_TARGET_MSGS
    };
    // The non-torus families contribute their cut structure, not a
    // scale sweep: one representative size each.
    let family_n = 100;
    println!(
        "profile sweep: torus n ∈ {nodes:?} plus {:?} at n={family_n}, \
         ~{target} msgs/point, seed {seed}{}",
        PROFILE_FAMILIES
            .iter()
            .filter(|f| **f != "torus")
            .collect::<Vec<_>>(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut points: Vec<ProfilePoint> = Vec::new();
    for &n in &nodes {
        points.push(profile::measure_profile_point("torus", n, seed, target));
    }
    for family in PROFILE_FAMILIES {
        if family != "torus" {
            points.push(profile::measure_profile_point(
                family, family_n, seed, target,
            ));
        }
    }

    let mut gate_failed = false;
    for p in &points {
        println!(
            "  {:<10} n={:<5} {:>7.0} ns/delivery  routing {:>4.1}%  crypto {:>4.1}%  \
             dispatch {:>4.1}%  other {:>4.1}%  [{}]",
            p.family,
            p.nodes,
            p.ns_per_delivery(),
            p.wall_share_pct(Subsystem::Routing),
            p.wall_share_pct(Subsystem::CryptoSign) + p.wall_share_pct(Subsystem::CryptoVerify),
            p.wall_share_pct(Subsystem::Dispatch),
            p.wall_share_pct(Subsystem::Other),
            if p.inert { "inert" } else { "PERTURBED" },
        );
        for c in &p.shard_plan {
            println!(
                "    shard {:<16} {} regions  cut {:>5.1}%  imbalance {:.2}  \
                 lookahead {} µs  ceiling {:.2}x",
                c.name,
                c.regions,
                c.cut_traffic_fraction * 100.0,
                c.imbalance,
                c.lookahead_us,
                c.predicted_ceiling,
            );
        }
        if !p.inert {
            eprintln!(
                "error: {} n={}: count profiling perturbed the run",
                p.family, p.nodes
            );
            gate_failed = true;
        }
        if !p.traffic_consistent() {
            eprintln!(
                "error: {} n={}: traffic matrix disagrees with the engine counters",
                p.family, p.nodes
            );
            gate_failed = true;
        }
        if p.shard_plan.len() < 2 {
            eprintln!(
                "error: {} n={}: only {} candidate partition(s)",
                p.family,
                p.nodes,
                p.shard_plan.len()
            );
            gate_failed = true;
        }
    }

    let point_json = |p: &ProfilePoint| {
        let counts = Subsystem::all()
            .iter()
            .map(|&s| format!("        \"{}\": {}", s.label(), p.counts.count(s)))
            .collect::<Vec<_>>()
            .join(",\n");
        let wall = Subsystem::all()
            .iter()
            .map(|&s| {
                let ns = if s == Subsystem::Other {
                    p.other_wall_ns()
                } else {
                    p.wall.wall_ns(s) as u128
                };
                format!(
                    "        \"{}\": {{\"wall_ns\": {}, \"share_pct\": {}}}",
                    s.label(),
                    ns,
                    json_frac(p.wall_share_pct(s))
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        let shard = p
            .shard_plan
            .iter()
            .map(|c| {
                format!(
                    concat!(
                        "        {{\"name\": \"{}\", \"regions\": {}, \"cut_links\": {}, ",
                        "\"cut_traffic_fraction\": {}, \"imbalance\": {}, ",
                        "\"lookahead_us\": {}, \"predicted_ceiling\": {}}}"
                    ),
                    c.name,
                    c.regions,
                    c.cut_links,
                    json_frac(c.cut_traffic_fraction),
                    json_frac(c.imbalance),
                    c.lookahead_us,
                    json_frac(c.predicted_ceiling),
                )
            })
            .collect::<Vec<_>>()
            .join(",\n");
        format!(
            concat!(
                "    {{\n",
                "      \"family\": \"{}\",\n",
                "      \"nodes\": {},\n",
                "      \"periods\": {},\n",
                "      \"msgs_delivered\": {},\n",
                "      \"baseline_wall_ns\": {},\n",
                "      \"ns_per_delivery\": {},\n",
                "      \"digest\": \"{:016x}\",\n",
                "      \"inert\": {},\n",
                "      \"counts\": {{\n{}\n      }},\n",
                "      \"wall_total_ns\": {},\n",
                "      \"wall\": {{\n{}\n      }},\n",
                "      \"traffic\": {{\n",
                "        \"tx_total\": {},\n",
                "        \"rx_total\": {},\n",
                "        \"drop_total\": {},\n",
                "        \"link_msgs_total\": {},\n",
                "        \"link_bytes_total\": {},\n",
                "        \"link_bytes_signed_total\": {},\n",
                "        \"consistent\": {}\n",
                "      }},\n",
                "      \"shard_plan\": [\n{}\n      ]\n",
                "    }}"
            ),
            p.family,
            p.nodes,
            p.periods,
            p.metrics.msgs_delivered,
            p.baseline_wall_ns,
            json_f64(p.ns_per_delivery()),
            p.digest,
            p.inert,
            counts,
            p.wall_total_ns,
            wall,
            p.traffic.tx_total(),
            p.traffic.rx_total(),
            p.traffic.drop_total(),
            p.traffic.link_msgs_total(),
            p.traffic.link_bytes_total(),
            p.traffic.link_bytes_signed_total(),
            p.traffic_consistent(),
            shard,
        )
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"report\": \"btr_profile\",\n",
            "  \"seed\": {},\n",
            "  \"smoke\": {},\n",
            "  \"points\": [\n{}\n  ]\n",
            "}}\n"
        ),
        seed,
        smoke,
        points
            .iter()
            .map(point_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    let write = |path: &str, content: &str| match std::fs::write(path, content) {
        Ok(()) => println!("  wrote {path}"),
        Err(e) => {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(2);
        }
    };
    write(&out_path, &json);

    // Speedscope: one count profile and one wall profile per point, all
    // in one file (speedscope renders them as selectable profiles).
    let mut ss = SpeedscopeBuilder::new();
    for p in &points {
        ss.add(&format!("{}-n{}-counts", p.family, p.nodes), &p.counts);
        ss.add(&format!("{}-n{}-wall", p.family, p.nodes), &p.wall);
    }
    write(&speedscope_path, &ss.finish("btr-profile"));

    let stacks: String = points
        .iter()
        .map(|p| {
            p.counts
                .collapsed_stacks(&format!("{}-n{}", p.family, p.nodes))
        })
        .collect();
    write(&stacks_path, &stacks);

    // The torus per-n cost breakdown also rides in the scale report, so
    // one artifact answers "what does a delivery cost at n".
    let scale_section = format!(
        concat!(
            "  \"profile\": {{\n",
            "    \"seed\": {},\n",
            "    \"points\": [\n{}\n    ]\n",
            "  }}"
        ),
        seed,
        points
            .iter()
            .filter(|p| p.family == "torus")
            .map(|p| {
                let shares = Subsystem::all()
                    .iter()
                    .map(|&s| format!("\"{}\": {}", s.label(), json_frac(p.wall_share_pct(s))))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!(
                    "      {{\"nodes\": {}, \"ns_per_delivery\": {}, \"shares_pct\": {{{}}}}}",
                    p.nodes,
                    json_f64(p.ns_per_delivery()),
                    shares
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match merge_section(&scale_path, "profile", &scale_section) {
        Ok(()) => println!("  wrote {scale_path} (profile section)"),
        Err(e) => {
            eprintln!("error: failed to write {scale_path}: {e}");
            std::process::exit(2);
        }
    }

    if gate_failed {
        std::process::exit(1);
    }
}

fn json_opt_u64(v: Option<u64>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_string(),
    }
}

/// Fractions (cut-traffic shares, imbalance ratios) need more precision
/// than the one-decimal `json_f64` used for rates.
fn json_frac(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

/// A histogram's p50/p95/p99 as a flat object (`Histogram::quantile`
/// returns the upper edge of the hit bucket; null quantiles mean the
/// histogram is empty).
fn quantiles_json(h: &Histogram) -> String {
    format!(
        "{{\"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
        h.count(),
        json_opt_u64(h.quantile(0.5)),
        json_opt_u64(h.quantile(0.95)),
        json_opt_u64(h.quantile(0.99)),
    )
}

/// The five-phase recovery timeline as a nested object (`null` when
/// fault-free: nothing to decompose).
fn timeline_json(t: Option<&RecoveryTimeline>) -> String {
    match t {
        None => "null".to_string(),
        Some(t) => format!(
            concat!(
                "{{\n",
                "          \"detect_us\": {},\n",
                "          \"agree_us\": {},\n",
                "          \"blackout_us\": {},\n",
                "          \"switch_us\": {},\n",
                "          \"settle_us\": {},\n",
                "          \"recovery_us\": {},\n",
                "          \"slack_to_r_us\": {}\n",
                "        }}"
            ),
            t.detect_us,
            t.agree_us,
            t.blackout_us,
            t.switch_us,
            t.settle_us,
            t.recovery_us,
            t.slack_to_r_us,
        ),
    }
}

/// One pinned scenario as JSON. `extra` carries report-specific trailing
/// keys (the obs report appends the simulator-side latency quantiles);
/// it must be empty or start with `,\n`.
fn live_scenario_json(m: &LiveMeasurement, extra: &str) -> String {
    format!(
        concat!(
            "      {{\n",
            "        \"name\": \"{}\",\n",
            "        \"nodes\": {},\n",
            "        \"horizon_us\": {},\n",
            "        \"fault\": \"{}\",\n",
            "        \"trace_match\": {},\n",
            "        \"actuations\": {},\n",
            "        \"healthy\": {},\n",
            "        \"panics\": {},\n",
            "        \"overruns\": {},\n",
            "        \"converged\": {},\n",
            "        \"recovery_us\": {},\n",
            "        \"r_bound_us\": {},\n",
            "        \"within_r\": {},\n",
            "        \"fault_wall_us\": {},\n",
            "        \"switch_wall_us\": {},\n",
            "        \"recovery_wall_us\": {},\n",
            "        \"within_r_wall\": {},\n",
            "        \"msgs_sent\": {},\n",
            "        \"mailbox_full\": {},\n",
            "        \"frontier_stalls\": {},\n",
            "        \"redrains\": {},\n",
            "        \"timer_lag_p50_us\": {},\n",
            "        \"timer_lag_p95_us\": {},\n",
            "        \"timer_lag_p99_us\": {},\n",
            "        \"timeline\": {},\n",
            "        \"wall_ms\": {}{}\n",
            "      }}"
        ),
        m.name,
        m.nodes,
        m.horizon_us,
        m.fault,
        m.trace_match,
        m.actuations,
        m.healthy,
        m.panics,
        m.overruns,
        m.converged,
        m.recovery_us,
        m.r_bound_us,
        m.within_r,
        json_opt_u64(m.fault_wall_us),
        json_opt_u64(m.switch_wall_us),
        json_opt_u64(m.recovery_wall_us),
        m.within_r_wall,
        m.msgs_sent,
        m.mailbox_full,
        m.frontier_stalls,
        m.redrains,
        m.timer_lag_p50_us,
        m.timer_lag_p95_us,
        m.timer_lag_p99_us,
        timeline_json(m.timeline.as_ref()),
        m.wall_ms,
        extra,
    )
}

/// Insert or replace the `"{key}"` section in the JSON report at
/// `path`. The harness owns every writer of these reports and the
/// merged section is always appended as the last key — so replacement
/// is a text-level truncate-and-append, not a JSON parse. `section`
/// must be the full `  "key": {...}` text (no trailing comma).
fn merge_section(path: &str, key: &str, section: &str) -> std::io::Result<()> {
    let marker = format!(",\n  \"{key}\":");
    let base = match std::fs::read_to_string(path) {
        Ok(s) => match s.find(&marker) {
            Some(i) => s[..i].to_string(),
            None => match s.trim_end().strip_suffix('}') {
                Some(t) => t.trim_end().to_string(),
                // Missing or foreign content: start a fresh object.
                None => "{".to_string(),
            },
        },
        Err(_) => "{".to_string(),
    };
    let comma = if base.trim_end().ends_with('{') {
        ""
    } else {
        ","
    };
    std::fs::write(path, format!("{base}{comma}\n{section}\n}}\n"))
}

/// Replay a campaign reproducer token on the live runtime: plan the
/// cell, run the schedule on real threads, and hold the live trace
/// against the simulator oracle.
fn run_live_replay(token: &str, pace: f64) {
    use btr_campaign as campaign;
    use btr_node::supervisor::{run_live, LiveConfig};

    let spec = match campaign::replay::parse(token) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let system = match spec.cell.plan() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if spec.max_events != 0 {
        println!(
            "note: live replay ignores the token's simulator event cap (me={})",
            spec.max_events
        );
    }
    println!(
        "live replay: {} fault(s) on {} (f={}, R={}, seed {}, pace {pace})",
        spec.scenario.faults.len(),
        spec.cell.name(),
        spec.cell.f,
        spec.cell.r_bound,
        spec.sim_seed
    );
    let reference = live::sim_trace(&system, &spec.scenario, spec.horizon, spec.sim_seed);
    let mut cfg = LiveConfig::new(spec.sim_seed);
    cfg.pace = pace;
    let report = run_live(&system, &spec.scenario, spec.horizon, &cfg);
    let judgment = system.judge_actuations(&spec.scenario, spec.horizon, &report.trace.events);
    println!(
        "  trace {} simulator ({} actuations), bad window {:.1} ms (R = {:.1} ms), converged: {}",
        if report.trace.digest() == reference.digest() {
            "matches"
        } else {
            "DIVERGES from"
        },
        report.trace.len(),
        judgment.recovery.bad_window().as_micros() as f64 / 1e3,
        spec.cell.r_bound.as_micros() as f64 / 1e3,
        report.converged,
    );
    if let Some(w) = report.last_switch_wall_us() {
        println!("  last mode switch at wall {:.1} ms", w as f64 / 1e3);
    }
    // Arbitrary tokens include over-budget and byzantine-flood schedules
    // where divergence or R violation is the finding, not a harness bug;
    // only process health gates the exit code here.
    if !report.healthy() {
        eprintln!(
            "error: live replay unhealthy (panics: {:?}, overruns: {:?})",
            report.panics, report.deadline_overruns
        );
        std::process::exit(1);
    }
}

/// One executed pinned scenario: the measurement, the raw live report
/// (for trace export and flight-dump surfacing), and the simulator
/// substrate's recorder — phase marks plus latency histograms
/// (collected only when a trace or the obs report wants them).
struct ScenarioRun {
    spec: live::LiveScenario,
    m: LiveMeasurement,
    report: btr_node::LiveReport,
    sim_rec: btr_obs::ObsRecorder,
}

/// Plan each platform size once and run every pinned scenario on both
/// substrates.
fn run_scenario_set(
    smoke: bool,
    seed: u64,
    pace: f64,
    flight_cap: usize,
    with_sim_obs: bool,
) -> Vec<ScenarioRun> {
    let specs = live::pinned_scenarios(smoke);
    let mut runs: Vec<ScenarioRun> = Vec::new();
    let mut system: Option<(usize, btr_core::BtrSystem)> = None;
    for spec in specs {
        if system.as_ref().map(|(n, _)| *n) != Some(spec.nodes) {
            system = Some((spec.nodes, live::live_system(spec.nodes)));
        }
        let sys = &system.as_ref().expect("planned above").1;
        let (m, report) = live::measure_live_with_report(sys, &spec, seed, pace, flight_cap);
        let sim_rec = if with_sim_obs {
            let scenario = match spec.fault {
                None => btr_core::FaultScenario::none(),
                Some((node, kind, at)) => btr_core::FaultScenario::single(node, kind, at),
            };
            let (_, rec) = live::sim_observed(sys, &scenario, spec.horizon, seed);
            rec
        } else {
            btr_obs::ObsRecorder::new()
        };
        runs.push(ScenarioRun {
            spec,
            m,
            report,
            sim_rec,
        });
    }
    runs
}

/// Export every scenario onto one Chrome trace, three process groups
/// apiece (pids 1.. in scenario order).
fn build_trace(runs: &[ScenarioRun]) -> TraceBuilder {
    let mut t = TraceBuilder::new();
    for (i, r) in runs.iter().enumerate() {
        let base_pid = (i as u32) * 3 + 1;
        live::export_scenario_trace(
            &mut t,
            base_pid,
            r.spec.name,
            r.sim_rec.marks(),
            &r.report,
            r.m.timeline.as_ref(),
        );
    }
    t
}

fn write_trace(path: &str, t: &TraceBuilder) {
    match std::fs::write(path, t.finish()) {
        Ok(()) => println!("  wrote {path} ({} trace events)", t.len()),
        Err(e) => {
            eprintln!("error: failed to write {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn run_live_cli(mut args: Vec<String>) {
    let smoke = take_flag(&mut args, "--smoke");
    let seed = take_value(&mut args, "--seed").unwrap_or(LIVE_SEED);
    let pace: f64 =
        take_value(&mut args, "--pace").unwrap_or(if smoke { LIVE_SMOKE_PACE } else { LIVE_PACE });
    if pace <= 0.0 || !pace.is_finite() {
        eprintln!("error: --pace must be positive, got {pace}");
        std::process::exit(2);
    }
    let out_path: String = take_value(&mut args, "--out").unwrap_or("BENCH_sim.json".into());
    let trace_out: Option<String> = take_value(&mut args, "--trace-out");
    let replay: Option<String> = take_value(&mut args, "--replay");
    let flight_cap = take_flight_cap(&mut args);
    if let Some(stray) = args.first() {
        eprintln!("error: unknown live argument '{stray}'");
        std::process::exit(2);
    }
    if let Some(token) = replay {
        if trace_out.is_some() {
            eprintln!("error: --replay does not take --trace-out");
            std::process::exit(2);
        }
        run_live_replay(&token, pace);
        return;
    }

    let runs = run_scenario_set(smoke, seed, pace, flight_cap, trace_out.is_some());
    println!(
        "live runtime: {} pinned scenario(s), seed {seed}, pace {pace}, flight cap {flight_cap}{}",
        runs.len(),
        if smoke { " (smoke)" } else { "" }
    );
    for r in &runs {
        let m = &r.m;
        println!(
            "  {:<14} {:>4} actuations  trace {}  recovery {:>7.1} ms (R {:.0} ms)  wall {}  [{}]",
            m.name,
            m.actuations,
            if m.trace_match { "ok" } else { "DIVERGED" },
            m.recovery_us as f64 / 1e3,
            m.r_bound_us as f64 / 1e3,
            match m.recovery_wall_us {
                Some(w) => format!("{:>7.1} ms", w as f64 / 1e3),
                None => "      —".to_string(),
            },
            if m.ok() { "ok" } else { "FAIL" },
        );
        if !m.healthy {
            eprintln!(
                "error: {}: {} panic(s), {} deadline overrun(s)",
                m.name, m.panics, m.overruns
            );
        }
    }
    let measurements: Vec<&LiveMeasurement> = runs.iter().map(|r| &r.m).collect();
    let json = format!(
        concat!(
            "  \"live\": {{\n",
            "    \"seed\": {},\n",
            "    \"pace\": {},\n",
            "    \"smoke\": {},\n",
            "    \"wall_slack_us\": {},\n",
            "    \"scenarios\": [\n{}\n    ]\n",
            "  }}"
        ),
        seed,
        pace,
        smoke,
        live::LIVE_WALL_SLACK_US,
        measurements
            .iter()
            .map(|m| live_scenario_json(m, ""))
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match merge_section(&out_path, "live", &json) {
        Ok(()) => println!("  wrote {out_path} (live section)"),
        Err(e) => {
            eprintln!("error: failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = trace_out {
        write_trace(&path, &build_trace(&runs));
    }
    let failed: Vec<&str> = measurements
        .iter()
        .filter(|m| !m.ok())
        .map(|m| m.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("error: live scenario gate failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

/// `harness obs`: the recovery-timeline report. Runs the pinned live
/// scenarios on both substrates, prints each fault's five-phase
/// breakdown, writes the scenario records (timelines, runtime counters,
/// flight-dump census) as JSON, and optionally exports a Chrome trace.
fn run_obs_cli(mut args: Vec<String>) {
    let smoke = take_flag(&mut args, "--smoke");
    let seed = take_value(&mut args, "--seed").unwrap_or(LIVE_SEED);
    let pace: f64 =
        take_value(&mut args, "--pace").unwrap_or(if smoke { LIVE_SMOKE_PACE } else { LIVE_PACE });
    if pace <= 0.0 || !pace.is_finite() {
        eprintln!("error: --pace must be positive, got {pace}");
        std::process::exit(2);
    }
    let out_path: String = take_value(&mut args, "--out").unwrap_or("OBS_btr.json".into());
    let trace_out: Option<String> = take_value(&mut args, "--trace-out");
    let flight_cap = take_flight_cap(&mut args);
    if let Some(stray) = args.first() {
        eprintln!("error: unknown obs argument '{stray}'");
        std::process::exit(2);
    }

    let runs = run_scenario_set(smoke, seed, pace, flight_cap, true);
    println!(
        "obs report: {} pinned scenario(s), seed {seed}, pace {pace}, flight cap {flight_cap}{}",
        runs.len(),
        if smoke { " (smoke)" } else { "" }
    );
    let ms = |us: u64| us as f64 / 1e3;
    for r in &runs {
        match &r.m.timeline {
            Some(t) => println!(
                "  {:<14} detect {:>5.1}  agree {:>5.1}  blackout {:>5.1}  switch {:>5.1}  \
                 settle {:>5.1}  = {:>5.1} ms (slack {:.1} ms)  [{}]",
                r.m.name,
                ms(t.detect_us),
                ms(t.agree_us),
                ms(t.blackout_us),
                ms(t.switch_us),
                ms(t.settle_us),
                ms(t.recovery_us),
                t.slack_to_r_us as f64 / 1e3,
                if r.m.ok() { "ok" } else { "FAIL" },
            ),
            None => println!(
                "  {:<14} fault-free: no recovery to decompose  \
                 (stalls {}, redrains {})  [{}]",
                r.m.name,
                r.m.frontier_stalls,
                r.m.redrains,
                if r.m.ok() { "ok" } else { "FAIL" },
            ),
        }
        // The latency quantiles both substrates carry: the simulator's
        // logical delivery latencies, and the live runtime's wall timer
        // lag past its paced instants.
        let d = r.sim_rec.lat(Lat::Delivery);
        println!(
            "  {:<14} delivery p50/p95/p99 {}/{}/{} µs over {} (sim)  \
             timer-lag p50/p95/p99 {}/{}/{} µs (live)",
            "",
            d.quantile(0.5).unwrap_or(0),
            d.quantile(0.95).unwrap_or(0),
            d.quantile(0.99).unwrap_or(0),
            d.count(),
            r.m.timer_lag_p50_us,
            r.m.timer_lag_p95_us,
            r.m.timer_lag_p99_us,
        );
    }
    let scenario_json = |r: &ScenarioRun| {
        let extra = format!(
            ",\n        \"sim_delivery_latency_us\": {},\n        \"sim_timer_lag_us\": {}",
            quantiles_json(r.sim_rec.lat(Lat::Delivery)),
            quantiles_json(r.sim_rec.lat(Lat::TimerLag)),
        );
        live_scenario_json(&r.m, &extra)
    };
    let json = format!(
        concat!(
            "{{\n",
            "  \"report\": \"btr_obs\",\n",
            "  \"seed\": {},\n",
            "  \"pace\": {},\n",
            "  \"smoke\": {},\n",
            "  \"flight_cap\": {},\n",
            "  \"scenarios\": [\n{}\n  ]\n",
            "}}\n"
        ),
        seed,
        pace,
        smoke,
        flight_cap,
        runs.iter()
            .map(scenario_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => {
            eprintln!("error: failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    if let Some(path) = trace_out {
        write_trace(&path, &build_trace(&runs));
    }
    let failed: Vec<&str> = runs
        .iter()
        .filter(|r| !r.m.ok())
        .map(|r| r.m.name)
        .collect();
    if !failed.is_empty() {
        eprintln!("error: obs scenario gate failed: {}", failed.join(", "));
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!(
        "usage: harness [--threads N] [--list] <command>...\n\
         \n\
         commands:\n\
         \x20 all                run the full experiment suite (e1..e10 a1 a2 r1)\n\
         \x20 e1 .. e10 a1 a2 r1 individual experiments (see --list)\n\
         \x20 bench [periods] [--signed]\n\
         \x20                    hot-path throughput + obs overhead (BENCH_sim.json); --signed\n\
         \x20                    adds the hmac-vs-siphash signed-traffic A/B and gates\n\
         \x20                    the sign+verify speedup floor\n\
         \x20 scale [opts]       thousand-node torus sweep (emits BENCH_scale.json)\n\
         \x20 profile [opts]     deterministic hot-path profiling: per-subsystem cost\n\
         \x20                    breakdowns, traffic-matrix attribution, and the\n\
         \x20                    shard-partition plan (emits PROFILE_btr.json plus\n\
         \x20                    speedscope and collapsed-stack exports)\n\
         \x20 live [opts]        pinned fault scenarios on the live thread-per-node\n\
         \x20                    runtime, simulator as trace oracle (live section in\n\
         \x20                    BENCH_sim.json)\n\
         \x20 obs [opts]         recovery-timeline report: per-fault five-phase breakdowns\n\
         \x20                    for the pinned live scenarios, plus optional Chrome\n\
         \x20                    trace-event export (emits OBS_btr.json)\n\
         \x20 campaign [opts]    parallel fault-injection campaign (emits CAMPAIGN_btr.json)\n\
         \x20 fuzz [opts]        coverage-guided fault-schedule search over the f=3 hunting\n\
         \x20                    grid (emits FUZZ_btr.json; byte-identical at any thread count)\n\
         \n\
         global options:\n\
         \x20 --threads N        worker threads for campaign and the e6 planner\n\
         \x20                    (default: available parallelism)\n\
         \n\
         campaign options:\n\
         \x20 --runs N           target run count (default 256)\n\
         \x20 --seed S           campaign seed (default 42)\n\
         \x20 --sim-seeds K      simulator seeds per schedule (default 2)\n\
         \x20 --combos           sequential multi-fault schedules up to budget f\n\
         \x20 --over-budget      add f+1-fault schedules (inadmissible; exercises the shrinker)\n\
         \x20 --all-variants     every fault variant on every cell (alias of the default grid)\n\
         \x20 --auth SUITE       hmac | sip force one authenticator suite on every cell;\n\
         \x20                    both twins each cell with a `-sip` SipHash copy\n\
         \x20 --out PATH         report path (default CAMPAIGN_btr.json)\n\
         \x20 --replay TOKEN     re-execute one reproducer token and print its verdicts\n\
         \n\
         fuzz options:\n\
         \x20 --budget N         total simulation runs to spend (default 128)\n\
         \x20 --seed S           fuzzer seed (default 42)\n\
         \x20 --out PATH         report path (default FUZZ_btr.json)\n\
         \n\
         scale options:\n\
         \x20 --nodes N,N,...    sweep sizes (default 20,100,400,1000)\n\
         \x20 --seed S           simulator seed (default 7)\n\
         \x20 --smoke            ~10x fewer messages per point (CI budget)\n\
         \x20 --out PATH         report path (default BENCH_scale.json)\n\
         \n\
         profile options:\n\
         \x20 --nodes N,N,...    torus sweep sizes (default 20,100,400,1000)\n\
         \x20 --seed S           simulator seed (default 7)\n\
         \x20 --smoke            ~10x fewer messages per point (CI budget)\n\
         \x20 --out PATH         JSON report path (default PROFILE_btr.json)\n\
         \x20 --profile-out PATH speedscope export (default PROFILE_btr.speedscope.json)\n\
         \x20 --stacks-out PATH  collapsed-stack text (default PROFILE_btr.stacks.txt)\n\
         \x20 --scale-out PATH   scale report to merge the torus cost breakdown into\n\
         \x20                    (default BENCH_scale.json)\n\
         \n\
         live options:\n\
         \x20 --smoke            small fleet, short horizons, double speed (CI budget)\n\
         \x20 --seed S           run seed (default 7)\n\
         \x20 --pace X           wall-us per logical-us (default 1.0; 0.5 under --smoke)\n\
         \x20 --flight-cap N     per-node flight-recorder ring capacity (default 32)\n\
         \x20 --out PATH         report to merge into (default BENCH_sim.json)\n\
         \x20 --trace-out PATH   Chrome trace_event JSON (chrome://tracing, Perfetto)\n\
         \x20 --replay TOKEN     run one campaign reproducer token on the live runtime\n\
         \n\
         obs options:\n\
         \x20 --smoke            small fleet, short horizons, double speed (CI budget)\n\
         \x20 --seed S           run seed (default 7)\n\
         \x20 --pace X           wall-us per logical-us (default 1.0; 0.5 under --smoke)\n\
         \x20 --flight-cap N     per-node flight-recorder ring capacity (default 32)\n\
         \x20 --out PATH         report path (default OBS_btr.json)\n\
         \x20 --trace-out PATH   Chrome trace_event JSON (chrome://tracing, Perfetto)"
    );
}

/// Remove `--flag VALUE` from `args`, returning the parsed value.
fn take_value<T: std::str::FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        eprintln!("error: {flag} needs a value");
        std::process::exit(2);
    }
    let raw = args.remove(i + 1);
    args.remove(i);
    match raw.parse() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("error: bad value '{raw}' for {flag}");
            std::process::exit(2);
        }
    }
}

/// Remove `--flight-cap N` (default [`FLIGHT_CAP`]), rejecting 0: the
/// recorder would silently clamp it to 1, and a silently-corrected
/// flag is worse than an error.
fn take_flight_cap(args: &mut Vec<String>) -> usize {
    let cap = take_value(args, "--flight-cap").unwrap_or(FLIGHT_CAP);
    if cap == 0 {
        eprintln!("error: --flight-cap must be at least 1");
        std::process::exit(2);
    }
    cap
}

/// Remove a bare `--flag`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn run_campaign_cli(mut args: Vec<String>, threads: usize) {
    use btr_campaign as campaign;

    if let Some(token) = take_value::<String>(&mut args, "--replay") {
        if let Some(stray) = args.first() {
            eprintln!("error: --replay takes no other campaign arguments (got '{stray}')");
            std::process::exit(2);
        }
        let spec = match campaign::replay::parse(&token) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        println!(
            "replaying {} on {} (f={}, R={}, seed {})",
            spec.scenario.faults.len(),
            spec.cell.name(),
            spec.cell.f,
            spec.cell.r_bound,
            spec.sim_seed
        );
        match campaign::replay::run(&spec) {
            Ok(r) => {
                println!(
                    "  schedule {}: bad window {:.1} ms, {}/{} bad outputs, converged: {}",
                    r.label,
                    r.recovery_us as f64 / 1e3,
                    r.bad_outputs,
                    r.total_outputs,
                    r.converged
                );
                if r.violations.is_empty() {
                    println!("  no violations (the reproducer no longer fires)");
                } else {
                    for v in &r.violations {
                        println!("  VIOLATION: {v}");
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let runs = take_value(&mut args, "--runs").unwrap_or(256);
    let seed = take_value(&mut args, "--seed").unwrap_or(42);
    let sim_seeds = take_value(&mut args, "--sim-seeds").unwrap_or(2);
    let combos = take_flag(&mut args, "--combos");
    let over_budget = take_flag(&mut args, "--over-budget");
    let all_variants = take_flag(&mut args, "--all-variants");
    let auth: Option<String> = take_value(&mut args, "--auth");
    let out_path: String = take_value(&mut args, "--out").unwrap_or("CAMPAIGN_btr.json".into());
    if let Some(stray) = args.first() {
        eprintln!("error: unknown campaign argument '{stray}'");
        std::process::exit(2);
    }

    let mut cfg = campaign::CampaignConfig::new(seed, runs, threads);
    cfg.sim_seeds = sim_seeds;
    cfg.combos = combos;
    cfg.over_budget = over_budget;
    if all_variants {
        cfg.cells = campaign::all_variant_grid();
    }
    // Authenticator-suite selection: force one suite on every cell, or
    // sweep both (each cell twinned with `-sip`). Verdicts are
    // suite-independent, so forced hmac/sip campaigns over the same
    // grid must report the same runs_digest — the CI cross-suite check.
    let auth_label = match auth.as_deref() {
        None => "",
        Some("both") => {
            cfg.cells = campaign::auth_sweep(cfg.cells);
            ", auth both"
        }
        Some(s) => match AuthSuite::parse(s) {
            Some(AuthSuite::HmacSha256) => {
                cfg.cells = campaign::with_auth(cfg.cells, AuthSuite::HmacSha256);
                ", auth hmac"
            }
            Some(AuthSuite::SipHash24) => {
                cfg.cells = campaign::with_auth(cfg.cells, AuthSuite::SipHash24);
                ", auth sip"
            }
            None => {
                eprintln!("error: --auth wants hmac, sip, or both (got '{s}')");
                std::process::exit(2);
            }
        },
    };

    println!(
        "campaign: {} cells, target {} runs, seed {}, {} threads{}{}{}{}",
        cfg.cells.len(),
        cfg.runs,
        cfg.seed,
        cfg.threads,
        if combos { ", combos" } else { "" },
        if over_budget { ", over-budget" } else { "" },
        if all_variants { ", all-variants" } else { "" },
        auth_label,
    );
    let outcome = match campaign::run_campaign(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    for t in &outcome.scaling {
        println!(
            "  {} thread{}: {} runs in {:.2} s  ({:.1} runs/sec)",
            t.threads,
            if t.threads == 1 { " " } else { "s" },
            t.runs,
            t.wall_ns as f64 / 1e9,
            t.runs_per_sec()
        );
    }
    let admissible_viol = outcome.admissible_violations();
    let total_viol = outcome
        .records
        .iter()
        .filter(|r| !r.violations.is_empty())
        .count();
    println!(
        "  {} violations ({} within the admitted budget f)",
        total_viol, admissible_viol
    );
    if let Some(s) = campaign::report::min_slack_us(&outcome.records) {
        println!(
            "  minimum slack to R: {:.1} ms (over admissible schedules)",
            s as f64 / 1e3
        );
    }
    for sh in &outcome.shrunk {
        println!(
            "  run {} shrunk {} -> {} fault(s) in {} probes; replay with:",
            sh.run_idx, sh.faults_before, sh.faults_after, sh.probes
        );
        println!("    harness campaign --replay '{}'", sh.replay);
    }

    match std::fs::write(&out_path, outcome.to_json()) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => {
            eprintln!("error: failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    // Any admissible violation is a bug: the campaign-found R-bound gaps
    // are fixed, so the full variant space — including --all-variants
    // and --combos — gates the exit code. (Over-budget schedules are
    // inadmissible by construction and never count.)
    if admissible_viol > 0 {
        eprintln!("error: {admissible_viol} admissible runs violated the R-bound");
        std::process::exit(1);
    }
}

fn run_fuzz_cli(mut args: Vec<String>, threads: usize) {
    use btr_campaign as campaign;

    let budget = take_value(&mut args, "--budget").unwrap_or(128usize);
    let seed = take_value(&mut args, "--seed").unwrap_or(42);
    let out_path: String = take_value(&mut args, "--out").unwrap_or("FUZZ_btr.json".into());
    if let Some(stray) = args.first() {
        eprintln!("error: unknown fuzz argument '{stray}'");
        std::process::exit(2);
    }
    if budget == 0 {
        eprintln!("error: --budget must be at least 1");
        std::process::exit(2);
    }

    let cfg = campaign::FuzzConfig::new(seed, budget, threads);
    println!(
        "fuzz: {} cells, budget {} runs, seed {}, {} threads",
        cfg.cells.len(),
        cfg.budget,
        cfg.seed,
        cfg.threads
    );
    let started = std::time::Instant::now();
    let out = match campaign::run_fuzz(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Wall time goes to stdout only: FUZZ_btr.json is fully
    // deterministic, so CI can byte-compare 1-thread and N-thread runs.
    let wall = started.elapsed().as_secs_f64();
    println!(
        "  {} runs in {:.2} s  ({:.1} runs/sec)",
        out.runs,
        wall,
        out.runs as f64 / wall.max(1e-9)
    );
    println!(
        "  coverage: {} signatures across {} generations",
        out.coverage,
        out.curve.len()
    );
    println!(
        "  corpus: {} schedules, digest {:#018x}, best score {}",
        out.corpus.len(),
        out.corpus.digest(),
        out.best_score
    );
    if let (Some(min), Some(max)) = (out.min_slack_us, out.max_slack_us) {
        println!(
            "  admissible slack to R: min {:.1} ms, max {:.1} ms",
            min as f64 / 1e3,
            max as f64 / 1e3
        );
    }
    for tok in &out.violations {
        println!("  VIOLATION; replay with:");
        println!("    harness campaign --replay '{tok}'");
    }

    match std::fs::write(&out_path, out.to_json()) {
        Ok(()) => println!("  wrote {out_path}"),
        Err(e) => {
            eprintln!("error: failed to write {out_path}: {e}");
            std::process::exit(2);
        }
    }
    // Like the campaign: an admissible violation is a bug, and a fuzz
    // run that surfaces one fails loudly so CI can gate on it (fixed
    // findings are frozen as replay-token regressions in
    // crates/campaign/tests/regressions.rs).
    if !out.violations.is_empty() {
        eprintln!(
            "error: {} admissible runs violated the R-bound",
            out.violations.len()
        );
        std::process::exit(1);
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        usage();
        return;
    }
    let threads = take_value(&mut args, "--threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    if threads == 0 {
        eprintln!("error: --threads must be at least 1");
        std::process::exit(2);
    }
    if take_flag(&mut args, "--list") {
        println!("e1  recovery timeline per approach and fault type");
        println!("e2  replication cost (replicas / traffic / CPU)");
        println!("e3  minimum schedulable CPU speed");
        println!("e4  sequential faults and the R := D/f rule");
        println!("e5  mixed-criticality degradation");
        println!("e6  planner scalability");
        println!("e7  detection latency by fault type");
        println!("e8  evidence distribution under DoS");
        println!("e9  mode-change cost vs migrated state");
        println!("e10 omission attribution accuracy");
        println!("a1  plan-distance minimisation ablation");
        println!("a2  checker placement ablation");
        println!("r1  robustness to residual link loss");
        println!("bench [periods] [--signed]");
        println!("                 hot path + obs overhead, optionally plus the signed-traffic");
        println!("                 hmac-vs-siphash A/B with its speedup gate (BENCH_sim.json)");
        println!("scale [--nodes N,..] [--seed S] [--smoke] [--out PATH]");
        println!("                 thousand-node torus sweep (emits BENCH_scale.json)");
        println!("profile [--nodes N,..] [--seed S] [--smoke] [--out PATH] [--profile-out PATH]");
        println!("        [--stacks-out PATH] [--scale-out PATH]");
        println!("                 deterministic hot-path profiling, traffic-matrix attribution,");
        println!("                 and the shard-partition plan (emits PROFILE_btr.json)");
        println!("live [--smoke] [--seed S] [--pace X] [--out PATH] [--trace-out PATH]");
        println!("     [--replay TOKEN]");
        println!("                 pinned fault scenarios on the live thread-per-node runtime,");
        println!("                 simulator as trace oracle (live section in BENCH_sim.json)");
        println!("obs [--smoke] [--seed S] [--pace X] [--out PATH] [--trace-out PATH]");
        println!("                 recovery-timeline report: per-fault five-phase breakdowns,");
        println!("                 runtime counters, optional Chrome trace (OBS_btr.json)");
        println!("campaign [--runs N] [--seed S] [--sim-seeds K] [--combos] [--over-budget]");
        println!("         [--all-variants] [--auth hmac|sip|both] [--out PATH] [--replay TOKEN]");
        println!("                 parallel fault-injection campaign (emits CAMPAIGN_btr.json)");
        println!("fuzz [--budget N] [--seed S] [--out PATH]");
        println!("                 coverage-guided fault-schedule search (emits FUZZ_btr.json)");
        return;
    }
    if args.is_empty() {
        // Only global flags were given; a missing command is an error,
        // not a silent success.
        usage();
        std::process::exit(2);
    }
    // The first argument left after the global flags names the command;
    // the rest belong to it.
    let rest = args[1..].to_vec();
    match args[0].as_str() {
        "campaign" => run_campaign_cli(rest, threads),
        "fuzz" => run_fuzz_cli(rest, threads),
        "scale" => run_scale_cli(rest),
        "profile" => run_profile_cli(rest),
        "obs" => run_obs_cli(rest),
        "live" => run_live_cli(rest),
        "bench" => run_bench_cli(rest),
        _ => run_experiments(&args, threads),
    }
}

/// `bench [periods] [--signed]`: an optional positional period count
/// lets CI run a quick smoke pass; `--signed` adds the signed-traffic
/// suite A/B (and gates its speedup floor).
fn run_bench_cli(mut args: Vec<String>) {
    let signed = take_flag(&mut args, "--signed");
    let mut args = args.into_iter();
    let periods = match args.next() {
        None => HOTPATH_PERIODS,
        Some(raw) => match raw.parse::<u64>() {
            Ok(p) if p > 0 => p,
            _ => {
                eprintln!("error: bench wants a period count >= 1, got '{raw}'");
                std::process::exit(2);
            }
        },
    };
    if let Some(stray) = args.next() {
        eprintln!("error: unknown bench argument '{stray}'");
        std::process::exit(2);
    }
    run_bench(periods, signed, "BENCH_sim.json");
}

/// Run the named experiments (`all`, or any of e1..e10 a1 a2 r1).
fn run_experiments(args: &[String], threads: usize) {
    let known = [
        "all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "a1", "a2", "r1",
    ];
    if let Some(bad) = args.iter().find(|a| !known.contains(&a.as_str())) {
        eprintln!("error: unknown experiment '{bad}' (see harness --list)");
        std::process::exit(2);
    }
    let run = |id: &str| match id {
        "e1" => println!("{}", exp::e1_recovery_timeline()),
        "e2" => {
            println!("{}", exp::e2_replica_cost(1));
            println!("{}", exp::e2_replica_cost(2));
        }
        "e3" => println!("{}", exp::e3_min_speed()),
        "e4" => println!("{}", exp::e4_sequential_faults()),
        "e5" => println!("{}", exp::e5_degradation()),
        "e6" => println!("{}", exp::e6_planner_scale(threads)),
        "e7" => println!("{}", exp::e7_detection_latency()),
        "e8" => println!("{}", exp::e8_evidence_dissemination()),
        "e9" => println!("{}", exp::e9_mode_change()),
        "e10" => println!("{}", exp::e10_omission_attribution()),
        "a1" => println!("{}", exp::a1_plan_distance()),
        "a2" => println!("{}", exp::a2_checker_placement()),
        "r1" => println!("{}", exp::r1_link_loss()),
        other => unreachable!("unvalidated experiment id {other}"),
    };
    if args.iter().any(|a| a == "all") {
        println!("{}", exp::run_all(threads));
    } else {
        for id in args {
            run(id);
        }
    }
}
