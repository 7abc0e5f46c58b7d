//! The repository benchmark: three closed-loop workloads on one worker
//! thread, measured end to end (tracing off) or layer by layer (a
//! separate traced pass).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|deploy100|torus1000|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, the output checks, and as
//! the last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Each run's fingerprint, seed and every repetition's samples
//! go to `perfbench/results/`, and a traced run's spans to a Chrome
//! trace-event file beside them. Exits 1 when any check fails, 2 on bad
//! arguments.

mod deploy;
mod fleet;
mod judged;
mod layers;
mod ledger;
mod report;
mod stats;
mod torus;
mod trace;

use report::{json_str, Outcome};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations; a statistic only, so `Relaxed` suffices.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System`; the caller upholds `realloc`'s
        // contract for `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations so far in this process.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Reset this process's peak resident set to its current one, so the
/// next workload's `VmHWM` is its own. False if the kernel refused.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Derives the workloads' inputs from the seed: the campaign's own
/// SplitMix64 seed derivation.
pub fn mix(seed: u64) -> u64 {
    btr_campaign::runner::sim_seed(seed, 0)
}

/// Closed-loop repetition control: at least one pass, then more while
/// the next pass is expected to end within half a pass of the budget.
pub struct Passes {
    budget_s: f64,
    elapsed_s: f64,
    done: usize,
}

impl Passes {
    pub fn new(budget_s: f64) -> Passes {
        Passes {
            budget_s,
            elapsed_s: 0.0,
            done: 0,
        }
    }

    pub fn more(&mut self) -> bool {
        self.done == 0 || self.elapsed_s * (1.0 + 0.5 / self.done as f64) < self.budget_s
    }

    pub fn done(&mut self, wall_s: f64) {
        self.elapsed_s += wall_s;
        self.done += 1;
    }
}

const WORKLOADS: [&str; 3] = ["fleet", "deploy100", "torus1000"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                args.seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {val}"))?
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Output of a command, trimmed, or "unknown".
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn fingerprint() -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", json_str(&cpu)),
        ("rustc", json_str(&command_line("rustc", &["--version"]))),
        (
            "git_commit",
            json_str(&command_line(
                "git",
                &[
                    "--git-dir",
                    concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"),
                    "rev-parse",
                    "HEAD",
                ],
            )),
        ),
    ]
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Run one workload; `after_another` when an earlier workload ran in this
/// process, whose peak resident set must not count as this one's.
fn run_workload(name: &str, args: &Args, after_another: bool) -> Outcome {
    let rss_reset = !after_another || reset_peak_rss();
    let started = std::time::Instant::now();
    let mut out = if args.trace {
        let mut tracer = trace::Tracer::new();
        let mut out = match name {
            "fleet" => fleet::traced(args.seed, &mut tracer),
            "deploy100" => deploy::traced(args.seed, &mut tracer),
            _ => torus::traced(args.seed, &mut tracer),
        };
        out.spans = tracer.summary();
        let path = results_dir().join(format!("{name}-seed{}.trace.json", args.seed));
        if let Err(e) = std::fs::write(&path, tracer.chrome_trace(name)) {
            out.check("trace_written", false, format!("{}: {e}", path.display()));
        }
        out
    } else {
        match name {
            "fleet" => fleet::timed(args.seed, args.seconds),
            "deploy100" => deploy::timed(args.seed, args.seconds),
            _ => torus::timed(args.seed, args.seconds),
        }
    };
    if !rss_reset {
        out.check(
            "peak_rss_reset",
            false,
            "cannot reset VmHWM after the previous workload".into(),
        );
    }
    let mut header = vec![
        ("workload", json_str(name)),
        ("seed", args.seed.to_string()),
        ("seconds", report::json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("wall_s", report::json_num(started.elapsed().as_secs_f64())),
    ];
    header.extend(fingerprint());
    let path = results_dir().join(format!(
        "{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, out.render_results(&header)) {
        out.check("results_written", false, format!("{}: {e}", path.display()));
    }
    print!("{}", out.render_text(name));
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fleet|deploy100|torus1000|all \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(results_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", results_dir().display());
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let outcomes: Vec<(&str, Outcome)> = names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, run_workload(n, &args, i > 0)))
        .collect();
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    if let [(_, only)] = outcomes.as_slice() {
        println!("{}", only.render_result_line());
    } else {
        // One process, every workload: metric names gain the workload
        // as a prefix.
        let mut all = Outcome::default();
        for (name, o) in &outcomes {
            all.attempted += o.attempted;
            all.failed += o.failed;
            all.checks.extend(o.checks.iter().cloned());
            for m in &o.metrics {
                let mut m = m.clone();
                m.name = format!("{name}.{}", m.name);
                all.metrics.push(m);
            }
        }
        println!("{}", all.render_result_line());
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_stop_near_the_budget() {
        let mut p = Passes::new(20.0);
        let mut n = 0;
        while p.more() {
            p.done(9.7);
            n += 1;
        }
        assert_eq!(n, 2);
        let mut p = Passes::new(1.0);
        assert!(p.more());
        p.done(5.0);
        assert!(!p.more());
    }

    /// Every metric the benchmark prints is declared in BENCHMARK.json, in
    /// the same order.
    #[test]
    fn metric_names_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let declared: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect();
        let mut out = Outcome::default();
        report::Timings::default().report(&mut out);
        layers::Layers::default().report(&mut out);
        let printed: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(&declared[WORKLOADS.len()..], printed.as_slice());
        assert_eq!(&declared[..WORKLOADS.len()], WORKLOADS.as_slice());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
