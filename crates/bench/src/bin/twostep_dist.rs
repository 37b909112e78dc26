//! `twostep-dist` — multi-process partitioned exploration of the CRW
//! algorithm, end to end: spawns one worker OS process per frontier
//! partition (re-executions of this binary), merges their exported memo
//! segments, replays the canonical root walk, and prints the report —
//! which is bit-identical to what the serial single-process engine would
//! produce.
//!
//! Usage: `twostep-dist [--quick] [--n N] [--t T] [--partitions K]
//!                      [--depth D] [--worker-threads W] [--spill HOT]
//!                      [--symmetry off|full] [--cache-dir DIR]
//!                      [--max-steps S] [--deadline-ms MS] [--steal]
//!                      [--steal-poll-ms MS] [--steal-min-frontier K]
//!                      [--steal-yield-every S] [--fault PLAN]
//!                      [--attempt-timeout-ms MS] [--watchdog-ms MS]
//!                      [--backoff-ms MS] [--no-degrade]`
//!
//! * default — the `(6, 5)` speedup-bench system across 2 partitions;
//! * `--quick` — the `(5, 4)` system (sub-second), used by `ci.sh`;
//! * `--steal` — the **elastic** engine: the coordinator walks locally
//!   and offloads to worker processes only when the run outlives the
//!   steal policy's thresholds, then re-balances by preempting loaded
//!   workers.  `TWOSTEP_STEAL=1|0` toggles it flaglessly (garbage values
//!   warn once and leave stealing off); the `--steal-*` knobs tune the
//!   policy and imply nothing on their own.  The `result` line is
//!   bit-identical to the classic engines — `ci.sh` asserts it;
//! * `--spill HOT` — workers run a two-tier memo with the given hot
//!   capacity instead of all-RAM;
//! * `--symmetry off|full` — symmetry reduction mode for the whole run
//!   (coordinator *and* every worker; the mode rides in the worker argv
//!   so a worker's own environment cannot diverge).  Defaults to the
//!   `TWOSTEP_SYMMETRY` env var, else `off`;
//! * `--cache-dir DIR` — persistent result cache (read-write): the
//!   coordinator and every worker warm-start from `DIR` when its
//!   fingerprint matches this run, and the run's newly discovered
//!   states are committed back as a delta segment.  Falls back to the
//!   `TWOSTEP_CACHE_DIR` env var (same warn-on-garbage policy as
//!   `TWOSTEP_THREADS`) when the flag is absent.  It is also where a
//!   suspended run keeps its partial work (see below);
//! * `--max-steps S` / `--deadline-ms MS` — walk budget for the whole
//!   coordinator pipeline (the deadline clock covers seed, workers,
//!   merge, and replay; workers walk unbounded).  Fall back to the
//!   `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS` env vars.  A budgeted
//!   run that suspends prints a parseable
//!   `twostep-dist: suspended reason=… states=… cache=DIR|none` line and
//!   exits with code 3.  With a cache the partial memo is committed to
//!   it, and rerunning over the same directory (with a looser or no
//!   budget) resumes to the bit-identical final report; without one the
//!   partial work is discarded;
//! * `--fault PLAN` — deterministic fault injection for chaos testing
//!   (see `twostep_modelcheck::faults` for the grammar, e.g.
//!   `p0a0=crash@walk;p1a0=hang@export`).  Overrides the
//!   `TWOSTEP_FAULT` env var; an unparseable flag value is a hard
//!   error — a chaos run that silently ran clean would vacuously pass;
//! * `--attempt-timeout-ms MS` / `--watchdog-ms MS` / `--backoff-ms MS`
//!   — supervision knobs: per-attempt wall-clock cap, per-worker pulse
//!   liveness deadline (elastic engine), and the base of the
//!   deterministic exponential retry backoff.  `0` disables the two
//!   timeouts.  Fall back to `TWOSTEP_WATCHDOG_MS` / `TWOSTEP_BACKOFF_MS`;
//! * `--no-degrade` — a partition that exhausts its worker launch
//!   attempts fails the run loudly instead of being walked locally by
//!   the coordinator (the default prints a
//!   `twostep-dist: supervision degraded=N quarantined=M` line either
//!   way, which `ci.sh` asserts);
//! * worker processes are recognized by the `--dist-worker` argument
//!   vector (see `twostep_bench::distcli`) — never pass it by hand.

use std::path::PathBuf;

use std::time::Duration;

use twostep_bench::distcli::{maybe_run_dist_worker, run_elastic_crw, run_partitioned_crw};
use twostep_modelcheck::{
    budget_from_env, cache_from_env, fault_plan_from_env, steal_from_env, supervise_from_env,
    ExploreConfig, ExploreError, ExploreReport, FaultPlan, StealConfig, Symmetry,
};

fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(v) => v,
            None => {
                eprintln!("twostep-dist: {flag} needs a value; using the default");
                default
            }
        },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = maybe_run_dist_worker(&args) {
        std::process::exit(code);
    }

    let quick = args.iter().any(|a| a == "--quick");
    let (default_n, default_t) = if quick { (5, 4) } else { (6, 5) };
    let n = arg_value(&args, "--n", default_n);
    let t = arg_value(&args, "--t", default_t);
    let partitions = arg_value(&args, "--partitions", 2usize).max(1);
    let depth = arg_value(&args, "--depth", 1u32);
    let worker_threads = arg_value(&args, "--worker-threads", twostep_sim::default_threads());
    let hot_capacity: usize = arg_value(&args, "--spill", 0);
    let hot_capacity = (hot_capacity > 0).then_some(hot_capacity);
    let symmetry = match args
        .iter()
        .position(|a| a == "--symmetry")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some(raw) => Symmetry::parse_token(raw).unwrap_or_else(|| {
            eprintln!(
                "twostep-dist: --symmetry must be off|full|partial|partial+value (got {raw:?}); \
                 using off"
            );
            Symmetry::Off
        }),
        // `for_crw` resolves the TWOSTEP_SYMMETRY env override; the
        // system itself does not influence the mode.
        None => {
            ExploreConfig::for_crw(&twostep_model::SystemConfig::new(2, 1).expect("valid")).symmetry
        }
    };
    let cache_dir: Option<PathBuf> = match args.iter().position(|a| a == "--cache-dir") {
        Some(i) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
            Some(dir) => Some(PathBuf::from(dir)),
            None => {
                // Same policy as every other knob: a broken value is
                // never silently dropped (the user would believe later
                // runs are warm-started when nothing was cached).
                eprintln!("twostep-dist: --cache-dir needs a directory; cache disabled");
                None
            }
        },
        None => cache_from_env().map(|c| c.dir),
    };
    // Flags override the TWOSTEP_MAX_STEPS / TWOSTEP_DEADLINE_MS env
    // defaults; a flagless run inherits whatever the env resolved.
    let mut budget = budget_from_env();
    if let Some(i) = args.iter().position(|a| a == "--max-steps") {
        match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(steps) => budget.max_steps = Some(steps),
            None => eprintln!("twostep-dist: --max-steps needs a step count; flag ignored"),
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--deadline-ms") {
        match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(ms) => budget.deadline = Some(Duration::from_millis(ms)),
            None => eprintln!("twostep-dist: --deadline-ms needs milliseconds; flag ignored"),
        }
    }
    let steal_enabled = args.iter().any(|a| a == "--steal") || steal_from_env().unwrap_or(false);
    let mut steal = StealConfig {
        enabled: steal_enabled,
        ..StealConfig::default()
    };
    steal.poll_interval = Duration::from_millis(arg_value(
        &args,
        "--steal-poll-ms",
        steal.poll_interval.as_millis() as u64,
    ));
    steal.min_frontier = arg_value(&args, "--steal-min-frontier", steal.min_frontier);
    steal.yield_every = arg_value(&args, "--steal-yield-every", steal.yield_every).max(1);

    // Fault plan: the flag overrides the TWOSTEP_FAULT env var (which
    // warns once on garbage and runs clean); an unparseable *flag* is a
    // hard error — a chaos run that silently ran clean would pass
    // vacuously.
    let faults = match args.iter().position(|a| a == "--fault") {
        Some(i) => match args.get(i + 1) {
            Some(raw) => match FaultPlan::parse(raw) {
                Ok(plan) => plan,
                Err(e) => {
                    eprintln!("twostep-dist: --fault {raw:?}: {e}");
                    std::process::exit(2);
                }
            },
            None => {
                eprintln!("twostep-dist: --fault needs a plan (or 'none')");
                std::process::exit(2);
            }
        },
        None => fault_plan_from_env(),
    };
    let mut supervise = supervise_from_env();
    if let Some(i) = args.iter().position(|a| a == "--attempt-timeout-ms") {
        match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(0) => supervise.attempt_timeout = None,
            Some(ms) => supervise.attempt_timeout = Some(Duration::from_millis(ms)),
            None => {
                eprintln!("twostep-dist: --attempt-timeout-ms needs milliseconds; flag ignored")
            }
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--watchdog-ms") {
        match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(0) => supervise.watchdog = None,
            Some(ms) => supervise.watchdog = Some(Duration::from_millis(ms)),
            None => eprintln!("twostep-dist: --watchdog-ms needs milliseconds; flag ignored"),
        }
    }
    if let Some(i) = args.iter().position(|a| a == "--backoff-ms") {
        match args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) {
            Some(ms) => supervise.backoff = Duration::from_millis(ms),
            None => eprintln!("twostep-dist: --backoff-ms needs milliseconds; flag ignored"),
        }
    }
    if args.iter().any(|a| a == "--no-degrade") {
        supervise.degrade = false;
    }
    if !faults.is_empty() {
        eprintln!("twostep-dist: fault plan {}", faults.render());
    }

    eprintln!(
        "twostep-dist: exploring ({n}, {t}) across {partitions} worker processes \
         (depth {depth}, {worker_threads} threads each, memo {}, symmetry {}, cache {}, steal {})",
        match hot_capacity {
            Some(h) => format!("spill@{h}"),
            None => "all-RAM".to_string(),
        },
        symmetry.token(),
        match &cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "off".to_string(),
        },
        if steal.enabled { "on" } else { "off" }
    );
    // Common lines first (summary / result / cache), then the
    // engine-specific attribution lines collected here.
    let (report, total_seconds, engine_lines): (ExploreReport<_>, f64, Vec<String>) =
        if steal.enabled {
            match run_elastic_crw(
                n,
                t,
                partitions,
                depth,
                worker_threads,
                hot_capacity,
                50_000_000,
                symmetry,
                cache_dir,
                budget,
                steal,
                faults,
                supervise,
            ) {
                Ok(run) => {
                    let lines = vec![
                        format!(
                            "twostep-dist: steal workers={} steals={} offloaded={}",
                            run.stats.workers_launched, run.stats.steals, run.stats.offloaded
                        ),
                        format!(
                            "twostep-dist: supervision degraded={} quarantined={}",
                            run.stats.degraded, run.stats.quarantined
                        ),
                        format!(
                            "twostep-dist: phases seed={:.3} frontier={:.3} workers={:.3} \
                         merge={:.3} replay={:.3} report={:.3}",
                            run.timings.seed_seconds,
                            run.timings.frontier_seconds,
                            run.timings.workers_wall_seconds,
                            run.timings.merge_seconds,
                            run.timings.replay_seconds,
                            run.timings.report_seconds
                        ),
                    ];
                    (run.report, run.total_seconds, lines)
                }
                Err(e) => bail(e),
            }
        } else {
            match run_partitioned_crw(
                n,
                t,
                partitions,
                depth,
                worker_threads,
                hot_capacity,
                50_000_000,
                symmetry,
                cache_dir,
                budget,
                None,
                faults,
                supervise,
            ) {
                Ok(run) => {
                    let lines = vec![
                        format!(
                            "twostep-dist: supervision degraded={} quarantined=0",
                            run.timings.degraded_partitions
                        ),
                        format!(
                            "twostep-dist: phases seed={:.3} frontier={:.3} workers={:.3} \
                             (seed<={:.3} frontier<={:.3} walk<={:.3} export<={:.3}) \
                             merge={:.3} replay={:.3} report={:.3}",
                            run.timings.seed_seconds,
                            run.timings.frontier_seconds,
                            run.timings.workers_wall_seconds,
                            run.worker_seed_seconds,
                            run.worker_frontier_seconds,
                            run.worker_walk_seconds,
                            run.worker_export_seconds,
                            run.timings.merge_seconds,
                            run.timings.replay_seconds,
                            run.timings.report_seconds
                        ),
                    ];
                    (run.report, run.total_seconds, lines)
                }
                Err(e) => bail(e),
            }
        };

    let worst = report
        .root
        .worst_round_by_f
        .iter()
        .enumerate()
        .filter_map(|(f, r)| r.map(|r| format!("f={f}:{r}")))
        .collect::<Vec<_>>()
        .join(" ");
    // Stable, machine-parseable summary line (asserted by the bench
    // crate's integration test).
    println!(
        "twostep-dist: n={n} t={t} partitions={partitions} distinct_states={} \
         terminals={} violating={} seconds={:.3} states_per_sec={:.1}",
        report.distinct_states,
        report.root.terminals,
        report.root.violating,
        total_seconds,
        report.distinct_states as f64 / total_seconds
    );
    // Timing-free result line: identical between a cold and a warm run
    // of the same system — and between the classic and elastic engines —
    // which is what `ci.sh` asserts.
    println!(
        "twostep-dist: result n={n} t={t} distinct_states={} terminals={} violating={} worst=[{worst}]",
        report.distinct_states, report.root.terminals, report.root.violating
    );
    println!(
        "twostep-dist: cache cache_hits={} fresh_states={}",
        report.cache_hits, report.fresh_states
    );
    for line in engine_lines {
        println!("{line}");
    }
    println!("twostep-dist: worst decision round by crash count: {worst}");
}

/// Suspensions get a parseable line + dedicated exit code, so a driving
/// script can distinguish "budget ran out, resume me" from a failure.
fn bail(e: ExploreError) -> ! {
    match e {
        ExploreError::Interrupted {
            reason,
            cache,
            states,
        } => {
            println!(
                "twostep-dist: suspended reason={reason} states={states} cache={}",
                match &cache {
                    Some(dir) => dir.display().to_string(),
                    None => "none".to_string(),
                }
            );
            std::process::exit(3);
        }
        e => {
            eprintln!("twostep-dist: {e}");
            std::process::exit(1);
        }
    }
}
