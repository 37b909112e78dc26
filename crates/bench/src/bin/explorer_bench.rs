//! CI-facing explorer benchmark: times the exhaustive CRW exploration
//! under the serial, frame-stepped (budget-arbited), parallel,
//! donation-tuned, spilling, and **partitioned multi-process** engines
//! and writes the distinct-states/sec trajectory to
//! `BENCH_explorer.json` so the perf trend is recorded from every CI
//! run (see `ci.sh`).
//!
//! Usage: `explorer_bench [--quick] [--out PATH] [--history PATH]
//! [--commit SHA]`
//!
//! * `--quick` — the pinned `(6, 5)` system with two timed iterations
//!   per engine (best-of, so one scheduler hiccup doesn't pollute the
//!   recorded trajectory): a couple of seconds total, suitable for
//!   every CI run.  The pin was `(5, 4)` until the hot-path overhaul
//!   made `(6, 5)` cheap enough for CI;
//! * default — the same `(6, 5)` system with three timed iterations.
//!   Raise toward `(7, 6)` via `TWOSTEP_BENCH_N`/`TWOSTEP_BENCH_T` as
//!   runners allow;
//! * `--history PATH` — additionally **append** one compact JSON line
//!   (commit, system, per-engine states/sec) to `PATH`, so the
//!   states/sec trajectory accumulates across commits instead of being
//!   overwritten by every run (`ci.sh` points this at
//!   `BENCH_history.jsonl`); `--commit SHA` labels that line.
//!
//! The `donate` row reports the depth-aware donation policy
//! (`TWOSTEP_DONATE_DEPTH`, default cutoff 2) against the unrestricted
//! `parallel` row.  The `partitioned` row is end-to-end — two worker OS
//! processes (re-executions of this binary) plus segment merge plus the
//! canonical replay — so its states/sec **includes merge time**.  The
//! `steal` row is the elastic engine under its *default* lazy policy:
//! on a sub-second bench system it never offloads, so the row records
//! exactly what elasticity costs when it isn't needed (the pitch is
//! that it costs nothing — `ci.sh` gates it against the committed
//! `partitioned` row).
//!
//! The `symmetry` row runs the serial engine at the strongest sound
//! canonicalization tier for CRW (`partial+value`), asserts the root
//! verdict field-by-field against the `serial` row, and records both
//! its orbit-count throughput (`states_per_sec`) and the raw states it
//! stands in for (`raw_states_per_sec`); `ci.sh` gates its wall clock
//! directly against the committed `serial` row.
//!
//! Every result row records both `threads` (walkers inside one
//! process) and `partitions` (worker processes); single-process rows
//! have `partitions: 1`.

use std::time::{Duration, Instant};

use twostep_bench::distcli::{
    bench_proposals, maybe_run_dist_worker, run_elastic_crw, run_partitioned_crw,
};
use twostep_core::crw_processes;
use twostep_model::SystemConfig;
use twostep_modelcheck::{
    explore_with, CacheConfig, ExploreConfig, ExploreOptions, FaultPlan, MemoConfig, StealConfig,
    Summary, SuperviseConfig, Symmetry, WalkBudget,
};
use twostep_sim::default_threads;

struct EngineResult {
    engine: &'static str,
    threads: usize,
    /// Worker OS processes this row fans out to (1 = single-process).
    partitions: usize,
    hot_capacity: Option<usize>,
    best_seconds: f64,
    states_per_sec: f64,
    /// Raw (unquotiented) states covered per second: `raw distinct /
    /// best_seconds`.  Identical to `states_per_sec` for every engine
    /// except `symmetry`, whose memo holds orbit representatives — this
    /// figure is what makes that row comparable to the others on the
    /// work-actually-covered axis.
    raw_states_per_sec: f64,
    /// Extra JSON fields spliced verbatim into this result's object
    /// (the partitioned row's per-phase breakdown).
    extra: Option<String>,
}

fn env_usize(name: &str) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(n) => Some(n),
        Err(_) => {
            // Same policy as TWOSTEP_THREADS: never silently ignore a
            // set-but-broken knob.
            eprintln!("explorer_bench: {name}={raw:?} is not a number; using the default");
            None
        }
    }
}

const PARTITIONS: usize = 2;
const MAX_STATES: usize = 50_000_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(code) = maybe_run_dist_worker(&args) {
        // This process is one of the partitioned row's workers.
        std::process::exit(code);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_explorer.json".to_string());
    let history_path = args
        .iter()
        .position(|a| a == "--history")
        .and_then(|i| args.get(i + 1).cloned());
    let commit = args
        .iter()
        .position(|a| a == "--commit")
        .and_then(|i| args.get(i + 1).cloned());

    let (default_n, default_t) = (6, 5);
    let n = env_usize("TWOSTEP_BENCH_N").unwrap_or(default_n);
    let t = env_usize("TWOSTEP_BENCH_T").unwrap_or(default_t);
    // Best-of-3 even in quick mode: the wall-clock gate compares a
    // fresh symmetry row against the committed serial row, and best-of
    // narrows the fresh side's upward scheduler noise.
    let iters = 3;

    let system = SystemConfig::new(n, t).expect("valid bench system");
    let proposals = bench_proposals(n);
    // Symmetry is pinned `Off` for the baseline rows (`for_crw` reads
    // the TWOSTEP_SYMMETRY env override, which must not silently skew
    // the recorded trajectory); the `symmetry` row below opts in
    // explicitly and is compared against these rows.
    let config = ExploreConfig {
        max_states: MAX_STATES,
        symmetry: Symmetry::Off,
        ..ExploreConfig::for_crw(&system)
    };

    // Never time the work-sharing engines on one thread: a single-core
    // CI runner would silently record `parallel`/`donate` rows that are
    // really serial walks, making the trajectory incomparable across
    // runners.
    let threads = default_threads().max(2);
    let donate_depth = env_usize("TWOSTEP_DONATE_DEPTH")
        .map(|d| d as u32)
        .or(Some(2));
    // Every row pins `cache: None` explicitly: a user-level
    // `TWOSTEP_CACHE_DIR` (inherited through `ExploreOptions::default`)
    // must not silently warm some rows and not others, or mutate the
    // user's cache from a benchmark.  The cache's own row is `warm`.
    let engines: Vec<(&'static str, ExploreOptions)> = vec![
        ("serial", ExploreOptions::serial()),
        (
            // The frame-stepped driver with a real (never-tripping)
            // budget arbiter consulted after every step — prices the
            // per-step inspection (including the deadline's clock read)
            // against the `serial` row; `ci.sh` gates it within 10%.
            "stepped",
            ExploreOptions::serial().with_budget(WalkBudget {
                max_steps: Some(u64::MAX),
                deadline: Some(Duration::from_secs(86_400)),
                max_memo_bytes: Some(u64::MAX),
                yield_every: None,
            }),
        ),
        (
            "parallel",
            ExploreOptions::with_threads(threads)
                .with_donate_depth(None)
                .with_cache(None),
        ),
        (
            "donate",
            ExploreOptions::with_threads(threads)
                .with_donate_depth(donate_depth)
                .with_cache(None),
        ),
        (
            "spill",
            ExploreOptions::with_threads(threads)
                .with_memo(MemoConfig::spill(1024))
                .with_donate_depth(None)
                .with_cache(None),
        ),
    ];

    let mut distinct_states = 0usize;
    let mut serial_root: Option<Summary<twostep_model::WideValue>> = None;
    let mut results: Vec<EngineResult> = Vec::new();
    for (engine, options) in engines {
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let report = explore_with(
                system,
                config,
                options.clone(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .expect("bench exploration within budget");
            best = best.min(t0.elapsed().as_secs_f64());
            distinct_states = report.distinct_states;
            if engine == "serial" {
                serial_root = Some(report.root.clone());
            }
            if engine == "stepped" {
                assert_eq!(
                    Some(&report.root),
                    serial_root.as_ref(),
                    "the stepped driver must be bit-identical to the owned-loop serial walk"
                );
            }
        }
        let result = EngineResult {
            engine,
            threads: options.threads,
            partitions: 1,
            hot_capacity: options
                .memo
                .spill_enabled()
                .then_some(options.memo.hot_capacity),
            best_seconds: best,
            states_per_sec: distinct_states as f64 / best,
            raw_states_per_sec: distinct_states as f64 / best,
            extra: None,
        };
        eprintln!(
            "explorer_bench: (n={n}, t={t}) {engine:<11} threads={} {:>10.1} states/sec",
            result.threads, result.states_per_sec
        );
        results.push(result);
    }

    // Warm row: the persistent result cache.  One untimed cold run
    // primes a throwaway cache directory; the timed iterations then
    // warm-start from it and must be answered entirely by cache hits.
    {
        let cache_root = std::env::temp_dir().join(format!(
            "twostep-bench-cache-{}-{n}-{t}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&cache_root);
        let cache = Some(CacheConfig::read_write(&cache_root));
        let engine = || ExploreOptions::serial().with_cache(cache.clone());
        let prime = explore_with(
            system,
            config,
            engine(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .expect("cache-priming exploration");
        assert_eq!(prime.cache_hits, 0, "priming run starts cold");
        assert_eq!(prime.distinct_states, distinct_states);
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let report = explore_with(
                system,
                config,
                engine(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .expect("warm exploration");
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(
                report.cache_hits, report.distinct_states,
                "warm run must be answered entirely by the cache"
            );
            assert_eq!(report.distinct_states, distinct_states);
        }
        let _ = std::fs::remove_dir_all(&cache_root);
        let result = EngineResult {
            engine: "warm",
            threads: 1,
            partitions: 1,
            hot_capacity: None,
            best_seconds: best,
            states_per_sec: distinct_states as f64 / best,
            raw_states_per_sec: distinct_states as f64 / best,
            extra: None,
        };
        eprintln!(
            "explorer_bench: (n={n}, t={t}) {:<11} threads=1 {:>10.1} states/sec (cache hits)",
            result.engine, result.states_per_sec
        );
        results.push(result);
    }

    // Partitioned row: worker OS processes + merge + canonical replay,
    // timed end to end (merge time included), with the best run's
    // per-phase attribution recorded alongside the single number.
    {
        let mut best = f64::INFINITY;
        let mut phases = String::new();
        for _ in 0..iters {
            let run = run_partitioned_crw(
                n,
                t,
                PARTITIONS,
                1,
                threads,
                None,
                MAX_STATES,
                Symmetry::Off,
                None,
                WalkBudget::unlimited(),
                None,
                FaultPlan::none(),
                SuperviseConfig::default(),
            )
            .expect("partitioned bench exploration");
            assert_eq!(
                run.report.distinct_states, distinct_states,
                "partitioned report must match the single-process engines"
            );
            if run.total_seconds < best {
                best = run.total_seconds;
                phases = format!(
                    "\"phases\": {{\"seed\": {:.6}, \"workers_wall\": {:.6}, \
                     \"worker_seed_max\": {:.6}, \"worker_frontier_max\": {:.6}, \
                     \"worker_walk_max\": {:.6}, \"worker_export_max\": {:.6}, \
                     \"merge\": {:.6}, \"replay\": {:.6}, \"report\": {:.6}}}",
                    run.timings.seed_seconds,
                    run.timings.workers_wall_seconds,
                    run.worker_seed_seconds,
                    run.worker_frontier_seconds,
                    run.worker_walk_seconds,
                    run.worker_export_seconds,
                    run.timings.merge_seconds,
                    run.timings.replay_seconds,
                    run.timings.report_seconds
                );
            }
        }
        let result = EngineResult {
            engine: "partitioned",
            // Per-*worker* thread count; the process fan-out is the
            // `partitions` field.  (This row once recorded the product
            // as "threads", which disagreed with the file header.)
            threads,
            partitions: PARTITIONS,
            hot_capacity: None,
            best_seconds: best,
            states_per_sec: distinct_states as f64 / best,
            raw_states_per_sec: distinct_states as f64 / best,
            extra: Some(phases),
        };
        eprintln!(
            "explorer_bench: (n={n}, t={t}) {:<11} procs={PARTITIONS} {:>10.1} states/sec (incl. merge)",
            result.engine, result.states_per_sec
        );
        results.push(result);
    }

    // Steal row: the elastic engine under its default lazy policy.  A
    // sub-second bench run never outlives the 250ms warm-up, so no
    // worker processes are launched and the row prices elasticity's
    // overhead when idle — the policy check plus the pipeline framing —
    // which must stay competitive with `parallel` (gated by `ci.sh`
    // against the committed `partitioned` row as the floor).
    {
        let mut best = f64::INFINITY;
        let mut stats_extra = String::new();
        for _ in 0..iters {
            let run = run_elastic_crw(
                n,
                t,
                PARTITIONS,
                1,
                threads,
                None,
                MAX_STATES,
                Symmetry::Off,
                None,
                WalkBudget::unlimited(),
                StealConfig::on(),
                FaultPlan::none(),
                SuperviseConfig::default(),
            )
            .expect("elastic bench exploration");
            assert_eq!(
                run.report.distinct_states, distinct_states,
                "elastic report must match the single-process engines"
            );
            if run.total_seconds < best {
                best = run.total_seconds;
                stats_extra = format!(
                    "\"steal\": {{\"workers\": {}, \"steals\": {}, \"offloaded\": {}}}",
                    run.stats.workers_launched, run.stats.steals, run.stats.offloaded
                );
            }
        }
        let result = EngineResult {
            engine: "steal",
            threads: 1,
            partitions: PARTITIONS,
            hot_capacity: None,
            best_seconds: best,
            states_per_sec: distinct_states as f64 / best,
            raw_states_per_sec: distinct_states as f64 / best,
            extra: Some(stats_extra),
        };
        eprintln!(
            "explorer_bench: (n={n}, t={t}) {:<11} threads=1 {:>10.1} states/sec (elastic, lazy)",
            result.engine, result.states_per_sec
        );
        results.push(result);
    }

    // Symmetry row: the serial engine at the **strongest sound tier**
    // for CRW — the rank-inert partial quotient composed with the
    // binary value quotient (`partial+value`).  The quotient is
    // summary-exact: violation flag, per-f worst rounds, and terminal
    // counts all match the Off walk bit for bit, and the decided set
    // matches as a set (orbit merging reorders the discovery order, so
    // the vectors are compared sorted) — asserted on every iteration,
    // which is what lets `ci.sh` treat the committed JSON as a
    // verdict-equality witness.  `states_per_sec` is computed over the
    // row's own (smaller) orbit count; `raw_states_per_sec` over the
    // raw count it stands in for — the like-mode trend gate and the
    // cross-engine comparison respectively.
    {
        let sym = Symmetry::PartialValue;
        let sym_config = ExploreConfig {
            symmetry: sym,
            ..config
        };
        let mut best = f64::INFINITY;
        let mut sym_distinct = 0usize;
        for _ in 0..iters {
            let t0 = Instant::now();
            let report = explore_with(
                system,
                sym_config,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .expect("symmetry bench exploration within budget");
            best = best.min(t0.elapsed().as_secs_f64());
            sym_distinct = report.distinct_states;
            let base = serial_root.as_ref().expect("serial row ran first");
            assert_eq!(
                report.root.violating, base.violating,
                "symmetry reduction must preserve the violation verdict"
            );
            assert_eq!(
                report.root.worst_round_by_f, base.worst_round_by_f,
                "symmetry reduction must preserve the per-f worst rounds"
            );
            assert_eq!(
                report.root.terminals, base.terminals,
                "the partial quotient is terminal-exact under effect-pruned enumeration"
            );
            let sorted = |v: &[twostep_model::WideValue]| {
                let mut v = v.to_vec();
                v.sort_unstable();
                v
            };
            assert_eq!(
                sorted(&report.root.decided),
                sorted(&base.decided),
                "symmetry reduction must preserve the decided set"
            );
            assert!(
                report.distinct_states < distinct_states,
                "symmetry reduction must merge at least one orbit \
                 ({} vs {distinct_states} raw)",
                report.distinct_states
            );
        }
        let result = EngineResult {
            engine: "symmetry",
            threads: 1,
            partitions: 1,
            hot_capacity: None,
            best_seconds: best,
            states_per_sec: sym_distinct as f64 / best,
            raw_states_per_sec: distinct_states as f64 / best,
            extra: Some(format!(
                "\"symmetry\": {{\"mode\": \"{}\", \"distinct_states\": {sym_distinct}, \
                 \"raw_distinct_states\": {distinct_states}, \"reduction\": {:.3}, \
                 \"verdicts_identical\": true}}",
                sym.token(),
                distinct_states as f64 / sym_distinct as f64
            )),
        };
        eprintln!(
            "explorer_bench: (n={n}, t={t}) {:<11} threads=1 {:>10.1} states/sec \
             ({sym_distinct} orbits, {:.2}x reduction, mode {})",
            result.engine,
            result.states_per_sec,
            distinct_states as f64 / sym_distinct as f64,
            sym.token()
        );
        results.push(result);
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"bench\": \"explorer\",\n  \"quick\": {quick},\n  \"n\": {n},\n  \"t\": {t},\n"
    ));
    json.push_str(&format!("  \"distinct_states\": {distinct_states},\n"));
    json.push_str(&format!("  \"partitions\": {PARTITIONS},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let hot = r.hot_capacity.map_or("null".to_string(), |h| h.to_string());
        let extra = r
            .extra
            .as_ref()
            .map_or(String::new(), |extra| format!(", {extra}"));
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"threads\": {}, \"partitions\": {}, \
             \"hot_capacity\": {}, \"best_seconds\": {:.6}, \"states_per_sec\": {:.1}, \
             \"raw_states_per_sec\": {:.1}{}}}{}\n",
            r.engine,
            r.threads,
            r.partitions,
            hot,
            r.best_seconds,
            r.states_per_sec,
            r.raw_states_per_sec,
            extra,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, json).expect("writing bench JSON");
    eprintln!("explorer_bench: wrote {out_path}");

    // Perf trajectory: append (never rewrite) one line per run, so the
    // ROADMAP's "record distinct-states/sec trends across commits" has
    // an accumulating dataset instead of only the latest snapshot.
    if let Some(history_path) = history_path {
        let mut line = String::new();
        line.push('{');
        line.push_str(&format!(
            "\"commit\": \"{}\", \"quick\": {quick}, \"n\": {n}, \"t\": {t}, \
             \"distinct_states\": {distinct_states}, \"states_per_sec\": {{",
            commit.as_deref().unwrap_or("unknown"),
        ));
        for (i, r) in results.iter().enumerate() {
            line.push_str(&format!(
                "\"{}\": {:.1}{}",
                r.engine,
                r.states_per_sec,
                if i + 1 < results.len() { ", " } else { "" }
            ));
        }
        line.push_str("}}\n");
        use std::io::Write;
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&history_path)
            .and_then(|mut f| f.write_all(line.as_bytes()));
        match appended {
            Ok(()) => eprintln!("explorer_bench: appended history to {history_path}"),
            Err(e) => eprintln!("explorer_bench: could not append history to {history_path}: {e}"),
        }
    }
}
