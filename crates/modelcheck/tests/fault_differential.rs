//! Differential suite for the fault-injection harness: a distributed
//! exploration running under any **survivable** fault plan — crashes,
//! hangs, corrupted/truncated exports, slow IO, lying progress pulses —
//! must produce a report **bit-identical** to the serial walk.  Retry
//! exhaustion with graceful degradation enabled must *also* converge to
//! the identical report (the coordinator walks the orphaned slices
//! locally), and a torn coordinator write at *any* ordinal must never
//! leave a cache directory a later run would wrongly trust.

use std::path::PathBuf;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use twostep_baselines::floodset_processes;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_timed, explore_partitioned_in_process, explore_partitioned_timed, explore_with,
    install_io_fault, run_worker, run_worker_elastic, CacheConfig, DistOptions, ElasticTask,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, RoundBound, SpecMode,
    StealConfig, SuperviseConfig, Symmetry, WalkBudget, WorkerPulse, WorkerTask,
};
use twostep_sim::ModelKind;

/// The IO shim is process-global: while one test has it armed, the
/// writes of every other test running in this binary count toward its
/// ordinal and can draw the injected failure.  The test that arms it
/// holds this gate exclusively; every other test shares it.
static IO_GATE: RwLock<()> = RwLock::new(());

fn shared_io() -> RwLockReadGuard<'static, ()> {
    IO_GATE.read().unwrap_or_else(PoisonError::into_inner)
}

fn exclusive_io() -> RwLockWriteGuard<'static, ()> {
    IO_GATE.write().unwrap_or_else(PoisonError::into_inner)
}

/// A unique temp directory removed on drop (cache roots for the suite).
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(label: &str) -> Self {
        let path = std::env::temp_dir().join(format!(
            "twostep-fault-{label}-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempDir { path }
    }

    fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn assert_identical<O: std::fmt::Debug + Eq>(
    serial: &ExploreReport<O>,
    dist: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(serial.root, dist.root, "{label}: root summary");
    assert_eq!(
        serial.distinct_states, dist.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        serial.bivalency_by_round, dist.bivalency_by_round,
        "{label}: bivalency census"
    );
}

/// Fast supervision for tests: millisecond backoff, no timeouts unless a
/// test sets them.
fn fast_supervise() -> SuperviseConfig {
    SuperviseConfig {
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(8),
        attempt_timeout: None,
        watchdog: None,
        degrade: true,
    }
}

fn dist_options(partitions: usize, plan: FaultPlan) -> DistOptions {
    DistOptions {
        partitions,
        depth: 1,
        attempts: 3,
        scratch_dir: None,
        cache: None,
        replay: ExploreOptions::serial(),
        steal: StealConfig::default(),
        faults: plan,
        supervise: fast_supervise(),
    }
}

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

fn crw_serial(system: SystemConfig, config: ExploreConfig) -> ExploreReport<WideValue> {
    let proposals = crw_proposals(system.n());
    explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals,
    )
    .unwrap()
}

/// Every single-shot worker fault the plan grammar can inject, applied
/// to the first attempt of partition 0: the retry (or, for the two
/// non-fatal faults, the attempt itself) must still converge to the
/// serial report — across both partition counts and both model kinds.
#[test]
fn survivable_fault_matrix_is_bit_identical() {
    let _io = shared_io();
    let fault_tokens = [
        "crash@seed",
        "crash@frontier",
        "crash@walk",
        "crash@export",
        "corrupt-export",
        "truncate-export",
        "slow-io(1)",
        "lying-progress",
    ];

    // Extended-model CRW.
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    for partitions in [2usize, 4] {
        for token in fault_tokens {
            // A primary first-attempt fault plus a second-attempt fault
            // on another partition: retries of different partitions must
            // not interfere.
            let plan = FaultPlan::parse(&format!("p0a0={token};p1a1=crash@walk")).unwrap();
            assert!(plan.survivable(partitions as u64, 3), "{token}");
            let dist = explore_partitioned_in_process(
                system,
                config,
                &dist_options(partitions, plan),
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &dist,
                &format!("crw partitions={partitions} fault={token}"),
            );
        }
    }

    // Classic-model floodset.
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<u64> = (0..n as u64).map(|i| 10 + i).collect();
    let config = ExploreConfig {
        model: ModelKind::Classic,
        max_rounds: t as u32 + 2,
        max_states: 10_000_000,
        round_bound: Some(RoundBound::Fixed(t as u32 + 1)),
        spec: SpecMode::Uniform,
        max_crashes_per_round: None,
        symmetry: Symmetry::Off,
    };
    let serial = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        floodset_processes(n, t, &proposals),
        proposals.clone(),
    )
    .unwrap();
    for token in fault_tokens {
        let plan = FaultPlan::parse(&format!("p1a0={token}")).unwrap();
        let dist = explore_partitioned_in_process(
            system,
            config,
            &dist_options(2, plan),
            ExploreOptions::serial(),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        assert_identical(&serial, &dist, &format!("floodset fault={token}"));
    }
}

/// An injected hang is detected by the per-attempt timeout — the
/// supervisor cancels the attempt, the worker's hang loop observes the
/// token and aborts, and the retry converges — long before the worker's
/// own 60s in-process hang cap would fire.
#[test]
fn hung_worker_is_cancelled_by_attempt_timeout_and_retried() {
    let _io = shared_io();
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.attempt_timeout = Some(Duration::from_millis(150));
    let started = Instant::now();
    let launch = |task: &WorkerTask| {
        run_worker(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the watchdog, not the 60s hang cap, must end the hang (took {:?})",
        started.elapsed()
    );
    assert_eq!(
        timings.degraded_partitions, 0,
        "retry succeeded, no degradation"
    );
    assert_identical(&serial, &dist, "hang detected and retried");
}

/// A partition whose worker crashes on *every* attempt is walked locally
/// by the coordinator — the run degrades instead of failing, the
/// degradation is reported in the timings, and the report is still
/// bit-identical to the serial walk.
#[test]
fn retry_exhaustion_degrades_to_local_walk_with_identical_report() {
    let _io = shared_io();
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@export;p0a2=crash@seed").unwrap();
    assert!(
        !plan.survivable(2, 3),
        "every attempt of partition 0 is fatal"
    );
    let launch = |task: &WorkerTask| {
        run_worker(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
        )
        .map(|_| ())
        .map_err(|e| e.to_string())
    };
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &dist_options(2, plan),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert_eq!(
        timings.degraded_partitions, 1,
        "exactly partition 0 degraded"
    );
    assert!(timings.degraded_seconds >= 0.0);
    assert_identical(&serial, &dist, "retry exhaustion degraded");
}

/// Every partition exhausting every attempt degrades the *whole* run to
/// a coordinator-local walk — the distributed engine's worst case is the
/// serial engine, not a failure.
#[test]
fn total_worker_loss_degrades_whole_run_to_local_walk() {
    let _io = shared_io();
    let (n, t) = (3usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let launch = |_task: &WorkerTask| Err("cluster is on fire".to_string());
    let (dist, timings) = explore_partitioned_timed(
        system,
        config,
        &dist_options(2, FaultPlan::none()),
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert_eq!(timings.degraded_partitions, 2, "both partitions degraded");
    assert_identical(&serial, &dist, "total worker loss");
}

/// The elastic scheduler quarantines a worker slot that exhausts its
/// launch budget, walks its slice locally, and keeps going with reduced
/// capacity — stats reporting both, report identical.
#[test]
fn elastic_exhausted_worker_is_quarantined_and_walked_locally() {
    let _io = shared_io();
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let plan = FaultPlan::parse("p0a0=crash@walk;p0a1=crash@walk;p0a2=crash@walk").unwrap();
    let mut options = dist_options(2, plan);
    options.steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 16,
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        run_worker_elastic(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
            pulse,
        )
        .map_err(|e| e.to_string())
    };
    let (dist, _timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        stats.degraded >= 1,
        "worker 0's slice must be walked locally (stats: {stats:?})"
    );
    assert!(
        stats.quarantined >= 1,
        "worker 0's slot must be quarantined (stats: {stats:?})"
    );
    assert_identical(&serial, &dist, "elastic quarantine");
}

/// An elastic worker that hangs (and therefore stops pulsing) is caught
/// by the pulse-liveness watchdog, cancelled, and relaunched — the run
/// converges to the identical report well inside the in-process hang
/// cap.
#[test]
fn elastic_hung_worker_is_caught_by_pulse_watchdog() {
    let _io = shared_io();
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    let mut options = dist_options(2, FaultPlan::parse("p0a0=hang@walk").unwrap());
    options.supervise.watchdog = Some(Duration::from_millis(200));
    options.steal = StealConfig {
        enabled: true,
        min_frontier: 1,
        poll_interval: Duration::ZERO,
        yield_every: 16,
    };
    let started = Instant::now();
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        run_worker_elastic(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
            task,
            pulse,
        )
        .map_err(|e| e.to_string())
    };
    let (dist, _timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals.clone(),
        launch,
    )
    .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "the pulse watchdog must end the hang (took {:?})",
        started.elapsed()
    );
    assert_eq!(stats.degraded, 0, "the relaunch succeeded");
    assert_identical(&serial, &dist, "elastic hang caught by watchdog");
}

/// A torn coordinator write at **any** ordinal — wherever it lands in
/// the run's write sequence — must leave the cache directory in a state
/// a later clean run either rebuilds or validly reuses, never wrongly
/// trusts: the write-then-rename protocol makes every commit
/// all-or-nothing, and segment validation catches the rest.  Three
/// sessions commit under the fault: a partitioned run, a
/// budget-suspended serial run appending to a cache an earlier
/// suspension primed, and an autosaving serial run whose every save —
/// and its final suspension — rewrites its one delta segment.  The two
/// serial sessions are swept over every write ordinal of their commits,
/// and a failed suspension commit must leave the image committed before
/// it intact: the clean rerun still warm-starts from it.
#[test]
fn any_single_torn_write_leaves_cache_trustworthy() {
    let _io = exclusive_io();
    let (n, t) = (3usize, 1usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = ExploreConfig::for_crw(&system);
    let serial = crw_serial(system, config);
    // The serial sessions walk (3, 2): big enough that a budgeted
    // session suspends after several autosaves.
    let walked = SystemConfig::new(3, 2).unwrap();
    let walked_config = ExploreConfig::for_crw(&walked);
    let walked_serial = crw_serial(walked, walked_config);
    let walk = |max_steps: Option<u64>, cache: &CacheConfig| {
        explore_with(
            walked,
            walked_config,
            ExploreOptions::serial()
                .with_budget(WalkBudget {
                    max_steps,
                    ..WalkBudget::unlimited()
                })
                .with_cache(Some(cache.clone())),
            crw_processes(&walked, &proposals),
            proposals.clone(),
        )
    };
    for io_fault in ["torn-write", "fail-write", "enospc"] {
        let plan = |nth: u64| FaultPlan::parse(&format!("io={io_fault}({nth})")).unwrap();
        // Dense over the run's first writes (frontier, seed, exports),
        // geometric tail so late writes (cache segment, manifest) land
        // in range too.
        for nth in [1u64, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256] {
            let label = format!("partitioned io={io_fault}({nth})");
            let dir = TempDir::new(&format!("{io_fault}-{nth}"));
            let cache = Some(CacheConfig::read_write(dir.path()));
            let mut options = dist_options(2, plan(nth));
            options.cache = cache.clone();
            // The faulted run either succeeds (the torn write hit a
            // warn-and-continue path, or never fired) or fails loudly —
            // a success must already be bit-identical.
            match explore_partitioned_in_process(
                system,
                config,
                &options,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            ) {
                Ok(report) => assert_identical(&serial, &report, &label),
                Err(e) => {
                    let msg = e.to_string();
                    assert!(!msg.is_empty(), "{label}: error must carry detail");
                }
            }
            // Whatever the torn write left behind, a clean run over the
            // same cache directory must converge to the serial report —
            // rebuilding (loud-replace) rather than trusting damage.
            let mut clean = dist_options(2, FaultPlan::none());
            clean.cache = cache;
            let recovered = explore_partitioned_in_process(
                system,
                config,
                &clean,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
            assert_identical(&serial, &recovered, &format!("{label} clean rerun"));
        }

        for (session, autosave) in [("suspended", false), ("autosaving", true)] {
            // Every ordinal until one lands past the session's last
            // commit: the sweep must have failed that suspension commit
            // at least once and then run out of writes to hit.
            let mut failed_suspension = false;
            for nth in 1u64.. {
                assert!(nth <= 5_000, "{session} {io_fault}: sweep never ended");
                let label = format!("{session} io={io_fault}({nth})");
                let dir = TempDir::new(&format!("{session}-{io_fault}-{nth}"));
                let mut cache = CacheConfig::read_write(dir.path());
                if autosave {
                    cache = cache.with_autosave_every(5);
                } else {
                    // Prime a partial image for the session to append to.
                    assert!(matches!(
                        walk(Some(5), &cache),
                        Err(ExploreError::Interrupted { cache: Some(_), .. })
                    ));
                }
                let outcome = {
                    let _armed = install_io_fault(plan(nth).io.expect("an io= plan"));
                    walk(Some(30), &cache)
                };
                let suspension_failed = match outcome {
                    Err(ExploreError::Interrupted { cache, .. }) => cache.is_none(),
                    other => panic!("{label}: the session must suspend, got {other:?}"),
                };
                let recovered = walk(None, &cache)
                    .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
                assert_identical(&walked_serial, &recovered, &format!("{label} clean rerun"));
                if suspension_failed {
                    // Write-then-rename: the failed commit never touched
                    // the primed image or the last good autosave.
                    assert!(
                        recovered.cache_hits > 0,
                        "{label}: a failed commit lost the image committed before it"
                    );
                    failed_suspension = true;
                } else if failed_suspension {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Property: any survivable plan is invisible in the report
// ---------------------------------------------------------------------

mod fault_props {
    use super::*;
    use proptest::prelude::*;
    use twostep_modelcheck::{WorkerFault, WorkerPhase};

    fn arb_fault() -> impl Strategy<Value = WorkerFault> {
        let phases = [
            WorkerPhase::Seed,
            WorkerPhase::Frontier,
            WorkerPhase::Walk,
            WorkerPhase::Export,
        ];
        prop_oneof![
            (0usize..4).prop_map(move |i| WorkerFault::CrashAt(phases[i])),
            (0usize..4).prop_map(move |i| WorkerFault::HangAt(phases[i])),
            Just(WorkerFault::CorruptExport),
            Just(WorkerFault::TruncateExport),
            (1u64..3).prop_map(WorkerFault::SlowIo),
            Just(WorkerFault::LyingProgress),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any survivable assignment of faults to `(partition, attempt)`
        /// slots — made survivable by construction: final attempts keep
        /// only non-fatal faults — yields the bit-identical report.
        #[test]
        fn any_survivable_plan_is_report_invisible(
            entries in prop::collection::vec(
                ((0u64..4, 0usize..3), arb_fault()),
                0..6,
            ),
            partitions in 2usize..=4,
        ) {
            let _io = shared_io();
            // Hangs are survivable but slow (they wait out a timeout);
            // give every hang a fast attempt timeout and drop fatal
            // faults from final attempts so the plan is survivable with
            // the suite's 3-attempt budget.  Duplicate slots keep the
            // last fault (the plan grammar itself rejects duplicates).
            let assignment: std::collections::BTreeMap<(u64, usize), WorkerFault> =
                entries.into_iter().collect();
            let tokens: Vec<String> = assignment
                .iter()
                .filter(|((_, attempt), fault)| !(*attempt == 2 && fault.is_fatal()))
                .map(|((p, a), fault)| format!("p{p}a{a}={}", fault.token()))
                .collect();
            let plan = FaultPlan::parse(&tokens.join(";")).unwrap();
            prop_assert!(plan.survivable(partitions as u64, 3));

            let (n, t) = (3usize, 2usize);
            let system = SystemConfig::new(n, t).unwrap();
            let proposals = crw_proposals(n);
            let config = ExploreConfig::for_crw(&system);
            let serial = crw_serial(system, config);
            let mut options = dist_options(partitions, plan);
            options.supervise.attempt_timeout = Some(Duration::from_millis(200));
            let dist = explore_partitioned_in_process(
                system,
                config,
                &options,
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &dist,
                &format!("plan [{}] partitions={partitions}", tokens.join(";")),
            );
        }
    }
}
