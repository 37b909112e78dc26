//! Differential suite for the frame-stepped core's suspend/resume path,
//! where suspending is a commit to a ReadWrite persistent cache and
//! resuming is a warm start: an exploration interrupted by *any* budget
//! — step counts of {0, 1, prime strides}, an already-expired deadline,
//! the `max_states` valve — and resumed from its cache must converge to
//! a final report **bit-identical** to the uninterrupted walk, across
//! engines {serial, parallel-4, spill, partitioned-2} and both symmetry
//! modes.  Every intermediate error must be `ExploreError::Interrupted`
//! carrying the cache directory, each session must make progress (the
//! resume chain is bounded by the distinct-state count) and add exactly
//! one segment, and one more session after convergence must be answered
//! entirely by the cache.  Without a ReadWrite cache the historical
//! behavior holds: partial work is discarded and nothing is written.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_partitioned_in_process, explore_with, BudgetKind, CacheConfig, DistOptions,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, MemoConfig, StealConfig,
    SuperviseConfig, Symmetry, WalkBudget,
};

/// A unique temp directory removed on drop (cache roots).
struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "twostep-resume-test-{label}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

fn assert_identical(a: &ExploreReport<WideValue>, b: &ExploreReport<WideValue>, label: &str) {
    assert_eq!(a.root, b.root, "{label}: root summary");
    assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
    assert_eq!(
        a.bivalency_by_round, b.bivalency_by_round,
        "{label}: bivalency census"
    );
}

/// The cache's segment files in `dir`, sorted (one per committing
/// session).
fn segment_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().to_str().map(str::to_string))
                .filter(|name| name.ends_with(".seg"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// The converged chain's cache holds the whole memo: one more session
/// imports every state and computes none.
fn assert_fully_warm(report: &ExploreReport<WideValue>, label: &str) {
    assert_eq!(
        report.cache_hits, report.distinct_states,
        "{label}: the session after convergence is answered by the cache"
    );
    assert_eq!(report.fresh_states, 0, "{label}: nothing left to compute");
}

fn crw_config(system: &SystemConfig, symmetry: Symmetry) -> ExploreConfig {
    ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(system)
    }
}

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// The single-process engine matrix (partitioned-2 goes through the
/// distributed entry point).
fn engines() -> Vec<(&'static str, ExploreOptions)> {
    vec![
        ("serial", ExploreOptions::serial()),
        (
            "parallel-4",
            ExploreOptions {
                threads: 4,
                shards: 8,
                memo: MemoConfig::all_ram(),
                donate_depth: None,
                cache: None,
                budget: WalkBudget::unlimited(),
            },
        ),
        (
            "spill",
            ExploreOptions::serial().with_memo(MemoConfig::spill(16)),
        ),
    ]
}

/// Runs one budgeted exploration to completion by resuming from its
/// ReadWrite cache after every interruption.  Asserts every
/// intermediate error is a cache-carrying `Interrupted`, that every
/// session added exactly one segment, and that the chain terminates
/// (min-progress: each session memoizes at least one fresh
/// configuration, so `distinct_states + 2` sessions is a safe ceiling).
/// Then runs one more unbudgeted session, which must be fully warm.
fn run_resumable(
    system: SystemConfig,
    config: ExploreConfig,
    engine: &ExploreOptions,
    budget: WalkBudget,
    proposals: &[WideValue],
    dir: &Path,
    label: &str,
) -> (ExploreReport<WideValue>, usize) {
    let mut sessions = 0usize;
    let result = loop {
        sessions += 1;
        assert!(
            sessions <= 100_000,
            "{label}: resume chain does not converge"
        );
        let options = engine
            .clone()
            .with_budget(budget.clone())
            .with_cache(Some(CacheConfig::read_write(dir)));
        let outcome = explore_with(
            system,
            config,
            options,
            crw_processes(&system, proposals),
            proposals.to_vec(),
        );
        assert_eq!(
            segment_files(dir).len(),
            sessions,
            "{label}: each session commits exactly one segment"
        );
        match outcome {
            Ok(report) => break (report, sessions),
            Err(ExploreError::Interrupted { cache, states, .. }) => {
                assert_eq!(
                    cache.as_deref(),
                    Some(dir),
                    "{label}: interruption must commit to the cache"
                );
                assert!(states > 0, "{label}: min-progress before suspending");
            }
            Err(other) => panic!("{label}: unexpected error {other:?}"),
        }
    };
    let warm = explore_with(
        system,
        config,
        engine
            .clone()
            .with_cache(Some(CacheConfig::read_write(dir))),
        crw_processes(&system, proposals),
        proposals.to_vec(),
    )
    .unwrap();
    assert_identical(&result.0, &warm, label);
    assert_fully_warm(&warm, label);
    result
}

/// Step-budget matrix: pause every step (`max_steps: 0` and `1`) and at
/// prime strides, across every single-process engine and both symmetry
/// modes; the resumed report is bit-identical to the uninterrupted one
/// and the converged cache answers one more session completely.
#[test]
fn interrupted_and_resumed_matches_uninterrupted() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    for symmetry in [Symmetry::Off, Symmetry::Full] {
        let config = crw_config(&system, symmetry);
        let baseline = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for (engine_label, engine) in engines() {
            for max_steps in [0u64, 1, 7, 13] {
                let label = format!("crw(3,2) {symmetry:?} {engine_label} max_steps={max_steps}");
                let dir = TempDir::new(engine_label);
                let (resumed, sessions) = run_resumable(
                    system,
                    config,
                    &engine,
                    WalkBudget {
                        max_steps: Some(max_steps),
                        ..WalkBudget::unlimited()
                    },
                    &proposals,
                    dir.path(),
                    &label,
                );
                assert_identical(&baseline, &resumed, &label);
                assert!(
                    sessions > 1,
                    "{label}: a {max_steps}-step budget must actually interrupt"
                );
            }
        }
    }
}

/// An already-expired wall-clock deadline still converges: every
/// session suspends as soon as it has made minimum progress, and the
/// chain composes to the uninterrupted report.
#[test]
fn expired_deadline_resume_chain_converges() {
    let system = SystemConfig::new(3, 1).unwrap();
    let proposals = crw_proposals(3);
    let config = crw_config(&system, Symmetry::Off);
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let dir = TempDir::new("deadline");
    let (resumed, sessions) = run_resumable(
        system,
        config,
        &ExploreOptions::serial(),
        WalkBudget {
            deadline: Some(Duration::ZERO),
            ..WalkBudget::unlimited()
        },
        &proposals,
        dir.path(),
        "deadline-zero",
    );
    assert_identical(&baseline, &resumed, "deadline-zero");
    assert!(sessions > 1, "an expired deadline must interrupt");
}

/// A `StateLimit` abort under a ReadWrite cache commits the partial memo
/// (`Interrupted` with `BudgetKind::States`) instead of only erroring;
/// resuming with a raised valve completes to the uninterrupted report
/// (`max_states` is deliberately outside the run fingerprint).  Without
/// a ReadWrite cache — none at all, or a read-only one — the historical
/// `StateLimit` error is returned unchanged.
#[test]
fn state_limit_commits_a_resumable_cache() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    let roomy = crw_config(&system, Symmetry::Off);
    let baseline = explore_with(
        system,
        roomy,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let starved = ExploreConfig {
        max_states: baseline.distinct_states / 2,
        ..roomy
    };
    let run = |config: ExploreConfig, cache: Option<CacheConfig>| {
        explore_with(
            system,
            config,
            ExploreOptions::serial().with_cache(cache),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
    };

    let dir = TempDir::new("statelimit");
    match run(starved, Some(CacheConfig::read_write(dir.path()))).unwrap_err() {
        ExploreError::Interrupted {
            reason,
            cache,
            states,
        } => {
            assert_eq!(reason, BudgetKind::States);
            assert_eq!(cache.as_deref(), Some(dir.path()));
            assert!(states > 0);
        }
        other => panic!("expected a rerouted StateLimit, got {other:?}"),
    }

    // Without a ReadWrite cache the historical error is unchanged.
    for (cache_label, cache) in [
        ("no cache", None),
        ("read-only cache", Some(CacheConfig::read(dir.path()))),
    ] {
        let bare = run(starved, cache).unwrap_err();
        assert!(
            matches!(bare, ExploreError::StateLimit { .. }),
            "{cache_label} keeps the historical StateLimit error, got {bare:?}"
        );
    }

    // Resume with the valve raised: completes identical, and the cache
    // then answers one more session completely.
    let resumed = run(roomy, Some(CacheConfig::read_write(dir.path()))).unwrap();
    assert_identical(&baseline, &resumed, "statelimit resume");
    assert!(
        resumed.cache_hits > 0,
        "the resume warm-starts from the committed partial memo"
    );
    let warm = run(roomy, Some(CacheConfig::read_write(dir.path()))).unwrap();
    assert_identical(&baseline, &warm, "statelimit warm");
    assert_fully_warm(&warm, "statelimit warm");
}

/// A budget suspension under a *read-only* cache keeps the historical
/// behavior: `Interrupted { cache: None }`, the partial work discarded,
/// and not one byte written into the cache directory — neither an
/// empty one nor one holding another session's partial image.
#[test]
fn read_only_cache_suspension_writes_nothing() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    let config = crw_config(&system, Symmetry::Off);
    let suspend_once = |cache: CacheConfig| {
        explore_with(
            system,
            config,
            ExploreOptions::serial()
                .with_budget(WalkBudget {
                    max_steps: Some(7),
                    ..WalkBudget::unlimited()
                })
                .with_cache(Some(cache)),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap_err()
    };
    let snapshot = |dir: &Path| -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    };

    let dir = TempDir::new("read-only");
    std::fs::create_dir_all(dir.path()).unwrap();
    for round in ["empty dir", "partial image"] {
        let before = snapshot(dir.path());
        match suspend_once(CacheConfig::read(dir.path())) {
            ExploreError::Interrupted { cache, states, .. } => {
                assert_eq!(cache, None, "{round}: a read-only cache resumes nothing");
                assert!(states > 0, "{round}: min-progress before suspending");
            }
            other => panic!("{round}: expected Interrupted, got {other:?}"),
        }
        assert_eq!(
            snapshot(dir.path()),
            before,
            "{round}: a read-only suspension must write nothing"
        );
        // Give the second round a partial image to leave untouched.
        assert!(matches!(
            suspend_once(CacheConfig::read_write(dir.path())),
            ExploreError::Interrupted { cache: Some(_), .. }
        ));
    }
}

/// The partitioned-2 engine: budgets govern the whole pipeline.  An
/// expired deadline suspends at a phase boundary (committing the merged
/// worker results) or inside the replay, and resuming converges to the
/// uninterrupted distributed report; a step budget bounds the replay
/// walk the same way.
#[test]
fn partitioned_interrupted_and_resumed_matches_uninterrupted() {
    let system = SystemConfig::new(3, 2).unwrap();
    let proposals = crw_proposals(3);
    for symmetry in [Symmetry::Off, Symmetry::Full] {
        let config = crw_config(&system, symmetry);
        // Depth 2 keeps a real interior region (root + depth-1 configs)
        // for the replay to compute fresh: at depth 1 the only interior
        // insert is the root pop, which *is* walk completion, so a step
        // budget could never observe an interruptible replay.
        let dist = |replay: ExploreOptions, cache: Option<CacheConfig>| DistOptions {
            partitions: 2,
            depth: 2,
            attempts: 3,
            scratch_dir: None,
            replay,
            cache,
            steal: StealConfig::default(),
            faults: FaultPlan::none(),
            supervise: SuperviseConfig::default(),
        };
        let run = |replay: ExploreOptions, cache: Option<CacheConfig>| {
            explore_partitioned_in_process(
                system,
                config,
                &dist(replay, cache),
                ExploreOptions::serial(),
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
        };
        let baseline = run(ExploreOptions::serial(), None).unwrap();

        let budgets = [
            (
                "deadline-zero",
                WalkBudget {
                    deadline: Some(Duration::ZERO),
                    ..WalkBudget::unlimited()
                },
            ),
            (
                "max-steps-1",
                WalkBudget {
                    max_steps: Some(1),
                    ..WalkBudget::unlimited()
                },
            ),
            (
                "max-steps-7",
                WalkBudget {
                    max_steps: Some(7),
                    ..WalkBudget::unlimited()
                },
            ),
        ];
        for (budget_label, budget) in budgets {
            let label = format!("partitioned-2 {symmetry:?} {budget_label}");
            let dir = TempDir::new("partitioned");
            let cache = || Some(CacheConfig::read_write(dir.path()));
            let mut sessions = 0usize;
            let resumed = loop {
                sessions += 1;
                assert!(sessions <= 100_000, "{label}: does not converge");
                let replay = ExploreOptions::serial().with_budget(budget.clone());
                match run(replay, cache()) {
                    Ok(report) => break report,
                    Err(ExploreError::Interrupted { cache, .. }) => {
                        assert_eq!(
                            cache.as_deref(),
                            Some(dir.path()),
                            "{label}: interruption must commit to the cache"
                        );
                    }
                    Err(other) => panic!("{label}: unexpected error {other:?}"),
                }
            };
            assert_identical(&baseline, &resumed, &label);
            assert!(sessions > 1, "{label}: the budget must actually interrupt");
            let warm = run(ExploreOptions::serial(), cache()).unwrap();
            assert_identical(&baseline, &warm, &label);
            assert_fully_warm(&warm, &label);
        }
    }
}

/// A suspended run's partial cache from a *different* run (other
/// proposals → other fingerprint) is loudly ignored, never imported: the
/// run completes cold and matches its own baseline.
#[test]
fn foreign_partial_cache_is_ignored_not_imported() {
    let system = SystemConfig::new(3, 1).unwrap();
    let config = crw_config(&system, Symmetry::Off);
    let dir = TempDir::new("foreign");

    // Suspend run A (proposals 0,1,0) to commit a partial cache.
    let a_proposals = crw_proposals(3);
    let err = explore_with(
        system,
        config,
        ExploreOptions::serial()
            .with_budget(WalkBudget {
                max_steps: Some(1),
                ..WalkBudget::unlimited()
            })
            .with_cache(Some(CacheConfig::read_write(dir.path()))),
        crw_processes(&system, &a_proposals),
        a_proposals.clone(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        ExploreError::Interrupted { cache: Some(_), .. }
    ));

    // Run B (all-same proposals) sees A's partial cache but must not use it.
    let b_proposals = vec![WideValue::new(1, 1); 3];
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &b_proposals),
        b_proposals.clone(),
    )
    .unwrap();
    let with_stale = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path()))),
        crw_processes(&system, &b_proposals),
        b_proposals.clone(),
    )
    .unwrap();
    // A foreign import would inflate `distinct_states` with run A's
    // configurations; bit-identity to the cold baseline rules it out.
    assert_identical(&baseline, &with_stale, "foreign partial cache");
    assert_eq!(with_stale.cache_hits, 0, "a foreign image warms nothing");
}
