//! Differential suite for the persistent result cache: a cold run that
//! commits a cache followed by a warm run that consumes it must produce
//! **bit-identical** exploration results — root summary, distinct-state
//! count, bivalency census, witness — with `cache_hits ==
//! distinct_states` on the warm pass, across both model kinds and every
//! engine shape {serial, parallel-4, spill, partitioned-2}.  A cache
//! primed by one engine must warm any other (the segments are
//! engine-agnostic memo images).  A *changed* fingerprint — different
//! proposals, different exploration options — must be loudly ignored:
//! the run matches its own cold report and, in ReadWrite mode, replaces
//! the stale cache.  A *damaged* cache segment must never panic, crash,
//! or corrupt a result: the run falls back to (partially) cold
//! exploration and still matches the baseline.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use twostep_baselines::floodset_processes;
use twostep_core::{crw_processes, CommitOrder, Crw};
use twostep_model::{ProcessId, SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_partitioned_in_process, explore_with, validate_segment_file, CacheConfig, CacheMode,
    DistOptions, ExploreConfig, ExploreError, ExploreOptions, ExploreReport, FaultPlan, MemoConfig,
    RoundBound, SpecMode, SpillError, StealConfig, SuperviseConfig, Symmetry, WalkBudget,
};
use twostep_sim::ModelKind;

/// A unique temp directory removed on drop (cache roots for the suite).
struct TempDir {
    path: PathBuf,
}

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl TempDir {
    fn new(label: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "twostep-cache-test-{label}-{}-{}",
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

fn assert_identical<O: std::fmt::Debug + Eq>(
    a: &ExploreReport<O>,
    b: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(a.root, b.root, "{label}: root summary");
    assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
    assert_eq!(
        a.bivalency_by_round, b.bivalency_by_round,
        "{label}: bivalency census"
    );
}

/// The engine matrix of the acceptance criteria.  `partitioned-2` is
/// handled separately (it goes through the distributed entry point).
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

fn crw_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// One workload: how to build the initial processes and its config.
struct Workload<P, O> {
    system: SystemConfig,
    config: ExploreConfig,
    initial: Box<dyn Fn() -> Vec<P>>,
    proposals: Vec<O>,
}

fn crw_workload(n: usize, t: usize) -> Workload<Crw<WideValue>, WideValue> {
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let initial = {
        let proposals = proposals.clone();
        move || crw_processes(&system, &proposals)
    };
    Workload {
        system,
        config: ExploreConfig::for_crw(&system),
        initial: Box::new(initial),
        proposals,
    }
}

fn floodset_workload(n: usize, t: usize) -> Workload<twostep_baselines::FloodSet<u64>, u64> {
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
    let initial = {
        let proposals = proposals.clone();
        move || floodset_processes(n, t, &proposals)
    };
    Workload {
        system,
        config,
        initial: Box::new(initial),
        proposals,
    }
}

/// Cold-commit then warm-consume, per engine, per model kind.
fn cold_then_warm_matrix<P, O>(workload: &Workload<P, O>, label: &str)
where
    P: twostep_modelcheck::CheckableProtocol,
    O: std::hash::Hash + std::fmt::Debug + Clone + Eq + twostep_modelcheck::SpillCodec,
    P: twostep_sim::SyncProtocol<Output = O>,
{
    let baseline = explore_with(
        workload.system,
        workload.config,
        ExploreOptions::serial(),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();

    for (engine_label, engine) in engines() {
        let dir = TempDir::new(engine_label);
        let cached = |mode: CacheMode| {
            engine.clone().with_cache(Some(CacheConfig {
                dir: dir.path().to_path_buf(),
                mode,
                autosave_every: None,
            }))
        };

        let cold = explore_with(
            workload.system,
            workload.config,
            cached(CacheMode::ReadWrite),
            (workload.initial)(),
            workload.proposals.clone(),
        )
        .unwrap();
        assert_identical(&baseline, &cold, &format!("{label} {engine_label} cold"));
        assert_eq!(
            cold.cache_hits, 0,
            "{label} {engine_label}: cold has no hits"
        );
        assert_eq!(
            cold.fresh_states, cold.distinct_states,
            "{label} {engine_label}: cold is all fresh"
        );

        let warm = explore_with(
            workload.system,
            workload.config,
            cached(CacheMode::ReadWrite),
            (workload.initial)(),
            workload.proposals.clone(),
        )
        .unwrap();
        assert_identical(&baseline, &warm, &format!("{label} {engine_label} warm"));
        assert_eq!(
            warm.cache_hits, warm.distinct_states,
            "{label} {engine_label}: warm is answered entirely by the cache"
        );
        assert_eq!(
            warm.fresh_states, 0,
            "{label} {engine_label}: warm adds nothing"
        );

        // A fully-warm ReadWrite run must not have appended a segment:
        // the cache still holds exactly one (the cold run's image).
        let segments: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .collect();
        assert_eq!(
            segments.len(),
            1,
            "{label} {engine_label}: fully-warm commit writes no delta"
        );

        // Read-only warm consumption works the same way.
        let read_only = explore_with(
            workload.system,
            workload.config,
            cached(CacheMode::Read),
            (workload.initial)(),
            workload.proposals.clone(),
        )
        .unwrap();
        assert_identical(&baseline, &read_only, &format!("{label} {engine_label} ro"));
        assert_eq!(read_only.cache_hits, read_only.distinct_states);
    }
}

#[test]
fn extended_crw_cold_then_warm_is_bit_identical() {
    cold_then_warm_matrix(&crw_workload(4, 2), "extended crw (4,2)");
    cold_then_warm_matrix(&crw_workload(3, 2), "extended crw (3,2)");
}

#[test]
fn classic_floodset_cold_then_warm_is_bit_identical() {
    cold_then_warm_matrix(&floodset_workload(4, 2), "classic floodset (4,2)");
    cold_then_warm_matrix(&floodset_workload(3, 1), "classic floodset (3,1)");
}

/// The partitioned-2 engine: cold commit, then a warm run whose workers
/// are seeded from the cache and export (empty) deltas.
#[test]
fn partitioned_cold_then_warm_is_bit_identical() {
    let workload = crw_workload(4, 2);
    let baseline = explore_with(
        workload.system,
        workload.config,
        ExploreOptions::serial(),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();
    let dir = TempDir::new("partitioned");
    let options = |mode: CacheMode| DistOptions {
        partitions: 2,
        depth: 1,
        attempts: 3,
        scratch_dir: None,
        replay: ExploreOptions::serial(),
        cache: Some(CacheConfig {
            dir: dir.path().to_path_buf(),
            mode,
            autosave_every: None,
        }),
        steal: StealConfig::default(),
        faults: FaultPlan::none(),
        supervise: SuperviseConfig::default(),
    };

    let cold = explore_partitioned_in_process(
        workload.system,
        workload.config,
        &options(CacheMode::ReadWrite),
        ExploreOptions::serial(),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &cold, "partitioned cold");
    assert_eq!(cold.cache_hits, 0);

    let warm = explore_partitioned_in_process(
        workload.system,
        workload.config,
        &options(CacheMode::ReadWrite),
        ExploreOptions::serial(),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &warm, "partitioned warm");
    assert_eq!(
        warm.cache_hits, warm.distinct_states,
        "warm partitioned run is answered entirely by the cache"
    );
    assert_eq!(warm.fresh_states, 0);
}

/// A cache primed by one engine warms every other: the segments are
/// engine-agnostic memo images (serial primes; parallel, spill, and
/// partitioned consume).
#[test]
fn cache_is_engine_agnostic() {
    let workload = crw_workload(4, 3);
    let dir = TempDir::new("xengine");
    let cache = |mode: CacheMode| {
        Some(CacheConfig {
            dir: dir.path().to_path_buf(),
            mode,
            autosave_every: None,
        })
    };
    let baseline = explore_with(
        workload.system,
        workload.config,
        ExploreOptions::serial().with_cache(cache(CacheMode::ReadWrite)),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();
    for (engine_label, engine) in engines() {
        let warm = explore_with(
            workload.system,
            workload.config,
            engine.with_cache(cache(CacheMode::Read)),
            (workload.initial)(),
            workload.proposals.clone(),
        )
        .unwrap();
        assert_identical(&baseline, &warm, &format!("cross-engine {engine_label}"));
        assert_eq!(warm.cache_hits, warm.distinct_states, "{engine_label}");
    }
    let warm_dist = explore_partitioned_in_process(
        workload.system,
        workload.config,
        &DistOptions {
            partitions: 2,
            depth: 1,
            attempts: 3,
            scratch_dir: None,
            replay: ExploreOptions::serial(),
            cache: cache(CacheMode::Read),
            steal: StealConfig::default(),
            faults: FaultPlan::none(),
            supervise: SuperviseConfig::default(),
        },
        ExploreOptions::serial(),
        (workload.initial)(),
        workload.proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &warm_dist, "cross-engine partitioned");
    assert_eq!(warm_dist.cache_hits, warm_dist.distinct_states);
}

/// Witness reconstruction runs over a fully-seeded memo on a warm run:
/// the violating LowestFirst ablation must yield the same witness warm
/// as cold.
#[test]
fn warm_witness_matches_cold_witness() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let procs = || -> Vec<Crw<WideValue>> {
        proposals
            .iter()
            .enumerate()
            .map(|(i, v)| Crw::with_order(ProcessId::from_idx(i), n, *v, CommitOrder::LowestFirst))
            .collect()
    };
    let config = ExploreConfig::for_crw(&system);
    let dir = TempDir::new("witness");
    let cached = || ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path())));
    let cold = explore_with(system, config, cached(), procs(), proposals.clone()).unwrap();
    assert!(cold.root.violating, "ablation must violate the bound");
    let warm = explore_with(system, config, cached(), procs(), proposals.clone()).unwrap();
    assert_eq!(warm.cache_hits, warm.distinct_states);
    let wc = cold.witness.expect("cold witness");
    let ww = warm.witness.expect("warm witness");
    assert_eq!(format!("{:?}", wc.schedule), format!("{:?}", ww.schedule));
    assert_eq!(wc.decisions, ww.decisions);
    assert_eq!(wc.violations.len(), ww.violations.len());
}

/// A changed fingerprint (different proposals here) ignores the cache —
/// the run matches its own cold report, reports zero hits, and in
/// ReadWrite mode replaces the stale cache with its own image.
#[test]
fn stale_fingerprint_is_ignored_and_replaced() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let config = ExploreConfig::for_crw(&system);
    let dir = TempDir::new("stale");
    let cached = || Some(CacheConfig::read_write(dir.path()));

    // Prime under proposals A (alternating bits).
    let proposals_a = crw_proposals(n);
    explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(cached()),
        crw_processes(&system, &proposals_a),
        proposals_a.clone(),
    )
    .unwrap();
    // An unrelated segment-format file in the same directory (say, an
    // archived worker export) must survive every commit and GC below.
    let bystander = dir.path().join("archived-worker0.seg");
    std::fs::write(&bystander, b"not the cache's file").unwrap();

    // Run under proposals B (all the same bit): different fingerprint.
    let proposals_b: Vec<WideValue> = (0..n).map(|_| WideValue::new(1, 1)).collect();
    let baseline_b = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals_b),
        proposals_b.clone(),
    )
    .unwrap();
    let mismatched = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(cached()),
        crw_processes(&system, &proposals_b),
        proposals_b.clone(),
    )
    .unwrap();
    assert_identical(&baseline_b, &mismatched, "stale cache ignored");
    assert_eq!(
        mismatched.cache_hits, 0,
        "a stale cache contributes nothing"
    );

    // ...and the ReadWrite run replaced the stale cache: a further run
    // under B is now fully warm.
    let warm_b = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(cached()),
        crw_processes(&system, &proposals_b),
        proposals_b.clone(),
    )
    .unwrap();
    assert_identical(&baseline_b, &warm_b, "replaced cache warms B");
    assert_eq!(warm_b.cache_hits, warm_b.distinct_states);

    // The changed *options* fingerprint is also honored: same proposals,
    // different round cap → no hits, correct self-consistent result.
    let tighter = ExploreConfig {
        max_rounds: config.max_rounds + 1,
        ..config
    };
    let other_config = explore_with(
        system,
        tighter,
        ExploreOptions::serial().with_cache(cached()),
        crw_processes(&system, &proposals_b),
        proposals_b.clone(),
    )
    .unwrap();
    assert_eq!(
        other_config.cache_hits, 0,
        "config changes invalidate the cache"
    );
    assert_eq!(
        std::fs::read(&bystander).unwrap(),
        b"not the cache's file",
        "cache GC must never delete files it did not write"
    );
}

/// The symmetry mode is part of the run fingerprint: a cache committed
/// under `Symmetry::Full` must be **loudly replaced** — never silently
/// reused — by a `Symmetry::Off` run, and vice versa.  The two modes
/// memoize different key spaces (orbit representatives vs raw
/// configurations), so reusing either image for the other would corrupt
/// `distinct_states` and the census even where the verdicts agree.
#[test]
fn symmetry_mode_changes_the_cache_fingerprint() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = |symmetry: Symmetry| ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(&system)
    };
    let dir = TempDir::new("symmetry-mode");
    let cached = || Some(CacheConfig::read_write(dir.path()));
    let run = |symmetry: Symmetry, cache: Option<CacheConfig>| {
        explore_with(
            system,
            config(symmetry),
            ExploreOptions::serial().with_cache(cache),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap()
    };

    // Prime the cache under Full.
    let full_baseline = run(Symmetry::Full, None);
    let full_cold = run(Symmetry::Full, cached());
    assert_identical(&full_baseline, &full_cold, "full cold");
    assert_eq!(full_cold.cache_hits, 0);

    // An Off run sees a foreign fingerprint: zero hits, its own correct
    // cold report, and (ReadWrite) it replaces the Full image.
    let off_baseline = run(Symmetry::Off, None);
    assert!(
        full_baseline.distinct_states < off_baseline.distinct_states,
        "the two modes must actually key different state spaces here"
    );
    let off_over_full = run(Symmetry::Off, cached());
    assert_identical(&off_baseline, &off_over_full, "off over full cache");
    assert_eq!(
        off_over_full.cache_hits, 0,
        "a Full-mode cache must never warm an Off-mode run"
    );
    let off_warm = run(Symmetry::Off, cached());
    assert_identical(&off_baseline, &off_warm, "off warm");
    assert_eq!(
        off_warm.cache_hits, off_warm.distinct_states,
        "the replacement image warms its own mode"
    );

    // And the other direction: the Off image is foreign to Full.
    let full_over_off = run(Symmetry::Full, cached());
    assert_identical(&full_baseline, &full_over_off, "full over off cache");
    assert_eq!(
        full_over_off.cache_hits, 0,
        "an Off-mode cache must never warm a Full-mode run"
    );
    let full_warm = run(Symmetry::Full, cached());
    assert_identical(&full_baseline, &full_warm, "full warm");
    assert_eq!(full_warm.cache_hits, full_warm.distinct_states);
}

/// Strength, not mode, is what the fingerprint records: two *non-Off*
/// modes that resolve to different canonicalization strengths
/// (`Full` → the settled tier, `PartialValue` → the rank-inert tier
/// with the value quotient for CRW's binary proposals) memoize
/// different orbit spaces, so a cache written at one strength must be
/// loudly replaced — zero hits, correct cold report — when read at the
/// other, in both directions.  That holds for a *partial* image too: a
/// budget-suspended run's commit is just another cache, so resuming it
/// at another strength replaces it instead of mixing quotients.
#[test]
fn symmetry_strength_changes_the_cache_fingerprint() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals = crw_proposals(n);
    let config = |symmetry: Symmetry| ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(&system)
    };
    let dir = TempDir::new("symmetry-strength");
    let cached = || Some(CacheConfig::read_write(dir.path()));
    let run = |symmetry: Symmetry, cache: Option<CacheConfig>| {
        explore_with(
            system,
            config(symmetry),
            ExploreOptions::serial().with_cache(cache),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap()
    };

    let full_baseline = run(Symmetry::Full, None);
    let pv_baseline = run(Symmetry::PartialValue, None);
    assert!(
        pv_baseline.distinct_states < full_baseline.distinct_states,
        "the deeper strength must actually key a smaller orbit space here \
         ({} vs {})",
        pv_baseline.distinct_states,
        full_baseline.distinct_states
    );

    // A partial image committed by a budget-suspended partial+value run
    // is ignored by a Full run, which reaches its own baseline and
    // replaces the cache with its own complete image.
    let partial_dir = TempDir::new("symmetry-strength-partial");
    let suspended = explore_with(
        system,
        config(Symmetry::PartialValue),
        ExploreOptions::serial()
            .with_budget(WalkBudget {
                max_steps: Some(25),
                ..WalkBudget::unlimited()
            })
            .with_cache(Some(CacheConfig::read_write(partial_dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    );
    assert!(
        matches!(
            suspended,
            Err(ExploreError::Interrupted { cache: Some(_), .. })
        ),
        "the partial+value run must suspend into the cache, got {suspended:?}"
    );
    let partial = || Some(CacheConfig::read_write(partial_dir.path()));
    let full_over_partial = run(Symmetry::Full, partial());
    assert_identical(
        &full_baseline,
        &full_over_partial,
        "full over a suspended partial+value image",
    );
    assert_eq!(
        full_over_partial.cache_hits, 0,
        "a suspended partial+value image must never warm a Full run"
    );
    let full_warm = run(Symmetry::Full, partial());
    assert_identical(&full_baseline, &full_warm, "full after replacing");
    assert_eq!(
        full_warm.cache_hits, full_warm.distinct_states,
        "the Full run replaced the partial image with its own"
    );

    // Prime under the deeper strength; a Full run must not warm from it.
    let pv_cold = run(Symmetry::PartialValue, cached());
    assert_identical(&pv_baseline, &pv_cold, "partial+value cold");
    assert_eq!(pv_cold.cache_hits, 0);
    let full_over_pv = run(Symmetry::Full, cached());
    assert_identical(
        &full_baseline,
        &full_over_pv,
        "full over partial+value cache",
    );
    assert_eq!(
        full_over_pv.cache_hits, 0,
        "a partial+value cache must never warm a Full run"
    );

    // The Full run replaced the image; partial+value is foreign again,
    // replaces it back, and then warms itself completely.
    let pv_over_full = run(Symmetry::PartialValue, cached());
    assert_identical(&pv_baseline, &pv_over_full, "partial+value over full cache");
    assert_eq!(
        pv_over_full.cache_hits, 0,
        "a Full cache must never warm a partial+value run"
    );
    let pv_warm = run(Symmetry::PartialValue, cached());
    assert_identical(&pv_baseline, &pv_warm, "partial+value warm");
    assert_eq!(pv_warm.cache_hits, pv_warm.distinct_states);
}

/// A damaged cache segment is detected (CRC / decompression / framing),
/// classified as Corrupt by the standalone validator, and the
/// exploration **discards the whole seed** and runs cold — a partial
/// image must never shrink the report's aggregates (a seeded parent
/// would hide its missing descendants from `distinct_states`).  A
/// ReadWrite run then heals the cache with its own full image.
#[test]
fn corrupted_cache_segment_degrades_to_cold_run() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let config = ExploreConfig::for_crw(&system);
    let proposals = crw_proposals(n);
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();

    // Flip a byte at several positions through the segment body; each
    // damaged copy must classify as Corrupt and still explore correctly.
    let pristine_dir = TempDir::new("corrupt-src");
    explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(pristine_dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let segment = std::fs::read_dir(pristine_dir.path())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("committed cache holds one segment");
    let pristine = std::fs::read(&segment).unwrap();
    assert!(
        validate_segment_file(&segment).is_ok(),
        "pristine validates"
    );

    for position in [24usize, 40, pristine.len() / 2, pristine.len() - 2] {
        let mut damaged = pristine.clone();
        damaged[position] ^= 0x10;
        std::fs::write(&segment, &damaged).unwrap();
        let err =
            validate_segment_file(&segment).expect_err("a flipped body byte must not validate");
        assert!(
            matches!(err, SpillError::Corrupt { .. }),
            "flip at {position}: expected Corrupt, got {err:?}"
        );

        let report = explore_with(
            system,
            config,
            ExploreOptions::serial().with_cache(Some(CacheConfig::read(pristine_dir.path()))),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        assert_identical(
            &baseline,
            &report,
            &format!("corrupt cache, flip at {position}"),
        );
        assert_eq!(
            report.cache_hits, 0,
            "flip at {position}: a broken cache is discarded whole, not partially used"
        );
    }

    // A ReadWrite run on the (still damaged) cache explores cold and
    // replaces the broken image; the next run is fully warm again.
    let healing = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(pristine_dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &healing, "healing run");
    assert_eq!(healing.cache_hits, 0);
    let healed = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(pristine_dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &healed, "healed cache warms again");
    assert_eq!(healed.cache_hits, healed.distinct_states);
}

/// Satellite regression for the v4 format bump: a cache whose segment is
/// a **v3-era file** (the pre-byte-key record layout) must be classified
/// foreign and discarded whole — never silently reused — and a ReadWrite
/// run must loudly replace it with a fresh v4 image.
#[test]
fn v3_segment_cache_is_foreign_and_replaced() {
    let (n, t) = (4usize, 2usize);
    let system = SystemConfig::new(n, t).unwrap();
    let config = ExploreConfig::for_crw(&system);
    let proposals = crw_proposals(n);
    let baseline = explore_with(
        system,
        config,
        ExploreOptions::serial(),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();

    // Prime a valid cache, then rewrite its segment as a sealed, empty
    // v3 file: 8-byte magic, version 3, zero records, compression flag.
    // The manifest still matches this run's fingerprint, so the segment
    // itself is what the seed import must reject.
    let dir = TempDir::new("v3-cache");
    explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let segment = std::fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .expect("committed cache holds one segment");
    let mut v3_header = Vec::new();
    v3_header.extend_from_slice(b"TWOSPILL");
    v3_header.extend_from_slice(&3u32.to_le_bytes());
    v3_header.extend_from_slice(&0u64.to_le_bytes());
    v3_header.push(1); // FLAG_COMPRESSED
    v3_header.extend_from_slice(&[0u8; 3]);
    assert_eq!(v3_header.len(), 24, "segment header is 24 bytes");
    std::fs::write(&segment, &v3_header).unwrap();
    let err = validate_segment_file(&segment).expect_err("v3 must not validate under v4");
    assert!(
        matches!(err, SpillError::Foreign { .. }),
        "expected Foreign, got {err:?}"
    );

    // Read-only: the v3 cache is ignored, the run is cold and correct.
    let cold = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &cold, "v3 cache ignored");
    assert_eq!(
        cold.cache_hits, 0,
        "no record of a v3 segment is ever reused"
    );

    // ReadWrite: the broken cache is replaced; the next run warms fully
    // from the fresh v4 image.
    let replacing = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &replacing, "replacing run");
    assert_eq!(replacing.cache_hits, 0);
    let warmed = explore_with(
        system,
        config,
        ExploreOptions::serial().with_cache(Some(CacheConfig::read_write(dir.path()))),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&baseline, &warmed, "replaced cache warms again");
    assert_eq!(warmed.cache_hits, warmed.distinct_states);
}
