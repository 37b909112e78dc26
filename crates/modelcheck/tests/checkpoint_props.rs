//! Property test for suspend/resume composition: splitting one
//! exploration into an *arbitrary* sequence of step-budget partitions —
//! suspend by committing to a ReadWrite cache after each, warm-start the
//! next from it — must compose to the bit-identical final report and
//! bivalency census of one uninterrupted walk, after which the cache
//! answers one more session completely.  The partition vector is
//! generated (lengths, budget sizes, and zero-step sessions all
//! arbitrary); once the plan runs out the last session runs unbounded,
//! so every case terminates by the min-progress guarantee.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_with, CacheConfig, ExploreConfig, ExploreError, ExploreOptions, ExploreReport,
    Symmetry, WalkBudget,
};

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new() -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "twostep-resume-props-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Runs the (3, 1) CRW workload in sessions budgeted by `plan` (then
/// unbounded once the plan is spent), committing to one cache between
/// sessions, and returns the composed final report, the session count,
/// and the report of one more session over the converged cache.
fn run_partitioned_walk(
    system: SystemConfig,
    config: ExploreConfig,
    proposals: &[WideValue],
    plan: &[u64],
) -> Result<(ExploreReport<WideValue>, usize, ExploreReport<WideValue>), TestCaseError> {
    let dir = TempDir::new();
    let cache = Some(CacheConfig::read_write(&dir.path));
    let session = |budget: WalkBudget| {
        explore_with(
            system,
            config,
            ExploreOptions::serial()
                .with_budget(budget)
                .with_cache(cache.clone()),
            crw_processes(&system, proposals),
            proposals.to_vec(),
        )
    };
    let mut sessions = 0usize;
    loop {
        let budget = match plan.get(sessions) {
            Some(&max_steps) => WalkBudget {
                max_steps: Some(max_steps),
                ..WalkBudget::unlimited()
            },
            None => WalkBudget::unlimited(),
        };
        sessions += 1;
        prop_assert!(sessions <= plan.len() + 1, "plan overrun");
        match session(budget) {
            Ok(report) => {
                let warm = session(WalkBudget::unlimited())
                    .map_err(|e| TestCaseError::fail(format!("warm session: {e:?}")))?;
                return Ok((report, sessions, warm));
            }
            Err(ExploreError::Interrupted { cache, .. }) => {
                prop_assert_eq!(
                    cache.as_deref(),
                    Some(dir.path.as_path()),
                    "every interruption commits to the cache"
                );
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error {other:?}")));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_step_partitions_compose_to_the_uninterrupted_report(
        plan in prop::collection::vec(0u64..60, 0..=12),
        odd_one_out in 0usize..3,
    ) {
        let system = SystemConfig::new(3, 1).unwrap();
        let config = ExploreConfig {
            symmetry: Symmetry::Off,
            ..ExploreConfig::for_crw(&system)
        };
        let proposals: Vec<WideValue> = (0..3)
            .map(|i| WideValue::new(1, u64::from(i == odd_one_out)))
            .collect();
        let uninterrupted = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();

        let (composed, sessions, warm) =
            run_partitioned_walk(system, config, &proposals, &plan)?;
        prop_assert_eq!(&composed.root, &uninterrupted.root, "root summary");
        prop_assert_eq!(
            composed.distinct_states,
            uninterrupted.distinct_states,
            "distinct states"
        );
        prop_assert_eq!(
            &composed.bivalency_by_round,
            &uninterrupted.bivalency_by_round,
            "bivalency census"
        );
        prop_assert_eq!(&warm.root, &uninterrupted.root, "warm root summary");
        prop_assert_eq!(
            warm.cache_hits,
            uninterrupted.distinct_states,
            "the converged cache answers every state"
        );
        prop_assert_eq!(warm.fresh_states, 0, "nothing left to compute");
        // The plan really partitioned the walk whenever it starts with a
        // budget too small to finish in one go.
        if plan.first().is_some_and(|&steps| steps == 0) {
            prop_assert!(sessions > 1, "a zero-step opener must interrupt");
        }
    }
}
