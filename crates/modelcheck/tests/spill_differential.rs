//! Differential suite for the two-tier (RAM + disk) memo: exploring with
//! a spilling memo (`hot_capacity = 16`, far below the distinct-state
//! count of every non-trivial system here) must produce reports identical
//! to the all-RAM engine in every aggregate, for `n ≤ 5`, both model
//! kinds, and both the serial and the work-sharing parallel engine
//! (threads 1 and 4) — the bit-identical spill-vs-no-spill claim of the
//! explorer module docs.
//!
//! Spilling runs twice per system: once into an explicit caller-provided
//! root (the system temp dir) and once into the automatic temp dir, which
//! also exercises the spill-directory lifecycle under concurrent
//! explorations.

use twostep_baselines::floodset_processes;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_with, ExploreConfig, ExploreOptions, ExploreReport, MemoConfig, RoundBound, SpecMode,
    Symmetry, WalkBudget,
};
use twostep_sim::ModelKind;

/// Largest `n` explored at every `t`; larger `n` only with `t ≤ 2` (same
/// budget policy as `parallel_differential.rs`).
const FULL_DEPTH_N: usize = 4;

const HOT_CAPACITY: usize = 16;

fn systems() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for n in 2..=5usize {
        for t in 1..n {
            if n <= FULL_DEPTH_N || t <= 2 {
                out.push((n, t));
            }
        }
    }
    out
}

fn assert_identical<O: std::fmt::Debug + Eq>(
    ram: &ExploreReport<O>,
    spilled: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(ram.root, spilled.root, "{label}: root summary");
    assert_eq!(
        ram.distinct_states, spilled.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        ram.bivalency_by_round, spilled.bivalency_by_round,
        "{label}: bivalency census"
    );
}

fn spill_configs() -> Vec<(&'static str, MemoConfig)> {
    vec![
        ("temp-dir", MemoConfig::spill(HOT_CAPACITY)),
        (
            "explicit-dir",
            MemoConfig::spill_to(HOT_CAPACITY, std::env::temp_dir()),
        ),
    ]
}

#[test]
fn extended_model_crw_spill_equals_ram() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
        let config = ExploreConfig::for_crw(&system);
        let ram = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for threads in [1usize, 4] {
            for (dir_label, memo) in spill_configs() {
                let spilled = explore_with(
                    system,
                    config,
                    ExploreOptions {
                        threads,
                        shards: 8,
                        memo,
                        donate_depth: None,
                        cache: None,
                        budget: WalkBudget::unlimited(),
                    },
                    crw_processes(&system, &proposals),
                    proposals.clone(),
                )
                .unwrap();
                assert_identical(
                    &ram,
                    &spilled,
                    &format!("extended crw n={n} t={t} threads={threads} {dir_label}"),
                );
            }
        }
    }
}

#[test]
fn classic_model_floodset_spill_equals_ram() {
    for (n, t) in systems() {
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
        let ram = explore_with(
            system,
            config,
            ExploreOptions::serial(),
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for threads in [1usize, 4] {
            let spilled = explore_with(
                system,
                config,
                ExploreOptions {
                    threads,
                    shards: 8,
                    memo: MemoConfig::spill(HOT_CAPACITY),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                },
                floodset_processes(n, t, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &ram,
                &spilled,
                &format!("classic floodset n={n} t={t} threads={threads}"),
            );
        }
    }
}

/// The acceptance shape from the roadmap: a hot capacity orders of
/// magnitude below the distinct-state count completes (no `StateLimit`),
/// proving `max_states` now budgets disk-backed distinct states, not
/// resident RAM.
#[test]
fn hot_capacity_far_below_state_count_completes() {
    let (n, t) = (5usize, 4usize);
    let system = SystemConfig::new(n, t).unwrap();
    let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let report = explore_with(
        system,
        ExploreConfig::for_crw(&system),
        ExploreOptions::with_threads(2).with_memo(MemoConfig::spill(HOT_CAPACITY)),
        crw_processes(&system, &proposals),
        proposals,
    )
    .expect("spilling exploration must not trip StateLimit");
    assert!(
        report.distinct_states > 20 * HOT_CAPACITY,
        "distinct states ({}) must dwarf hot_capacity ({HOT_CAPACITY})",
        report.distinct_states
    );
    assert!(!report.root.violating);
    assert_eq!(report.root.worst_round_by_f[t], Some(t as u32 + 1));
}
