//! Differential property test for the parallel exploration engine: for
//! every `(n, t)` with `n ≤ 5` and both model kinds, exploring with
//! `threads ∈ {2, 4, 8}` must produce a report identical to the serial
//! walk (`threads = 1`) in every aggregate — execution count, worst
//! decision round per `f`, valency (including its order), violation flag,
//! `distinct_states`, and the per-round bivalency census.
//!
//! The extended model runs the paper's algorithm (CRW); the classic model
//! runs FloodSet (CRW's control messages are rejected under classic
//! semantics).  Systems whose exhaustive space is too big for a routine
//! test run are capped by the `FULL_DEPTH_N` constant: beyond it only the
//! thin-budget `(n, 1)` and `(n, 2)` corners run, which still exercises
//! wide fan-out (many processes) without minutes of wall time.

use twostep_baselines::floodset_processes;
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore, explore_with, ExploreConfig, ExploreOptions, ExploreReport, MemoConfig, RoundBound,
    SpecMode, Symmetry, WalkBudget,
};
use twostep_sim::ModelKind;

/// Largest `n` explored at every `t`; larger `n` only with `t ≤ 2`.
const FULL_DEPTH_N: usize = 4;

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
    serial: &ExploreReport<O>,
    parallel: &ExploreReport<O>,
    label: &str,
) {
    assert_eq!(
        serial.root.terminals, parallel.root.terminals,
        "{label}: execution count"
    );
    assert_eq!(
        serial.root.worst_round_by_f, parallel.root.worst_round_by_f,
        "{label}: worst round per f"
    );
    assert_eq!(
        serial.root.decided, parallel.root.decided,
        "{label}: valency (and its merge order)"
    );
    assert_eq!(
        serial.root.violating, parallel.root.violating,
        "{label}: violation flag"
    );
    assert_eq!(
        serial.distinct_states, parallel.distinct_states,
        "{label}: distinct states"
    );
    assert_eq!(
        serial.bivalency_by_round, parallel.bivalency_by_round,
        "{label}: bivalency census"
    );
}

#[test]
fn extended_model_crw_parallel_equals_serial() {
    for (n, t) in systems() {
        let system = SystemConfig::new(n, t).unwrap();
        let proposals: Vec<WideValue> = (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
        let config = ExploreConfig::for_crw(&system);
        let serial = explore(
            system,
            config,
            crw_processes(&system, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = explore_with(
                system,
                config,
                ExploreOptions {
                    threads,
                    shards: 16,
                    memo: MemoConfig::all_ram(),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                },
                crw_processes(&system, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &parallel,
                &format!("extended crw n={n} t={t} threads={threads}"),
            );
        }
    }
}

#[test]
fn classic_model_floodset_parallel_equals_serial() {
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
        let serial = explore(
            system,
            config,
            floodset_processes(n, t, &proposals),
            proposals.clone(),
        )
        .unwrap();
        for threads in [2usize, 4, 8] {
            let parallel = explore_with(
                system,
                config,
                ExploreOptions {
                    threads,
                    shards: 16,
                    memo: MemoConfig::all_ram(),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                },
                floodset_processes(n, t, &proposals),
                proposals.clone(),
            )
            .unwrap();
            assert_identical(
                &serial,
                &parallel,
                &format!("classic floodset n={n} t={t} threads={threads}"),
            );
        }
    }
}

#[test]
fn theorem3_restricted_adversary_parallel_equals_serial() {
    // The one-crash-per-round adversary (Theorem 3) takes a different
    // branch through action enumeration; check it differentially too.
    let system = SystemConfig::new(4, 3).unwrap();
    let proposals: Vec<WideValue> = (0..4).map(|i| WideValue::new(1, (i % 2) as u64)).collect();
    let config = ExploreConfig::theorem3(&system);
    let serial = explore(
        system,
        config,
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    let parallel = explore_with(
        system,
        config,
        ExploreOptions::with_threads(4),
        crw_processes(&system, &proposals),
        proposals.clone(),
    )
    .unwrap();
    assert_identical(&serial, &parallel, "theorem3 n=4 t=3");
}
