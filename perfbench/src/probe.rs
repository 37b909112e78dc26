//! Layer probe: times the engine's fork and round step and the
//! adversary's crash-outcome enumeration by calling them directly on a
//! seeded corpus of reachable configurations.
//!
//! The corpus is built by random walks from the root: in each round every
//! active process crashes with probability 1/4 (within the crash budget),
//! choosing uniformly among its effective crash outcomes.  Every
//! non-quiescent configuration met on the way is kept together with the
//! adversary move the walk took from it.

use std::time::Instant;

use twostep_adversary::crash_outcomes_effective_into;
use twostep_core::crw_processes;
use twostep_model::{CrashStage, ProcessId, SystemConfig, WideValue};
use twostep_sim::{ModelKind, PlanShape, ProcStatus, RoundActions, Stepper, TraceLevel};

use crate::SplitMix;

/// Configurations in the corpus.
const CORPUS: usize = 512;
/// Timed passes over the corpus; each metric is the median pass.
const PASSES: usize = 7;
/// Corpus sweeps per timed pass.
const SWEEPS: usize = 40;

type Config = Stepper<twostep_core::Crw<WideValue>>;

/// One corpus entry's enumeration inputs, resolved from the configuration
/// the way the model checker resolves them.
struct EnumInput {
    live_data_dests: Vec<ProcessId>,
    had_data_plan: bool,
    live_control_ks: Vec<usize>,
}

/// Probe results, in nanoseconds per call.
pub struct ProbeReport {
    pub fork_ns: f64,
    pub step_ns: f64,
    pub outcome_ns: f64,
    /// Crash outcomes the enumeration emits per configuration, summed
    /// over its active processes (mean over the corpus).
    pub outcomes_per_config: f64,
}

/// The enumeration inputs of active process `i` in `config`.
fn enum_input(config: &Config, i: usize, shape: &mut PlanShape) -> Option<EnumInput> {
    if !config.peek_plan_shape_into(i, shape) {
        return None;
    }
    let status = config.status();
    let live = |p: &ProcessId| matches!(status[p.idx()], ProcStatus::Active);
    Some(EnumInput {
        live_data_dests: shape.data_dests.iter().copied().filter(live).collect(),
        had_data_plan: !shape.data_dests.is_empty(),
        live_control_ks: shape
            .control_dests
            .iter()
            .enumerate()
            .filter(|(_, p)| live(p))
            .map(|(k0, _)| k0 + 1)
            .collect(),
    })
}

fn build_corpus(
    system: SystemConfig,
    proposals: &[WideValue],
    rng: &mut SplitMix,
) -> Vec<(Config, RoundActions, Vec<EnumInput>)> {
    let n = system.n();
    let root = Stepper::new(
        system,
        ModelKind::Extended,
        TraceLevel::Off,
        crw_processes(&system, proposals),
    )
    .expect("root configuration is valid");
    let mut shape = PlanShape {
        data_dests: Vec::new(),
        control_len: 0,
        control_dests: Vec::new(),
    };
    let mut stages = Vec::new();
    let mut corpus = Vec::with_capacity(CORPUS);
    while corpus.len() < CORPUS {
        let mut config = root.clone();
        let mut crashed = 0;
        while !config.is_quiescent() && corpus.len() < CORPUS {
            let inputs: Vec<EnumInput> = (0..n)
                .filter_map(|i| enum_input(&config, i, &mut shape))
                .collect();
            let active: Vec<usize> = config.active().map(|p| p.idx()).collect();
            let mut actions: RoundActions = vec![None; n];
            for (&i, input) in active.iter().zip(&inputs) {
                if crashed < system.t() && rng.below(4) == 0 {
                    crash_outcomes_effective_into(
                        n,
                        &input.live_data_dests,
                        input.had_data_plan,
                        &input.live_control_ks,
                        &mut stages,
                    );
                    let pick: &CrashStage = &stages[rng.below(stages.len() as u64) as usize];
                    actions[i] = Some(pick.clone());
                    crashed += 1;
                }
            }
            let mut next = config.clone();
            next.step(&actions)
                .expect("a reachable configuration steps");
            corpus.push((config, actions, inputs));
            config = next;
        }
    }
    corpus
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Builds the corpus from `seed` and times the three calls over it,
/// taking the clock's own cost `timer_ns` off each timed fork and step.
pub fn run(system: SystemConfig, proposals: &[WideValue], seed: u64, timer_ns: f64) -> ProbeReport {
    // A stream of its own: the proposal vector took the seed's first draw.
    let corpus = build_corpus(system, proposals, &mut SplitMix::new(!seed));
    let n = system.n();

    let mut stages = Vec::new();
    let enum_calls: usize = corpus.iter().map(|(_, _, inputs)| inputs.len()).sum();
    let mut emitted = 0usize;
    for (_, _, inputs) in &corpus {
        for input in inputs {
            crash_outcomes_effective_into(
                n,
                &input.live_data_dests,
                input.had_data_plan,
                &input.live_control_ks,
                &mut stages,
            );
            emitted += stages.len();
        }
    }

    let mut scratch = corpus[0].0.clone();
    let (mut fork, mut step, mut outcome) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PASSES {
        let (mut fork_ns, mut step_ns) = (0u128, 0u128);
        let start = Instant::now();
        for _ in 0..SWEEPS {
            for (_, _, inputs) in &corpus {
                for input in inputs {
                    crash_outcomes_effective_into(
                        n,
                        std::hint::black_box(&input.live_data_dests),
                        input.had_data_plan,
                        &input.live_control_ks,
                        &mut stages,
                    );
                    std::hint::black_box(&stages);
                }
            }
        }
        outcome.push(start.elapsed().as_nanos() as f64 / (SWEEPS * enum_calls) as f64);
        for _ in 0..SWEEPS {
            for (config, actions, _) in &corpus {
                let t0 = Instant::now();
                scratch.fork_from(config);
                let t1 = Instant::now();
                scratch
                    .step(actions)
                    .expect("a reachable configuration steps");
                let t2 = Instant::now();
                fork_ns += (t1 - t0).as_nanos();
                step_ns += (t2 - t1).as_nanos();
                std::hint::black_box(&scratch);
            }
        }
        let ops = (SWEEPS * corpus.len()) as f64;
        fork.push(fork_ns as f64 / ops - timer_ns);
        step.push(step_ns as f64 / ops - timer_ns);
    }
    ProbeReport {
        fork_ns: median(fork),
        step_ns: median(step),
        outcome_ns: median(outcome),
        outcomes_per_config: emitted as f64 / corpus.len() as f64,
    }
}
