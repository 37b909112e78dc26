//! # twostep-modelcheck — bounded exhaustive verification
//!
//! The paper's Section 5 lower bound is a bivalency proof: it argues over
//! *all* executions that uniform consensus cannot finish before round
//! `f+1` in the extended model.  A proof cannot be "run", but its content
//! can be regenerated mechanically for small systems: this crate explores
//! the **complete** execution space of a protocol under every admissible
//! crash adversary (arbitrary data subsets, ordered commit prefixes,
//! decide-then-die), verifies the uniform-consensus specification on every
//! terminal execution, and computes configuration **valency** round by
//! round.
//!
//! Highlights:
//!
//! * [`explore`] / [`explore_with`] — memoized DAG exploration with
//!   per-subtree [`Summary`]s (terminal counts, worst decision round per
//!   `f`, reachable decision values, violations); the engine is an
//!   iterative, work-sharing parallel walker over a sharded, optionally
//!   **two-tier (RAM + disk)** memo ([`ExploreOptions`] selects
//!   thread/shard counts and the [`MemoConfig`] tiering, `threads = 1`
//!   is the serial walk, and every option produces bit-identical
//!   reports);
//! * [`MemoConfig`] / [`SpillCodec`] — the disk tier: a bounded hot map
//!   per shard plus append-only, checksummed segment files of compactly
//!   encoded cold entries — keys *and* summaries, indexed in RAM only by
//!   fixed-width hashes (module [`spill`]), so the reachable `(n, t)` is
//!   bounded by disk, not RAM;
//! * [`explore_partitioned`] / [`run_worker`] (module [`dist`]) — the
//!   **distributed** engine: hash-partition the depth-`d` frontier
//!   across worker OS processes, merge their exported memo segments, and
//!   replay the canonical walk — bit-identical to the serial report,
//!   with crashed workers validated out and retried;
//! * [`explore_elastic`] / [`run_worker_elastic`] — the **elastic**
//!   variant: walk locally first, offload only when the run outlives
//!   [`StealConfig`]'s thresholds, and re-balance live by preempting
//!   loaded workers (steal-flag handshake, frontier re-split) — still
//!   bit-identical;
//! * [`Witness`] — concrete counterexample schedules, reconstructed when
//!   a violation exists (used by the commit-order ablation, where the
//!   ascending variant mechanically violates Theorem 1);
//! * [`RoundBound`] — the `f+1` / `min(f+2, t+1)` / `t+1` bounds as
//!   checkable predicates.
//!
//! Used by experiment **E5** (`repro e5-lowerbound`) and by the
//! cross-crate test suite to validate every algorithm in the workspace
//! over the full schedule space for small `n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dist;
pub mod explorer;
pub mod faults;
pub mod memo;
pub mod sample;
pub mod spill;

pub use cache::{cache_from_env, run_fingerprint, CacheConfig, CacheMode};
pub use dist::{
    explore_elastic, explore_elastic_in_process, explore_elastic_timed, explore_partitioned,
    explore_partitioned_in_process, explore_partitioned_timed, run_worker, run_worker_elastic,
    steal_from_env, supervise_from_env, DistOptions, DistTimings, ElasticExit, ElasticStats,
    ElasticTask, StealConfig, SuperviseConfig, WorkerPulse, WorkerReport, WorkerTask,
};
pub use explorer::{
    budget_from_env, explore, explore_with, Arbiter, BudgetArbiter, BudgetKind, CheckableProtocol,
    ExploreConfig, ExploreError, ExploreOptions, ExploreReport, RoundBound, SpecMode, StepProgress,
    StepResult, StepStatus, StepVerdict, Summary, Symmetry, Unbounded, WalkBudget, Witness,
};
pub use faults::{
    fault_plan_from_env, install_io_fault, FaultPlan, IoFault, IoFaultGuard, WorkerFault,
    WorkerPhase,
};
pub use memo::MemoConfig;
pub use sample::{sample, SampleConfig, SampleReport, SampleStrategy, SampleViolation};
pub use spill::{decode_summary, encode_summary, validate_segment_file, SpillCodec, SpillError};
