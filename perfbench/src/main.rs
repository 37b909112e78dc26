//! `perfbench` — end-to-end and per-layer benchmark of the model
//! checker's headline job: verifying that CRW uniform consensus decides
//! in exactly `f + 1` rounds under every crash adversary (Theorem 1 and
//! the §5 bivalency argument), at `(n, t) = (7, 6)` in the extended model.
//!
//! ```text
//! perfbench --workload <exhaustive|quotient|fanout|warm> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! One operation is one full verification: from the initial
//! configuration to a checked report.  Operations run back to back in one
//! process (a closed loop with one client) for `--seconds`, with at most
//! two threads or worker processes busy at once.
//!
//! Workloads — the same input, four ways through the checker:
//!
//! * `exhaustive` — serial in-process walk, symmetry off, all-RAM memo,
//!   no cache.  The core every engine drives (about half fork + round
//!   step, a third keying + memo), so engine, enumeration and keying
//!   gains show here.
//! * `quotient` — the same walk at the strongest symmetry CRW declares
//!   (`partial+value`): 6.2x fewer memo states but only 17% fewer edges,
//!   so canonicalization and edge pruning show here and not on
//!   `exhaustive`.
//! * `fanout` — the `twostep-dist --partitions` path: two worker OS
//!   processes with one walker thread each, static fan-out, no cache, no
//!   faults.  The only workload that runs the coordinator phases and
//!   segment export/merge.
//! * `warm` — the same verification answered entirely from a persistent
//!   cache that set-up primes with one cold walk: the memo's read side
//!   (segment import and hits, no forks).
//!
//! The in-process multi-thread engine is left out: on a two-core machine
//! it measures contention, not code.
//!
//! The seed picks the proposal vector (and the probe corpus).  Balanced
//! binary vectors at `n = 7` fall into classes whose state spaces differ
//! by up to 2x in walk time, so the seed draws only from the class of the
//! canonical bench vector `0101010` (`p_1 != p_2`, and `p_1` holds the
//! majority value): all 20 members have the same 12,495-state space, and
//! runs on different seeds stay comparable.  `fanout` always verifies the
//! canonical vector, the only one its worker argument vector carries.
//!
//! `--trace 0` prints the end-to-end metrics.  The time metric,
//! `verify_rel`, is the median over the run of each verification's wall
//! seconds divided by those of the latest [`yardstick`] pass (a fixed
//! std-only kernel timed once per 0.2 s of verifications), so swings in
//! the shared host's memory speed cancel; the raw wall-clock median is
//! the per-layer `bench.verify_s`.  `setup_s` is the median of five
//! set-ups, `peak_rss_mb` the peak resident memory.
//!
//! `--trace 1` interleaves
//! plain and traced verifications and prints the per-layer metrics, all
//! measured from outside the checker: protocol-boundary counts through
//! the [`traced::Traced`] wrapper, engine and enumeration costs through a
//! direct-call probe ([`probe`]), and the rest from the returned reports.
//! A layer a workload does not reach reads 0 (the `dist` phases outside
//! `fanout`, the cache outside `warm`).  The fan-out entry point builds
//! its own protocol instances in the coordinator and in the workers, so
//! the `core.crw` counts read 0 on `fanout`; its `dup_ratio` counts the
//! records in the workers' export segments.
//! The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod probe;
mod sys;
mod traced;
mod yardstick;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use twostep_bench::distcli::{
    bench_proposals, maybe_run_dist_worker, run_partitioned_crw, CrwWorkerArgs,
};
use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_with, validate_segment_file, CacheConfig, CheckableProtocol, ExploreConfig,
    ExploreOptions, ExploreReport, FaultPlan, SuperviseConfig, Symmetry, WalkBudget,
};

use crate::traced::{Counts, Traced};

const N: usize = 7;
const T: usize = 6;
/// Set-up runs per process; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fan-out shape: worker processes, frontier depth, walker threads per
/// worker.
const PARTITIONS: usize = 2;
const DEPTH: u32 = 1;
const WORKER_THREADS: usize = 1;
/// Verification seconds between two yardstick passes: every exhaustive
/// or quotient verification gets a fresh pass, warm ones share one per
/// ten or so.
const YARDSTICK_EVERY_S: f64 = 0.2;
/// Set by the traced fan-out run: each worker appends the record count of
/// its export segment to this file.
const WORKER_LOG_VAR: &str = "PERFBENCH_WORKER_LOG";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Exhaustive,
    Quotient,
    Fanout,
    Warm,
}

impl Workload {
    fn parse(raw: &str) -> Option<Workload> {
        Some(match raw {
            "exhaustive" => Workload::Exhaustive,
            "quotient" => Workload::Quotient,
            "fanout" => Workload::Fanout,
            "warm" => Workload::Warm,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Exhaustive => "exhaustive",
            Workload::Quotient => "quotient",
            Workload::Fanout => "fanout",
            Workload::Warm => "warm",
        }
    }

    fn symmetry(self) -> Symmetry {
        match self {
            Workload::Quotient => Symmetry::PartialValue,
            _ => Symmetry::Off,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <exhaustive|quotient|fanout|warm> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is negligible
    /// for the small bounds used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The balanced binary vectors with the canonical bench vector's state
/// space (module docs): `p_1 != p_2` and `p_1` proposes the majority
/// value.  Bit `i` of each mask is the proposal of `p_{i+1}`.
fn vector_class() -> Vec<u32> {
    (0u32..1 << N)
        .filter(|&mask| {
            let ones = mask.count_ones() as usize;
            let p1 = mask & 1;
            let p2 = (mask >> 1) & 1;
            let majority = u32::from(2 * ones > N);
            (ones == N / 2 || ones == N / 2 + 1) && p1 != p2 && p1 == majority
        })
        .collect()
}

fn proposals_for(seed: u64) -> Vec<WideValue> {
    let class = vector_class();
    let mask = class[SplitMix::new(seed).below(class.len() as u64) as usize];
    (0..N)
        .map(|i| WideValue::new(1, u64::from((mask >> i) & 1)))
        .collect()
}

fn vector_string(proposals: &[WideValue]) -> String {
    proposals
        .iter()
        .map(|v| if v.ident() == 1 { '1' } else { '0' })
        .collect()
}

/// Coordinator phases of one fan-out verification, from `DistRun`.
struct DistPhases {
    seed_s: f64,
    frontier_s: f64,
    workers_wall_s: f64,
    worker_walk_max_s: f64,
    worker_export_max_s: f64,
    merge_s: f64,
    replay_s: f64,
    report_s: f64,
    degraded_partitions: usize,
}

/// One finished verification.
struct Verification {
    seconds: f64,
    report: ExploreReport<WideValue>,
    dist: Option<DistPhases>,
    /// Protocol-boundary counts (traced in-process walks).
    counts: Option<Counts>,
    /// Records the fan-out workers exported (traced fan-out).
    exported: Option<u64>,
}

/// A set-up workload, ready to verify.
struct Bench {
    workload: Workload,
    system: SystemConfig,
    proposals: Vec<WideValue>,
    /// Plain serial walk of the same input with symmetry off: the
    /// reference every verification is checked against.
    reference: ExploreReport<WideValue>,
    cache_dir: PathBuf,
    cache_bytes: u64,
    prime_s: f64,
    worker_log: PathBuf,
    /// Clock cost taken off each traced and probe timing sample.
    timer_ns: f64,
}

fn crw_config(system: &SystemConfig, symmetry: Symmetry) -> ExploreConfig {
    ExploreConfig {
        symmetry,
        ..ExploreConfig::for_crw(system)
    }
}

fn walk<P>(
    system: SystemConfig,
    proposals: &[WideValue],
    initial: Vec<P>,
    symmetry: Symmetry,
    options: ExploreOptions,
) -> Result<ExploreReport<WideValue>, String>
where
    P: CheckableProtocol<Output = WideValue>,
{
    explore_with(
        system,
        crw_config(&system, symmetry),
        options,
        initial,
        proposals.to_vec(),
    )
    .map_err(|e| format!("exploration failed: {e}"))
}

impl Bench {
    fn options(&self) -> ExploreOptions {
        let cache = (self.workload == Workload::Warm).then(|| CacheConfig::read(&self.cache_dir));
        ExploreOptions::serial().with_cache(cache)
    }

    fn set_up(workload: Workload, seed: u64, scratch: &Path) -> Result<Bench, String> {
        let system = SystemConfig::new(N, T).map_err(|e| format!("system: {e}"))?;
        let proposals = match workload {
            Workload::Fanout => bench_proposals(N),
            _ => proposals_for(seed),
        };
        let initial = crw_processes(&system, &proposals);
        let reference = walk(
            system,
            &proposals,
            initial.clone(),
            Symmetry::Off,
            ExploreOptions::serial(),
        )?;
        check_theorem(&reference).map_err(|e| format!("reference walk: {e}"))?;
        let mut bench = Bench {
            workload,
            system,
            proposals,
            reference,
            cache_dir: scratch.join("cache"),
            cache_bytes: 0,
            prime_s: 0.0,
            worker_log: scratch.join("worker-exports.log"),
            timer_ns: 0.0,
        };
        if workload == Workload::Warm {
            if bench.cache_dir.exists() {
                std::fs::remove_dir_all(&bench.cache_dir)
                    .map_err(|e| format!("clearing the cache dir: {e}"))?;
            }
            let start = Instant::now();
            let primed = walk(
                system,
                &bench.proposals,
                initial,
                Symmetry::Off,
                ExploreOptions::serial()
                    .with_cache(Some(CacheConfig::read_write(&bench.cache_dir))),
            )?;
            bench.prime_s = start.elapsed().as_secs_f64();
            bench
                .check_same_as_reference(&primed)
                .map_err(|e| format!("priming walk: {e}"))?;
            bench.cache_bytes =
                sys::dir_bytes(&bench.cache_dir).map_err(|e| format!("sizing the cache: {e}"))?;
        }
        Ok(bench)
    }

    fn verify(&self, traced: bool) -> Result<Verification, String> {
        let start = Instant::now();
        let symmetry = self.workload.symmetry();
        let (report, dist, counts, exported) = match self.workload {
            Workload::Fanout => {
                if traced {
                    std::env::set_var(WORKER_LOG_VAR, &self.worker_log);
                }
                let run = run_partitioned_crw(
                    N,
                    T,
                    PARTITIONS,
                    DEPTH,
                    WORKER_THREADS,
                    None,
                    crw_config(&self.system, symmetry).max_states,
                    symmetry,
                    None,
                    WalkBudget::unlimited(),
                    None,
                    FaultPlan::none(),
                    SuperviseConfig::default(),
                );
                std::env::remove_var(WORKER_LOG_VAR);
                let run = run.map_err(|e| format!("fan-out failed: {e}"))?;
                let exported = if traced {
                    Some(take_worker_exports(&self.worker_log)?)
                } else {
                    None
                };
                let t = &run.timings;
                let phases = DistPhases {
                    seed_s: t.seed_seconds,
                    frontier_s: t.frontier_seconds,
                    workers_wall_s: t.workers_wall_seconds,
                    worker_walk_max_s: run.worker_walk_seconds,
                    worker_export_max_s: run.worker_export_seconds,
                    merge_s: t.merge_seconds,
                    replay_s: t.replay_seconds,
                    report_s: t.report_seconds,
                    degraded_partitions: t.degraded_partitions,
                };
                (run.report, Some(phases), None, exported)
            }
            _ if traced => {
                let initial: Vec<_> = crw_processes(&self.system, &self.proposals)
                    .into_iter()
                    .map(Traced)
                    .collect();
                traced::reset();
                let report = walk(
                    self.system,
                    &self.proposals,
                    initial,
                    symmetry,
                    self.options(),
                )?;
                (report, None, Some(traced::snapshot(self.timer_ns)), None)
            }
            _ => {
                let initial = crw_processes(&self.system, &self.proposals);
                let report = walk(
                    self.system,
                    &self.proposals,
                    initial,
                    symmetry,
                    self.options(),
                )?;
                (report, None, None, None)
            }
        };
        self.check(&report, dist.as_ref())?;
        Ok(Verification {
            seconds: start.elapsed().as_secs_f64(),
            report,
            dist,
            counts,
            exported,
        })
    }

    fn check_same_as_reference(&self, report: &ExploreReport<WideValue>) -> Result<(), String> {
        if report.distinct_states != self.reference.distinct_states {
            return Err(format!(
                "{} distinct states, the reference walk has {}",
                report.distinct_states, self.reference.distinct_states
            ));
        }
        if report.root != self.reference.root {
            return Err("root summary differs from the reference walk".into());
        }
        Ok(())
    }

    /// The correctness checks behind `failed`.
    fn check(
        &self,
        report: &ExploreReport<WideValue>,
        dist: Option<&DistPhases>,
    ) -> Result<(), String> {
        check_theorem(report)?;
        if self.workload == Workload::Quotient {
            let (q, r) = (&report.root, &self.reference.root);
            let sorted = |s: &twostep_modelcheck::Summary<WideValue>| {
                let mut d = s.decided.clone();
                d.sort();
                d
            };
            if q.violating != r.violating
                || q.worst_round_by_f != r.worst_round_by_f
                || q.terminals != r.terminals
                || sorted(q) != sorted(r)
            {
                return Err("quotient root summary differs from the exhaustive walk".into());
            }
        } else {
            self.check_same_as_reference(report)?;
        }
        if self.workload == Workload::Warm && report.cache_hits != report.distinct_states {
            return Err(format!(
                "warm run answered {} of {} states from the cache",
                report.cache_hits, report.distinct_states
            ));
        }
        if let Some(d) = dist {
            if d.degraded_partitions != 0 {
                return Err(format!("{} partitions degraded", d.degraded_partitions));
            }
        }
        Ok(())
    }
}

/// Theorem 1, tight, and the §5 starting point, on one report.
fn check_theorem(report: &ExploreReport<WideValue>) -> Result<(), String> {
    let root = &report.root;
    if root.violating {
        return Err("uniform consensus violated".into());
    }
    for f in 0..=T {
        if root.worst_round_by_f.get(f).copied().flatten() != Some(f as u32 + 1) {
            return Err(format!(
                "worst decision round with f = {f} is {:?}, not {}",
                root.worst_round_by_f.get(f),
                f + 1
            ));
        }
    }
    if !root.is_bivalent() {
        return Err("root configuration is not bivalent".into());
    }
    Ok(())
}

/// Whether two reports of the same verification are identical.
fn same_report(a: &ExploreReport<WideValue>, b: &ExploreReport<WideValue>) -> bool {
    a.distinct_states == b.distinct_states
        && a.cache_hits == b.cache_hits
        && a.fresh_states == b.fresh_states
        && a.root == b.root
        && a.bivalency_by_round == b.bivalency_by_round
        && a.witness.is_none() == b.witness.is_none()
}

/// Sums and clears the export record counts the traced fan-out workers
/// logged.
fn take_worker_exports(log: &Path) -> Result<u64, String> {
    let text = std::fs::read_to_string(log).map_err(|e| format!("reading the worker log: {e}"))?;
    std::fs::remove_file(log).map_err(|e| format!("clearing the worker log: {e}"))?;
    let counts: Vec<u64> = text
        .lines()
        .map(|l| l.strip_prefix("exported=").and_then(|c| c.parse().ok()))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("malformed worker log {text:?}"))?;
    if counts.len() != PARTITIONS {
        return Err(format!(
            "{} worker exports logged, expected {PARTITIONS}",
            counts.len()
        ));
    }
    Ok(counts.iter().sum())
}

/// Worker-process side of the traced fan-out: after a successful worker
/// run, log the record count of the segment it exported.
fn log_worker_export(argv: &[String], log: &str) -> Result<(), String> {
    use std::io::Write;
    let args = CrwWorkerArgs::parse(argv).ok_or("not a partition worker")?;
    let records =
        validate_segment_file(&args.export_path).map_err(|e| format!("export segment: {e}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
        .map_err(|e| format!("opening {log}: {e}"))?;
    // One short append per worker: O_APPEND keeps the lines whole.
    file.write_all(format!("exported={records}\n").as_bytes())
        .map_err(|e| format!("writing {log}: {e}"))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median; NaN for no samples (only reachable on a failed run).
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(xs);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The highest order statistic with at least ten samples above it (the
/// largest sample when the run has fewer than eleven).
fn tail(xs: &[f64]) -> f64 {
    let sorted = sorted(xs);
    sorted[sorted.len().checked_sub(11).unwrap_or(sorted.len() - 1)]
}

/// Metrics in output order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // JSON has no NaN; a non-finite value only comes from a failed run.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Removes every `TWOSTEP_*` variable, so neither this process nor the
/// worker processes it starts pick up thread counts, cache directories,
/// symmetry modes, budgets or faults from the caller's environment.
/// Returns the names removed.
fn strip_twostep_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TWOSTEP_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Fan-out workers are re-executions of this binary.
    if let Some(code) = maybe_run_dist_worker(&argv) {
        if code == 0 {
            if let Ok(log) = std::env::var(WORKER_LOG_VAR) {
                if let Err(e) = log_worker_export(&argv, &log) {
                    eprintln!("perfbench worker: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::from(u8::try_from(code).unwrap_or(1));
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when a verification failed
/// its checks (the result line is still printed).
fn run(args: &Args) -> Result<bool, String> {
    // Before any thread starts: the environment is process-global.
    let stripped = strip_twostep_env();
    let scratch = sys::ScratchRoot::create().map_err(|e| format!("creating scratch dir: {e}"))?;
    // The distributed engine puts its scratch directories under the
    // system temp dir; keep them (and the workers') inside ours.
    std::env::set_var("TMPDIR", scratch.path());

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let b = Bench::set_up(args.workload, args.seed, scratch.path())?;
        setup_times.push(start.elapsed().as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    if args.trace {
        bench.timer_ns = traced::timer_overhead_ns();
    }

    let symmetry = args.workload.symmetry();
    let engine = match args.workload {
        Workload::Fanout => format!(
            "partitioned partitions={PARTITIONS} depth={DEPTH} worker_threads={WORKER_THREADS} \
             memo=all-ram cache=none faults=none replay=default"
        ),
        Workload::Warm => "serial threads=1 shards=1 memo=all-ram cache=read".to_string(),
        _ => "serial threads=1 shards=1 memo=all-ram cache=none".to_string(),
    };
    println!(
        "perfbench-config: {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"n\": {N}, \"t\": {T}, \"model\": \"extended\", \"proposals\": \"{}\", \
         \"symmetry\": \"{}\", \"engine\": \"{engine}\", \"available_parallelism\": {}, \
         \"stripped_env\": {:?}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        vector_string(&bench.proposals),
        symmetry.token(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        stripped,
    );

    let mut plain: Vec<Verification> = Vec::new();
    let mut traced_runs: Vec<Verification> = Vec::new();
    // Each plain verification's seconds over the latest yardstick pass.
    let mut rel: Vec<f64> = Vec::new();
    let mut yardsticks: Vec<f64> = Vec::new();
    let mut since_yardstick = f64::INFINITY;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    while Instant::now() < deadline || plain.is_empty() || (args.trace && traced_runs.is_empty()) {
        if since_yardstick >= YARDSTICK_EVERY_S {
            yardsticks.push(yardstick::measure());
            since_yardstick = 0.0;
        }
        let traced = args.trace && attempted % 2 == 1;
        attempted += 1;
        let outcome = bench.verify(traced).and_then(|v| {
            if !traced {
                return Ok(v);
            }
            if let Some(first) = plain.first() {
                if !same_report(&first.report, &v.report) {
                    return Err("traced report differs from the plain one".into());
                }
            }
            if let Some(first) = traced_runs.first() {
                let counts_repeat = match (first.counts, v.counts) {
                    (Some(a), Some(b)) => a.same_counts(&b),
                    _ => true,
                };
                if !counts_repeat || first.exported != v.exported {
                    return Err("per-layer counts did not repeat".into());
                }
            }
            Ok(v)
        });
        match outcome {
            Ok(v) if traced => {
                since_yardstick += v.seconds;
                traced_runs.push(v);
            }
            Ok(v) => {
                since_yardstick += v.seconds;
                rel.push(v.seconds / yardsticks[yardsticks.len() - 1]);
                plain.push(v);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: verification {attempted} failed: {e}");
                if failed > 3 {
                    break;
                }
            }
        }
    }

    let seconds: Vec<f64> = plain.iter().map(|v| v.seconds).collect();
    let correct = failed == 0 && !plain.is_empty() && (!args.trace || !traced_runs.is_empty());
    if seconds.is_empty() {
        println!("{}", result_line(false, attempted, failed, &Vec::new()));
        return Ok(false);
    }
    let by_time = sorted(&seconds);
    println!(
        "perfbench: {} verify_s over {} samples: min {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}; \
         verify_rel median {:.6}; yardstick_s median {:.6} over {}; setup_s median {:.6} over {SETUPS}",
        args.workload.name(),
        seconds.len(),
        by_time[0],
        by_time[by_time.len() / 4],
        median(&seconds),
        by_time[by_time.len() * 3 / 4],
        by_time[by_time.len() - 1],
        median(&rel),
        median(&yardsticks),
        yardsticks.len(),
        median(&setup_times),
    );

    let metrics: Metrics = if !args.trace {
        let mut rss = sys::peak_rss_self_mb();
        if args.workload == Workload::Fanout {
            rss += sys::peak_rss_children_mb();
        }
        vec![
            ("verify_rel", median(&rel), "ratio"),
            ("setup_s", median(&setup_times), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ]
    } else {
        layer_metrics(
            &bench,
            args,
            &plain,
            &traced_runs,
            &yardsticks,
            attempted,
            failed,
        )
    };
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn layer_metrics(
    bench: &Bench,
    args: &Args,
    plain: &[Verification],
    traced: &[Verification],
    yardsticks: &[f64],
    attempted: usize,
    failed: usize,
) -> Metrics {
    let plain_s: Vec<f64> = plain.iter().map(|v| v.seconds).collect();
    let traced_s: Vec<f64> = traced.iter().map(|v| v.seconds).collect();
    let med = |f: &dyn Fn(&Verification) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let counts = traced.first().and_then(|v| v.counts).unwrap_or_default();
    let report = traced.first().map_or(&bench.reference, |v| &v.report);
    let dist = |f: fn(&DistPhases) -> f64| med(&|v| v.dist.as_ref().map_or(0.0, f));
    let exported = traced.first().and_then(|v| v.exported);
    let probe = probe::run(bench.system, &bench.proposals, args.seed, bench.timer_ns);
    let busy = |v: &Verification| v.counts.map_or(0.0, |c| c.busy_s);
    vec![
        ("core.crw.send_calls", counts.send_calls as f64, "count"),
        (
            "core.crw.receive_calls",
            counts.receive_calls as f64,
            "count",
        ),
        ("core.crw.clones", counts.clones as f64, "count"),
        ("core.crw.encodes", counts.encodes as f64, "count"),
        ("core.crw.decodes", counts.decodes as f64, "count"),
        ("core.crw.busy_s", med(&busy), "s"),
        ("sim.engine.fork_ns", probe.fork_ns, "ns"),
        ("sim.engine.step_ns", probe.step_ns, "ns"),
        ("adversary.enumerate.outcome_ns", probe.outcome_ns, "ns"),
        (
            "adversary.enumerate.outcomes_per_config",
            probe.outcomes_per_config,
            "count",
        ),
        (
            "modelcheck.explorer.self_s",
            med(&|v| v.seconds - busy(v)),
            "s",
        ),
        (
            "modelcheck.explorer.distinct_states",
            report.distinct_states as f64,
            "count",
        ),
        (
            "modelcheck.explorer.fresh_states",
            report.fresh_states as f64,
            "count",
        ),
        (
            "modelcheck.explorer.terminals",
            report.root.terminals as f64,
            "count",
        ),
        (
            "modelcheck.explorer.reduction",
            bench.reference.distinct_states as f64 / report.distinct_states as f64,
            "ratio",
        ),
        ("modelcheck.cache.hits", report.cache_hits as f64, "count"),
        ("modelcheck.cache.bytes", bench.cache_bytes as f64, "bytes"),
        ("modelcheck.cache.prime_s", bench.prime_s, "s"),
        ("modelcheck.dist.seed_s", dist(|d| d.seed_s), "s"),
        ("modelcheck.dist.frontier_s", dist(|d| d.frontier_s), "s"),
        (
            "modelcheck.dist.workers_wall_s",
            dist(|d| d.workers_wall_s),
            "s",
        ),
        (
            "modelcheck.dist.worker_walk_max_s",
            dist(|d| d.worker_walk_max_s),
            "s",
        ),
        (
            "modelcheck.dist.worker_export_max_s",
            dist(|d| d.worker_export_max_s),
            "s",
        ),
        ("modelcheck.dist.merge_s", dist(|d| d.merge_s), "s"),
        ("modelcheck.dist.replay_s", dist(|d| d.replay_s), "s"),
        ("modelcheck.dist.report_s", dist(|d| d.report_s), "s"),
        (
            "modelcheck.dist.degraded_partitions",
            dist(|d| d.degraded_partitions as f64),
            "count",
        ),
        (
            "modelcheck.dist.dup_ratio",
            exported.map_or(0.0, |e| e as f64 / report.distinct_states as f64),
            "ratio",
        ),
        (
            "bench.tracing_overhead",
            median(&traced_s) / median(&plain_s) - 1.0,
            "ratio",
        ),
        ("bench.verifications", plain_s.len() as f64, "count"),
        ("bench.verify_s", median(&plain_s), "s"),
        ("bench.verify_s_tail", tail(&plain_s), "s"),
        ("bench.yardstick_s", median(yardsticks), "s"),
        ("error_rate", failed as f64 / attempted as f64, "ratio"),
    ]
}
