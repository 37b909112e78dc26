//! CLI plumbing for multi-process partitioned exploration of the CRW
//! algorithm — shared by the `twostep-dist` coordinator binary and the
//! `explorer_bench` partitioned row.
//!
//! The distributed engine in `twostep_modelcheck::dist` is
//! protocol-generic but process-agnostic: the coordinator launches
//! workers through a closure.  OS-process deployment needs one concrete
//! decision — how a worker process learns *which* exploration to run —
//! and this module pins it for the canonical bench workload (CRW with
//! binary proposals `i % 2`): the coordinator re-executes **its own
//! binary** with a `--dist-worker` argument vector describing the system
//! and the partition, and the worker half of `main` recognizes it before
//! doing anything else.  No network, no serialization of protocol
//! objects across the wire — both sides reconstruct the identical
//! initial configuration from `(n, t)` and deterministically agree on
//! the frontier split.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

use twostep_core::crw_processes;
use twostep_model::{SystemConfig, WideValue};
use twostep_modelcheck::{
    explore_elastic_timed, explore_partitioned_timed, run_worker, run_worker_elastic, CacheConfig,
    DistOptions, DistTimings, ElasticExit, ElasticStats, ElasticTask, ExploreConfig, ExploreError,
    ExploreOptions, ExploreReport, FaultPlan, MemoConfig, StealConfig, SuperviseConfig, Symmetry,
    WalkBudget, WorkerFault, WorkerPulse, WorkerTask,
};
use twostep_sim::CancelToken;

/// Argv marker that switches a binary into worker mode.
pub const WORKER_FLAG: &str = "--dist-worker";

/// Argv marker that switches a binary into *elastic* worker mode.
pub const WORKER_ELASTIC_FLAG: &str = "--dist-elastic-worker";

/// Everything a CRW partition worker needs to reproduce its assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrwWorkerArgs {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Frontier depth.
    pub depth: u32,
    /// This worker's partition.
    pub partition: usize,
    /// Total partitions.
    pub partitions: usize,
    /// Worker threads.
    pub threads: usize,
    /// Spill hot capacity (`None` = all-RAM memo).
    pub hot_capacity: Option<usize>,
    /// Distinct-state budget.
    pub max_states: usize,
    /// Symmetry-reduction mode.  Workers rebuild their `ExploreConfig`
    /// from this argv, so the mode must ride along explicitly — every
    /// process of one run has to key (and partition) configurations
    /// identically, regardless of what `TWOSTEP_SYMMETRY` says in the
    /// worker's environment.
    pub symmetry: Symmetry,
    /// Where to write the sealed export segment.
    pub export_path: PathBuf,
    /// Optional seed segment to import before walking (the coordinator's
    /// consolidated cache image).
    pub seed_path: Option<PathBuf>,
    /// Optional coordinator-expanded frontier segment; `None` re-expands
    /// in-process (legacy).
    pub frontier_path: Option<PathBuf>,
    /// Injected misbehavior for this launch (fault harness); `None` — the
    /// production case — runs clean.  The coordinator resolves the fault
    /// from its [`FaultPlan`] by `(partition, attempt)` and ships only
    /// the resolved token, so the worker needs no plan of its own.
    pub fault: Option<WorkerFault>,
}

impl CrwWorkerArgs {
    /// The argument vector (starting with [`WORKER_FLAG`]) that
    /// [`parse`](Self::parse) inverts.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            WORKER_FLAG.to_string(),
            self.n.to_string(),
            self.t.to_string(),
            self.depth.to_string(),
            self.partition.to_string(),
            self.partitions.to_string(),
            self.threads.to_string(),
            self.hot_capacity.map_or("ram".into(), |h| h.to_string()),
            self.max_states.to_string(),
            self.symmetry.token().to_string(),
        ];
        args.push(self.export_path.display().to_string());
        args.push(
            self.seed_path
                .as_ref()
                .map_or("unseeded".into(), |p| p.display().to_string()),
        );
        args.push(
            self.frontier_path
                .as_ref()
                .map_or("nofrontier".into(), |p| p.display().to_string()),
        );
        args.push(self.fault.map_or("nofault".into(), |f| f.token()));
        args
    }

    /// Parses an argument vector produced by [`to_args`](Self::to_args);
    /// `None` if `args` is not a worker invocation.
    pub fn parse(args: &[String]) -> Option<CrwWorkerArgs> {
        let mut it = args.iter();
        if it.next().map(String::as_str) != Some(WORKER_FLAG) {
            return None;
        }
        let n = it.next()?.parse().ok()?;
        let t = it.next()?.parse().ok()?;
        let depth = it.next()?.parse().ok()?;
        let partition = it.next()?.parse().ok()?;
        let partitions = it.next()?.parse().ok()?;
        let threads = it.next()?.parse().ok()?;
        let hot_raw = it.next()?;
        let hot_capacity = if hot_raw == "ram" {
            None
        } else {
            Some(hot_raw.parse().ok()?)
        };
        let max_states = it.next()?.parse().ok()?;
        let symmetry = Symmetry::parse_token(it.next()?.as_str())?;
        let export_path = PathBuf::from(it.next()?);
        let seed_raw = it.next()?;
        let seed_path = (seed_raw != "unseeded").then(|| PathBuf::from(seed_raw));
        let frontier_raw = it.next()?;
        let frontier_path = (frontier_raw != "nofrontier").then(|| PathBuf::from(frontier_raw));
        let fault_raw = it.next()?;
        let fault = if fault_raw == "nofault" {
            None
        } else {
            Some(WorkerFault::parse_token(fault_raw).ok()?)
        };
        it.next().is_none().then_some(CrwWorkerArgs {
            n,
            t,
            depth,
            partition,
            partitions,
            threads,
            hot_capacity,
            max_states,
            symmetry,
            export_path,
            seed_path,
            frontier_path,
            fault,
        })
    }

    fn engine(&self) -> ExploreOptions {
        let memo = match self.hot_capacity {
            Some(hot) => MemoConfig::spill(hot),
            None => MemoConfig::all_ram(),
        };
        ExploreOptions::with_threads(self.threads).with_memo(memo)
    }

    fn config(&self, system: &SystemConfig) -> ExploreConfig {
        ExploreConfig {
            max_states: self.max_states,
            symmetry: self.symmetry,
            ..ExploreConfig::for_crw(system)
        }
    }
}

/// The canonical bench proposals: `p_{i+1}` proposes bit `i % 2`.
pub fn bench_proposals(n: usize) -> Vec<WideValue> {
    (0..n).map(|i| WideValue::new(1, (i % 2) as u64)).collect()
}

/// Runs one CRW partition worker from parsed args; the body of a worker
/// process.  Returns the process exit code.
pub fn run_crw_worker(args: &CrwWorkerArgs) -> i32 {
    let system = match SystemConfig::new(args.n, args.t) {
        Ok(system) => system,
        Err(e) => {
            eprintln!("dist-worker: invalid system ({}, {}): {e}", args.n, args.t);
            return 2;
        }
    };
    let proposals = bench_proposals(args.n);
    // The coordinator resolved the fault before shipping it, so attempt
    // keying is already done; the cancel token is process-local — an
    // injected hang in a worker *process* ends when the coordinator's
    // launch kills the process (or the in-worker hang cap expires).
    let task = WorkerTask {
        partition: args.partition,
        partitions: args.partitions,
        depth: args.depth,
        export_path: args.export_path.clone(),
        seed_path: args.seed_path.clone(),
        frontier_path: args.frontier_path.clone(),
        attempt: 0,
        fault: args.fault,
        cancel: CancelToken::new(),
    };
    match run_worker(
        system,
        args.config(&system),
        args.engine(),
        crw_processes(&system, &proposals),
        proposals,
        &task,
    ) {
        Ok(report) => {
            eprintln!(
                "dist-worker: partition {}/{} owned {}/{} frontier subtrees, \
                 {} distinct states ({} seeded), {} records exported",
                args.partition,
                args.partitions,
                report.owned,
                report.frontier,
                report.distinct_states,
                report.seeded,
                report.exported
            );
            // Machine-parseable phase attribution, read back by the
            // coordinator (`run_partitioned_crw` captures stdout).
            println!(
                "dist-worker-timing: partition={} seed={:.6} frontier={:.6} walk={:.6} export={:.6}",
                args.partition,
                report.seed_seconds,
                report.frontier_seconds,
                report.walk_seconds,
                report.export_seconds
            );
            0
        }
        Err(e) => {
            eprintln!("dist-worker: partition {} failed: {e}", args.partition);
            1
        }
    }
}

/// If `argv` (without the program name) is a worker invocation — classic
/// partitioned or elastic — runs the worker and returns its exit code;
/// `None` means "not a worker, carry on".  Call first thing in `main` of
/// any binary that launches workers by re-executing itself.
pub fn maybe_run_dist_worker(argv: &[String]) -> Option<i32> {
    if let Some(args) = CrwWorkerArgs::parse(argv) {
        return Some(run_crw_worker(&args));
    }
    CrwElasticArgs::parse(argv)
        .as_ref()
        .map(run_crw_elastic_worker)
}

/// Everything a CRW *elastic* worker needs to reproduce its assignment.
/// Unlike [`CrwWorkerArgs`] there is no partition arithmetic: the
/// coordinator ships each worker its own pre-sliced frontier segment,
/// plus any number of seed segments (trailing argv).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrwElasticArgs {
    /// System size.
    pub n: usize,
    /// Resilience bound.
    pub t: usize,
    /// Worker threads for memo sharding (the elastic walk itself is
    /// single-threaded).
    pub threads: usize,
    /// Spill hot capacity (`None` = all-RAM memo).
    pub hot_capacity: Option<usize>,
    /// Distinct-state budget.
    pub max_states: usize,
    /// Symmetry-reduction mode (must match the coordinator's — see
    /// [`CrwWorkerArgs::symmetry`]).
    pub symmetry: Symmetry,
    /// Coordinator-assigned worker id.
    pub worker: u64,
    /// Progress-pulse cadence in walk steps.
    pub yield_every: u64,
    /// This worker's own sealed frontier segment.
    pub frontier_path: PathBuf,
    /// Where to export the fresh memo delta.
    pub export_path: PathBuf,
    /// Where to write the remaining frontier if preempted.
    pub preempt_path: PathBuf,
    /// Steal-request signal file polled every pulse.
    pub steal_flag: PathBuf,
    /// Injected misbehavior for this launch (see
    /// [`CrwWorkerArgs::fault`]).
    pub fault: Option<WorkerFault>,
    /// Seed segments to import before walking, in order.
    pub seed_paths: Vec<PathBuf>,
}

impl CrwElasticArgs {
    /// The argument vector (starting with [`WORKER_ELASTIC_FLAG`]) that
    /// [`parse`](Self::parse) inverts.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            WORKER_ELASTIC_FLAG.to_string(),
            self.n.to_string(),
            self.t.to_string(),
            self.threads.to_string(),
            self.hot_capacity.map_or("ram".into(), |h| h.to_string()),
            self.max_states.to_string(),
            self.symmetry.token().to_string(),
            self.worker.to_string(),
            self.yield_every.to_string(),
            self.frontier_path.display().to_string(),
            self.export_path.display().to_string(),
            self.preempt_path.display().to_string(),
            self.steal_flag.display().to_string(),
        ];
        args.push(self.fault.map_or("nofault".into(), |f| f.token()));
        args.extend(self.seed_paths.iter().map(|p| p.display().to_string()));
        args
    }

    /// Parses an argument vector produced by [`to_args`](Self::to_args);
    /// `None` if `args` is not an elastic worker invocation.
    pub fn parse(args: &[String]) -> Option<CrwElasticArgs> {
        let mut it = args.iter();
        if it.next().map(String::as_str) != Some(WORKER_ELASTIC_FLAG) {
            return None;
        }
        let n = it.next()?.parse().ok()?;
        let t = it.next()?.parse().ok()?;
        let threads = it.next()?.parse().ok()?;
        let hot_raw = it.next()?;
        let hot_capacity = if hot_raw == "ram" {
            None
        } else {
            Some(hot_raw.parse().ok()?)
        };
        let max_states = it.next()?.parse().ok()?;
        let symmetry = Symmetry::parse_token(it.next()?.as_str())?;
        let worker = it.next()?.parse().ok()?;
        let yield_every = it.next()?.parse().ok()?;
        let frontier_path = PathBuf::from(it.next()?);
        let export_path = PathBuf::from(it.next()?);
        let preempt_path = PathBuf::from(it.next()?);
        let steal_flag = PathBuf::from(it.next()?);
        let fault_raw = it.next()?;
        let fault = if fault_raw == "nofault" {
            None
        } else {
            Some(WorkerFault::parse_token(fault_raw).ok()?)
        };
        let seed_paths = it.map(PathBuf::from).collect();
        Some(CrwElasticArgs {
            n,
            t,
            threads,
            hot_capacity,
            max_states,
            symmetry,
            worker,
            yield_every,
            frontier_path,
            export_path,
            preempt_path,
            steal_flag,
            fault,
            seed_paths,
        })
    }

    fn engine(&self) -> ExploreOptions {
        let memo = match self.hot_capacity {
            Some(hot) => MemoConfig::spill(hot),
            None => MemoConfig::all_ram(),
        };
        ExploreOptions::with_threads(self.threads).with_memo(memo)
    }

    fn config(&self, system: &SystemConfig) -> ExploreConfig {
        ExploreConfig {
            max_states: self.max_states,
            symmetry: self.symmetry,
            ..ExploreConfig::for_crw(system)
        }
    }

    fn task(&self) -> ElasticTask {
        ElasticTask {
            worker: self.worker,
            seed_paths: self.seed_paths.clone(),
            frontier_path: self.frontier_path.clone(),
            export_path: self.export_path.clone(),
            preempt_path: self.preempt_path.clone(),
            steal_flag: self.steal_flag.clone(),
            yield_every: self.yield_every,
            fault: self.fault,
            cancel: CancelToken::new(),
        }
    }
}

/// Runs one CRW elastic worker from parsed args; the body of an elastic
/// worker process.  Emits one `dist-progress:` line per pulse and a
/// final `dist-elastic:` outcome line on stdout (flushed per line — the
/// coordinator tails the pipe live).  Returns the process exit code.
pub fn run_crw_elastic_worker(args: &CrwElasticArgs) -> i32 {
    let system = match SystemConfig::new(args.n, args.t) {
        Ok(system) => system,
        Err(e) => {
            eprintln!(
                "dist-elastic-worker: invalid system ({}, {}): {e}",
                args.n, args.t
            );
            return 2;
        }
    };
    let proposals = bench_proposals(args.n);
    let task = args.task();
    let pulse = |p: WorkerPulse| {
        // Block-buffered when piped; flush per pulse or the coordinator's
        // load estimates lag an entire buffer behind reality.
        let mut out = std::io::stdout().lock();
        let _ = writeln!(
            out,
            "dist-progress: worker={} steps={} frontier={} fresh={}",
            p.worker, p.steps, p.frontier, p.fresh
        );
        let _ = out.flush();
    };
    match run_worker_elastic(
        system,
        args.config(&system),
        args.engine(),
        crw_processes(&system, &proposals),
        proposals,
        &task,
        &pulse,
    ) {
        Ok(exit) => {
            println!(
                "dist-elastic: outcome={}",
                match exit {
                    ElasticExit::Finished => "finished",
                    ElasticExit::Preempted => "preempted",
                }
            );
            0
        }
        Err(e) => {
            eprintln!("dist-elastic-worker: worker {} failed: {e}", args.worker);
            1
        }
    }
}

/// How one line of worker stdout classifies for the coordinator's tailer.
#[derive(Debug, PartialEq)]
enum PulseLine {
    /// A well-formed progress pulse.
    Pulse(WorkerPulse),
    /// Claimed to be a pulse (`dist-progress:` prefix) but is missing or
    /// mangling a required field — truncated by a dying process, garbage
    /// on a shared pipe, or a future dialect this coordinator doesn't
    /// speak.  Skipped, with one warning per worker launch: a garbled
    /// pulse must never kill the run, and a pulse storm must never spam
    /// the log.
    Garbled,
    /// Anything else a worker prints (status lines, the outcome line).
    NotAPulse,
}

/// Classifies one worker stdout line.  Unknown `key=value` tokens are
/// ignored, so a *future* worker adding fields still parses — only a
/// line missing a required field is garbled.
fn classify_pulse_line(line: &str) -> PulseLine {
    let Some(rest) = line.strip_prefix("dist-progress:") else {
        return PulseLine::NotAPulse;
    };
    let mut worker = None;
    let mut steps = None;
    let mut frontier = None;
    let mut fresh = None;
    for token in rest.split_whitespace() {
        if let Some((key, value)) = token.split_once('=') {
            match key {
                "worker" => worker = value.parse::<u64>().ok(),
                "steps" => steps = value.parse::<u64>().ok(),
                "frontier" => frontier = value.parse::<usize>().ok(),
                "fresh" => fresh = value.parse::<usize>().ok(),
                _ => {}
            }
        }
    }
    match (worker, steps, frontier, fresh) {
        (Some(worker), Some(steps), Some(frontier), Some(fresh)) => PulseLine::Pulse(WorkerPulse {
            worker,
            steps,
            frontier,
            fresh,
        }),
        _ => PulseLine::Garbled,
    }
}

/// Parses the final `dist-elastic:` outcome line.
fn parse_outcome_line(line: &str) -> Option<ElasticExit> {
    match line.strip_prefix("dist-elastic: outcome=")?.trim() {
        "finished" => Some(ElasticExit::Finished),
        "preempted" => Some(ElasticExit::Preempted),
        _ => None,
    }
}

/// Timing breakdown of a multi-process *elastic* exploration.
pub struct ElasticRun {
    /// The merged report (bit-identical to the serial walk).
    pub report: ExploreReport<WideValue>,
    /// End-to-end wall time.
    pub total_seconds: f64,
    /// Coordinator-side phase attribution.
    pub timings: DistTimings,
    /// What the elastic scheduler actually did.
    pub stats: ElasticStats,
}

/// Runs a `(n, t)` CRW exploration elastically: the coordinator walks
/// locally and offloads to worker OS processes (re-executions of the
/// current binary, stdout-tailed for progress pulses) only when `steal`
/// says the run is big enough.  See [`run_partitioned_crw`] for the
/// shared parameter semantics.
#[allow(clippy::too_many_arguments)]
pub fn run_elastic_crw(
    n: usize,
    t: usize,
    partitions: usize,
    depth: u32,
    worker_threads: usize,
    hot_capacity: Option<usize>,
    max_states: usize,
    symmetry: Symmetry,
    cache_dir: Option<PathBuf>,
    budget: WalkBudget,
    steal: StealConfig,
    faults: FaultPlan,
    supervise: SuperviseConfig,
) -> Result<ElasticRun, ExploreError> {
    let system = SystemConfig::new(n, t).expect("valid bench system");
    let proposals = bench_proposals(n);
    let config = ExploreConfig {
        max_states,
        symmetry,
        ..ExploreConfig::for_crw(&system)
    };
    let exe = std::env::current_exe().map_err(|e| ExploreError::Coordinator {
        detail: format!("cannot locate own binary for re-exec: {e}"),
    })?;
    let options = DistOptions {
        partitions,
        depth,
        attempts: 3,
        scratch_dir: None,
        replay: ExploreOptions::default().with_budget(budget),
        cache: cache_dir.map(CacheConfig::read_write),
        steal,
        faults,
        supervise,
    };
    let launch = |task: &ElasticTask, pulse: &(dyn Fn(WorkerPulse) + Sync)| {
        let args = CrwElasticArgs {
            n,
            t,
            threads: worker_threads,
            hot_capacity,
            max_states,
            symmetry,
            worker: task.worker,
            yield_every: task.yield_every,
            frontier_path: task.frontier_path.clone(),
            export_path: task.export_path.clone(),
            preempt_path: task.preempt_path.clone(),
            steal_flag: task.steal_flag.clone(),
            fault: task.fault,
            seed_paths: task.seed_paths.clone(),
        };
        let mut child = Command::new(&exe)
            .args(args.to_args())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning elastic worker: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        // Kill-watcher: the supervisor's cancel token (watchdog trip)
        // must terminate a hung worker *process* — the tailer below
        // blocks on the pipe and cannot poll.  Killing the child closes
        // the pipe, which unblocks the tailer; the launch then reports
        // the non-zero exit as an ordinary retryable failure.
        let child = std::sync::Mutex::new(child);
        let done = std::sync::atomic::AtomicBool::new(false);
        let cancel = task.cancel.clone();
        let (status, outcome) = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    if cancel.is_cancelled() {
                        let _ = child.lock().expect("child poisoned").kill();
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            });
            let mut outcome = None;
            let mut warned_garbled = false;
            let tail = || -> Result<std::process::ExitStatus, String> {
                for line in BufReader::new(stdout).lines() {
                    let line = line.map_err(|e| format!("reading worker pipe: {e}"))?;
                    match classify_pulse_line(&line) {
                        PulseLine::Pulse(p) => pulse(p),
                        PulseLine::Garbled => {
                            if !warned_garbled {
                                warned_garbled = true;
                                eprintln!(
                                    "dist-elastic: worker {}: ignoring garbled progress \
                                     line {line:?} (warning once per launch)",
                                    task.worker
                                );
                            }
                        }
                        PulseLine::NotAPulse => {
                            if let Some(exit) = parse_outcome_line(&line) {
                                outcome = Some(exit);
                            }
                        }
                    }
                }
                child
                    .lock()
                    .expect("child poisoned")
                    .wait()
                    .map_err(|e| format!("waiting for worker: {e}"))
            };
            let status = tail();
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            if status.is_err() {
                let mut child = child.lock().expect("child poisoned");
                let _ = child.kill();
                let _ = child.wait();
            }
            (status, outcome)
        });
        let status = status?;
        if task.cancel.is_cancelled() {
            return Err("worker killed by the supervisor (watchdog/cancel)".to_string());
        }
        if !status.success() {
            return Err(format!("worker process exited with {status}"));
        }
        outcome.ok_or_else(|| "worker exited without reporting an outcome".to_string())
    };
    let start = Instant::now();
    let (report, timings, stats) = explore_elastic_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals,
        launch,
    )?;
    Ok(ElasticRun {
        report,
        total_seconds: start.elapsed().as_secs_f64(),
        timings,
        stats,
    })
}

/// Timing breakdown of a multi-process partitioned exploration.
pub struct DistRun {
    /// The merged report (bit-identical to the serial walk).
    pub report: ExploreReport<WideValue>,
    /// End-to-end wall time: workers + validation + merge + replay.
    pub total_seconds: f64,
    /// Coordinator-side phase attribution (seed, worker wall, merge,
    /// replay, report).
    pub timings: DistTimings,
    /// Worker-reported seed-import seconds, max across workers — the
    /// dominant worker-side cost of a warm run.
    pub worker_seed_seconds: f64,
    /// Worker-reported frontier-expansion seconds, max across workers
    /// (they run concurrently, so the max approximates the phase's
    /// wall-clock share).
    pub worker_frontier_seconds: f64,
    /// Worker-reported subtree-walk seconds, max across workers.
    pub worker_walk_seconds: f64,
    /// Worker-reported delta-export seconds, max across workers.
    pub worker_export_seconds: f64,
}

/// One worker's phase attribution, parsed back from its stdout.
#[derive(Clone, Copy, Debug, PartialEq)]
struct WorkerPhaseSeconds {
    seed: f64,
    frontier: f64,
    walk: f64,
    export: f64,
}

/// Extracts the phase attribution a worker printed on its stdout.
fn parse_worker_timing(stdout: &str) -> Option<WorkerPhaseSeconds> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("dist-worker-timing:"))?;
    let mut seed = None;
    let mut frontier = None;
    let mut walk = None;
    let mut export = None;
    for token in line.split_whitespace() {
        if let Some((key, value)) = token.split_once('=') {
            let slot = match key {
                "seed" => &mut seed,
                "frontier" => &mut frontier,
                "walk" => &mut walk,
                "export" => &mut export,
                _ => continue,
            };
            *slot = value.parse::<f64>().ok();
        }
    }
    Some(WorkerPhaseSeconds {
        seed: seed?,
        frontier: frontier?,
        walk: walk?,
        export: export?,
    })
}

/// Runs a `(n, t)` CRW exploration split across `partitions` worker OS
/// processes (re-executions of the current binary), merging their
/// exported segments and replaying the canonical walk in this process.
/// `cache_dir` enables the persistent result cache (read-write): the
/// coordinator seeds itself and every worker from it, and commits the
/// run's delta back.  `budget` governs the coordinator pipeline (the
/// deadline clock spans seed, workers, merge, and replay; workers
/// themselves walk unbounded); with a cache a budget suspension commits
/// its partial memo there — rerun with the same directory to continue.
/// `checkpoint_dir` is a second spelling of `cache_dir`, used only when
/// `cache_dir` is `None`; it exists only because `perfbench/` calls this
/// signature positionally.
#[allow(clippy::too_many_arguments)]
pub fn run_partitioned_crw(
    n: usize,
    t: usize,
    partitions: usize,
    depth: u32,
    worker_threads: usize,
    hot_capacity: Option<usize>,
    max_states: usize,
    symmetry: Symmetry,
    cache_dir: Option<PathBuf>,
    budget: WalkBudget,
    checkpoint_dir: Option<PathBuf>,
    faults: FaultPlan,
    supervise: SuperviseConfig,
) -> Result<DistRun, ExploreError> {
    let system = SystemConfig::new(n, t).expect("valid bench system");
    let proposals = bench_proposals(n);
    let config = ExploreConfig {
        max_states,
        symmetry,
        ..ExploreConfig::for_crw(&system)
    };
    let exe = std::env::current_exe().map_err(|e| ExploreError::Coordinator {
        detail: format!("cannot locate own binary for re-exec: {e}"),
    })?;
    let options = DistOptions {
        partitions,
        depth,
        attempts: 3,
        scratch_dir: None,
        replay: ExploreOptions::default().with_budget(budget),
        cache: cache_dir.or(checkpoint_dir).map(CacheConfig::read_write),
        steal: StealConfig::default(),
        faults,
        supervise,
    };
    // Last successful attempt's worker-side phase timings, per partition.
    let worker_timings: Mutex<Vec<Option<WorkerPhaseSeconds>>> =
        Mutex::new(vec![None; partitions.max(1)]);
    let launch = |task: &WorkerTask| {
        let args = CrwWorkerArgs {
            n,
            t,
            depth: task.depth,
            partition: task.partition,
            partitions: task.partitions,
            threads: worker_threads,
            hot_capacity,
            max_states,
            symmetry,
            export_path: task.export_path.clone(),
            seed_path: task.seed_path.clone(),
            frontier_path: task.frontier_path.clone(),
            fault: task.fault,
        };
        // Spawn + poll instead of a blocking `.output()`: the
        // supervisor's cancel token (attempt timeout, watchdog) must be
        // able to kill a hung worker process.  Pipe drains happen after
        // exit — worker output is a handful of lines, far below the
        // pipe buffer.
        let mut child = Command::new(&exe)
            .args(args.to_args())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning worker process: {e}"))?;
        let killed = loop {
            match child.try_wait() {
                Ok(Some(_)) => break false,
                Ok(None) => {
                    if task.cancel.is_cancelled() {
                        let _ = child.kill();
                        break true;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("polling worker process: {e}"));
                }
            }
        };
        let output = child
            .wait_with_output()
            .map_err(|e| format!("collecting worker output: {e}"))?;
        // The worker's stderr (status + warnings) stays visible.
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if killed {
            return Err("worker killed by the supervisor (timeout/cancel)".to_string());
        }
        if !output.status.success() {
            return Err(format!("worker process exited with {}", output.status));
        }
        let timing = parse_worker_timing(&String::from_utf8_lossy(&output.stdout));
        worker_timings.lock().expect("worker timings poisoned")[task.partition] = timing;
        Ok(())
    };
    let start = Instant::now();
    let (report, timings) = explore_partitioned_timed(
        system,
        config,
        &options,
        crw_processes(&system, &proposals),
        proposals,
        launch,
    )?;
    let total_seconds = start.elapsed().as_secs_f64();
    let worker_timings = worker_timings
        .into_inner()
        .expect("worker timings poisoned");
    let phase_max = |pick: fn(&WorkerPhaseSeconds) -> f64| {
        worker_timings
            .iter()
            .flatten()
            .map(pick)
            .fold(0f64, f64::max)
    };
    Ok(DistRun {
        report,
        total_seconds,
        timings,
        worker_seed_seconds: phase_max(|t| t.seed),
        worker_frontier_seconds: phase_max(|t| t.frontier),
        worker_walk_seconds: phase_max(|t| t.walk),
        worker_export_seconds: phase_max(|t| t.export),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_args_roundtrip() {
        let args = CrwWorkerArgs {
            n: 6,
            t: 5,
            depth: 1,
            partition: 1,
            partitions: 2,
            threads: 4,
            hot_capacity: Some(1024),
            max_states: 50_000_000,
            symmetry: Symmetry::Full,
            export_path: PathBuf::from("/tmp/worker1.seg"),
            seed_path: Some(PathBuf::from("/tmp/seed.seg")),
            frontier_path: Some(PathBuf::from("/tmp/frontier.seg")),
            fault: None,
        };
        assert_eq!(CrwWorkerArgs::parse(&args.to_args()), Some(args.clone()));
        let ram = CrwWorkerArgs {
            hot_capacity: None,
            seed_path: None,
            frontier_path: None,
            symmetry: Symmetry::Off,
            ..args.clone()
        };
        assert_eq!(CrwWorkerArgs::parse(&ram.to_args()), Some(ram));
        // Every injected-fault token rides the argv unchanged.
        for fault in [
            WorkerFault::CrashAt(twostep_modelcheck::WorkerPhase::Walk),
            WorkerFault::HangAt(twostep_modelcheck::WorkerPhase::Export),
            WorkerFault::CorruptExport,
            WorkerFault::TruncateExport,
            WorkerFault::SlowIo(25),
            WorkerFault::LyingProgress,
        ] {
            let faulty = CrwWorkerArgs {
                fault: Some(fault),
                ..args.clone()
            };
            assert_eq!(
                CrwWorkerArgs::parse(&faulty.to_args()),
                Some(faulty.clone())
            );
        }
        // An unknown fault token is a parse failure, not a silent no-op.
        let mut mangled = args.to_args();
        let slot = mangled.iter().position(|a| a == "nofault").unwrap();
        mangled[slot] = "explode@never".to_string();
        assert_eq!(CrwWorkerArgs::parse(&mangled), None);
        // Every strength rides the argv unchanged — including the
        // two-word partial+value token.
        for mode in [Symmetry::Partial, Symmetry::PartialValue] {
            let deep = CrwWorkerArgs {
                symmetry: mode,
                ..args.clone()
            };
            assert_eq!(CrwWorkerArgs::parse(&deep.to_args()), Some(deep.clone()));
        }
        // An unknown symmetry token is a parse failure, not a default:
        // silently falling back to `Off` would make one worker partition
        // the frontier differently from the rest of the run.
        let mut mangled = args.to_args();
        let slot = mangled.iter().position(|a| a == "full").unwrap();
        mangled[slot] = "sideways".to_string();
        assert_eq!(CrwWorkerArgs::parse(&mangled), None);
    }

    #[test]
    fn worker_timing_line_roundtrips() {
        let stdout = "dist-worker: partition 0/2 ...\n\
                      dist-worker-timing: partition=0 seed=0.001000 frontier=0.002000 \
                      walk=1.500000 export=0.250000\n";
        assert_eq!(
            parse_worker_timing(stdout),
            Some(WorkerPhaseSeconds {
                seed: 0.001,
                frontier: 0.002,
                walk: 1.5,
                export: 0.25,
            })
        );
        assert_eq!(parse_worker_timing("no timing here"), None);
        assert_eq!(
            parse_worker_timing("dist-worker-timing: partition=0 seed=x"),
            None,
            "mangled values must not parse"
        );
    }

    #[test]
    fn non_worker_argv_is_ignored() {
        assert_eq!(CrwWorkerArgs::parse(&[]), None);
        assert_eq!(CrwWorkerArgs::parse(&["--quick".to_string()]), None);
        assert_eq!(maybe_run_dist_worker(&["--out".to_string()]), None);
        // A mangled worker vector parses to None rather than panicking.
        let mut broken = CrwWorkerArgs {
            n: 4,
            t: 2,
            depth: 1,
            partition: 0,
            partitions: 2,
            threads: 1,
            hot_capacity: None,
            max_states: 1000,
            symmetry: Symmetry::Off,
            export_path: PathBuf::from("x"),
            seed_path: None,
            frontier_path: None,
            fault: None,
        }
        .to_args();
        broken.truncate(4);
        assert_eq!(CrwWorkerArgs::parse(&broken), None);
    }

    #[test]
    fn elastic_args_roundtrip() {
        let args = CrwElasticArgs {
            n: 6,
            t: 5,
            threads: 2,
            hot_capacity: Some(4096),
            max_states: 50_000_000,
            symmetry: Symmetry::Full,
            worker: 7,
            yield_every: 2048,
            frontier_path: PathBuf::from("/tmp/f7.seg"),
            export_path: PathBuf::from("/tmp/e7.seg"),
            preempt_path: PathBuf::from("/tmp/p7.seg"),
            steal_flag: PathBuf::from("/tmp/s7.flag"),
            fault: None,
            seed_paths: vec![
                PathBuf::from("/tmp/seed0.seg"),
                PathBuf::from("/tmp/d1.seg"),
            ],
        };
        assert_eq!(CrwElasticArgs::parse(&args.to_args()), Some(args.clone()));
        // A fault token rides along without eating the trailing
        // variadic seed paths.
        let faulty = CrwElasticArgs {
            fault: Some(WorkerFault::SlowIo(5)),
            ..args.clone()
        };
        assert_eq!(CrwElasticArgs::parse(&faulty.to_args()), Some(faulty));
        for mode in [Symmetry::Partial, Symmetry::PartialValue] {
            let deep = CrwElasticArgs {
                symmetry: mode,
                ..args.clone()
            };
            assert_eq!(CrwElasticArgs::parse(&deep.to_args()), Some(deep.clone()));
        }
        let unseeded = CrwElasticArgs {
            hot_capacity: None,
            seed_paths: Vec::new(),
            symmetry: Symmetry::Off,
            ..args
        };
        assert_eq!(CrwElasticArgs::parse(&unseeded.to_args()), Some(unseeded));
        // The two worker argv dialects never cross-parse.
        assert_eq!(CrwElasticArgs::parse(&["--dist-worker".to_string()]), None);
    }

    #[test]
    fn progress_lines_roundtrip() {
        let PulseLine::Pulse(p) =
            classify_pulse_line("dist-progress: worker=3 steps=4096 frontier=17 fresh=900")
        else {
            panic!("pulse parses");
        };
        assert_eq!((p.worker, p.steps, p.frontier, p.fresh), (3, 4096, 17, 900));
        assert_eq!(classify_pulse_line("unrelated"), PulseLine::NotAPulse);
        assert_eq!(classify_pulse_line(""), PulseLine::NotAPulse);
        assert_eq!(
            parse_outcome_line("dist-elastic: outcome=finished"),
            Some(ElasticExit::Finished)
        );
        assert_eq!(
            parse_outcome_line("dist-elastic: outcome=preempted"),
            Some(ElasticExit::Preempted)
        );
        assert_eq!(parse_outcome_line("dist-elastic: outcome=sideways"), None);
    }

    #[test]
    fn garbled_progress_lines_classify_as_garbled_not_fatal() {
        // Mangled value.
        assert_eq!(
            classify_pulse_line("dist-progress: worker=3 steps=x frontier=1 fresh=1"),
            PulseLine::Garbled
        );
        // Truncated mid-line, as a dying process would leave it.
        assert_eq!(
            classify_pulse_line("dist-progress: worker=3 ste"),
            PulseLine::Garbled
        );
        // Prefix only.
        assert_eq!(classify_pulse_line("dist-progress:"), PulseLine::Garbled);
        // Binary garbage after the prefix.
        assert_eq!(
            classify_pulse_line("dist-progress: \u{1}\u{2}\u{3}"),
            PulseLine::Garbled
        );
    }

    #[test]
    fn future_versioned_pulse_with_extra_fields_still_parses() {
        // A newer worker appending fields must not strand an older
        // coordinator: unknown keys are skipped, required keys decide.
        let line = "dist-progress: v=2 worker=9 steps=64 frontier=5 fresh=40 spilled=3";
        let PulseLine::Pulse(p) = classify_pulse_line(line) else {
            panic!("future-versioned pulse still parses");
        };
        assert_eq!((p.worker, p.steps, p.frontier, p.fresh), (9, 64, 5, 40));
        // ...but a future line *dropping* a required field is garbled.
        assert_eq!(
            classify_pulse_line("dist-progress: v=3 worker=9 progress=0.5"),
            PulseLine::Garbled
        );
    }
}
