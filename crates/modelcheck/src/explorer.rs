//! Bounded exhaustive exploration of a protocol's execution space — as a
//! parallel, work-sharing, sharded-memo model-checking engine.
//!
//! The explorer walks **every** execution of a round-based protocol under
//! the extended (or classic) model for a given `(n, t)`: at each round the
//! adversary may crash any subset of the live processes (within the
//! remaining budget), and each crash takes one of the *distinct* outcomes
//! enumerated by [`twostep_adversary::crash_outcomes_iter`] against that
//! process's concrete send plan — arbitrary data subsets, ordered commit
//! prefixes, end-of-round death.
//!
//! Identical configurations reached along different paths are merged: the
//! execution space is a DAG, and each node's subtree is summarized once
//! ([`Summary`]) and memoized.  A summary carries
//!
//! * how many terminal executions the subtree contains,
//! * the worst last-decision round per total crash count `f` (the Theorem
//!   1 / Theorem 4 quantity),
//! * the set of values decidable in the subtree (the **valency** of the
//!   configuration, the engine of the paper's Section 5 bivalency
//!   argument),
//! * whether any terminal violates the uniform-consensus spec.
//!
//! This regenerates the paper's lower-bound content mechanically for small
//! `n`: over all executions with `f` crashes the worst decision round is
//! exactly `f+1`, and bivalent configurations persist until the adversary's
//! budget is spent.
//!
//! ## Engine architecture
//!
//! The walk is **iterative** — an explicit frame stack per walker, so the
//! reachable depth is bounded by memory, not the OS stack — and
//! **parallel** with [`ExploreOptions::threads`] workers:
//!
//! * the memo table is split into [`ExploreOptions::shards`] hash-sharded,
//!   mutex-guarded `HashMap`s ([`Summary`]s behind `Arc`s), so concurrent
//!   walkers contend on `1/shards` of the table instead of one lock;
//! * each shard is optionally **two-tier** ([`MemoConfig`]): a bounded hot
//!   map of live entries plus an append-only on-disk segment file of
//!   cold ones — full keys *and* summaries, checksummed — evicted in
//!   clock (second-chance) order and addressed by an in-memory index of
//!   fixed-width hashed keys.  A lookup that misses the hot tier
//!   rehydrates candidate records ([`crate::spill`]) from disk, verifies
//!   the decoded key against the probe, and promotes the match back, so
//!   `max_states` bounds *distinct* configurations — no longer resident
//!   RAM, not even for the keys;
//! * workers share work dynamically through a
//!   [`twostep_sim::WorkQueue`] injector: whenever a busy walker expands a
//!   configuration while some worker is idle, it donates child subtrees
//!   (tail-first — the ones it would reach last) to the queue.  Stealing
//!   walkers explore those subtrees into the shared memo and discard the
//!   local result; the primary walker later finds them memoized.  The
//!   depth-aware policy [`ExploreOptions::donate_depth`]
//!   (`TWOSTEP_DONATE_DEPTH`) optionally confines donation to shallow
//!   rounds, where subtrees are still big enough to repay the handoff;
//! * worker 0 — the **primary** walker, running on the calling thread via
//!   [`twostep_sim::run_on_workers`] — performs the canonical root walk
//!   (or, for a distributed worker, the canonical walk of each assigned
//!   subtree root in order — the core is root-agnostic).
//!
//! ## Hot path
//!
//! Everything every engine does funnels through one loop — fork a child
//! configuration, step it one round, key it, probe the memo — so that
//! loop is engineered to allocate nothing and hash once in steady
//! state:
//!
//! * **canonical byte keys** — entering a configuration encodes it once
//!   into a walker-local scratch buffer (`make_key_into`: round,
//!   process count, then per-process tag + [`SpillCodec`] encoding)
//!   instead of cloning per-process snapshots into a structured key.
//!   Byte equality coincides with the structured equality the explorer
//!   has always merged by (property-tested in this module), because the
//!   component encodings are canonical;
//! * **a single stable hash** — the key bytes are hashed exactly once
//!   ([`twostep_model::codec::stable_hash64`]); that one `u64` picks
//!   the memo shard, indexes the shard's raw table (behind a
//!   pass-through hasher — nothing re-hashes the bytes), keys the spill
//!   index, and partitions distributed frontiers.  Collisions chain on
//!   full key bytes, so they cost a `memcmp`, never correctness;
//! * **lock-lean probes** — a memo hit (the dominant outcome in warm
//!   and late-exploration walks) takes only the shard's read lock and
//!   touches an atomic clock bit; write locks are for misses with a
//!   disk tier and for inserts ([`crate::memo`]);
//! * **clone-free successors** — per-process snapshots live behind
//!   `Arc`s ([`twostep_sim::Stepper`] copy-on-write), child steppers
//!   are recycled through a walker pool and re-forked in place
//!   (`Stepper::fork_from` reuses every buffer), round scratch (send
//!   plans, outcomes, receive flags, inboxes) persists inside the
//!   stepper, and hot protocols refill their plans in place
//!   ([`twostep_sim::SyncProtocol::send_into`]);
//! * **pooled enumeration** — crash-outcome buffers, action-set
//!   vectors and their rows, key buffers, and the terminal
//!   pseudo-schedule are all recycled across configurations.
//!
//! None of this changes a single observable bit: keys merge exactly the
//! configurations the structured comparison merged, summaries are the
//! same deterministic child-order merges, and the differential suites
//! (parallel/spill/dist/cache) pin the reports unchanged.  The spill /
//! interchange record format did change shape (key bytes stored
//! verbatim, length-prefixed), which is segment format **v4** — v3-era
//! files and caches are foreign and loudly replaced, never reused.
//!
//! ## Symmetry reduction
//!
//! The paper's processes are identical up to rank, so many distinct
//! configurations are mere relabelings of one another — and exploring
//! each label variant separately pays up to `n!` redundancy that no
//! constant-factor hot-path win can touch.  [`ExploreConfig::symmetry`]
//! (`Symmetry::Off | Full | Partial | PartialValue`, env tokens
//! `off|full|partial|partial+value` via `TWOSTEP_SYMMETRY`) quotients
//! the key path by the largest group that is *sound for the protocol
//! being checked*, at escalating strengths:
//!
//! * **settled-record canonicalization** — always applied under
//!   [`Symmetry::Full`], sound for **every** protocol.  Before hashing,
//!   the records of settled (decided or crashed) processes are sorted
//!   into their index slots in canonical byte order; active processes
//!   keep their true indexes and encodings.  Two configurations merged
//!   this way have *identical* active processes at *identical* indexes
//!   (hence identical future dynamics: a settled process is inert, and
//!   the silent-index set is unchanged) and multiset-equal settled
//!   records — and every quantity a [`Summary`] carries is a function
//!   of decision values/counts and the crash count, never of which
//!   index holds which settled record (validity is membership in the
//!   proposal set, agreement compares values pairwise, termination and
//!   `f` are counts).  Merged subtrees therefore summarize
//!   **bit-identically**, and the root report matches `Off` exactly;
//! * **full-orbit canonicalization** — additionally applied when the
//!   protocol declares itself pid-symmetric
//!   ([`SpillCodec::pid_symmetric`]): *all* records are sorted (each
//!   active stripped to its owner-relabelled-to-slot-0 encoding via
//!   [`SpillCodec::encode_relabelled`], ties broken by index — tied
//!   records are byte-identical, so the tie-break never breaks the
//!   normal form) and each active is re-encoded as owned by its sorted
//!   position.  This is the full `n!` quotient; it is sound only when
//!   the dynamics are invariant under index permutation (the
//!   `pid_symmetric` contract), which rank-dependent protocols — the
//!   paper's rotating-coordinator algorithm among them — do **not**
//!   satisfy, so they keep the settled-only strength automatically;
//! * **rank-inert pooling** (`Symmetry::Partial`) — the partial-orbit
//!   tier for rank-dependent protocols.  A protocol may declare an
//!   *active* process rank-inert ([`SpillCodec::rank_inert`]): its
//!   remaining behaviour no longer depends on its rank.  For CRW under
//!   `HighestFirst` commit order that is exactly the case when more
//!   actives sit below it than the adversary has crashes left
//!   (`actives_below > t − crashed`): its own coordinator round can
//!   then never arrive with it still the committing frontier, so for
//!   the rest of the run it only ever *receives* — a role every other
//!   rank-inert active plays identically.  Rank-inert actives join the
//!   settled pool (owner-stripped, tag 3), so two configurations that
//!   differ only in *which* doomed-to-silence ranks hold which state
//!   merge.  **Normal-form argument**: members of one partial orbit
//!   have identical true-active slots (bytes and indexes), identical
//!   settled-record multisets, and identical rank-inert state
//!   multisets; every transition of one member maps to a transition of
//!   the other by the slot permutation that witnesses the orbit, and
//!   — because effect-pruned adversary enumeration (below) keys
//!   transitions by their *live effect*, not by raw crash pattern —
//!   the two members enumerate the *same multiset* of child orbits
//!   with the same multiplicities.  Summaries are multiset-invariant
//!   merges of child summaries except for `decided` discovery order,
//!   which the memo normalizes by sorting decided vectors (by
//!   canonical value encoding) at insert under this tier — so orbit
//!   members summarize identically and the quotient is summary-exact,
//!   terminal counts included;
//! * **value symmetry** (`Symmetry::PartialValue`) — composed on top
//!   of the partial tier when the protocol declares a value involution
//!   ([`SpillCodec::value_symmetric`] / [`SpillCodec::value_swapped`],
//!   e.g. flipping a binary estimate) *and* the run's proposal set is
//!   closed under it (checked per run against the actual proposals;
//!   inapplicable requests warn once and degrade to `Partial`).  The
//!   canonical key becomes the lexicographic minimum of the plain and
//!   the value-swapped encoding, so a configuration and its value
//!   mirror share one memo entry holding the canonical-space summary;
//!   a hit through the swapped encoding maps the summary back through
//!   the involution (element-wise on `decided` — the swap commutes
//!   with the dynamics, so terminals, rounds, and the violation flag
//!   are fixed points).  Composition is sound because the involution
//!   acts value-wise and commutes with rank inertness (which reads
//!   only statuses, ranks, and the crash budget — never values).
//!
//! ## Effect-pruned adversary enumeration
//!
//! Deliveries to settled receivers are no-ops on the configuration, so
//! two crash outcomes that differ only in such effect-free deliveries
//! produce byte-identical successors.  The explorer therefore
//! enumerates crash outcomes keyed by their **live effect** — which
//! *active* data receivers hear, which *active* control slots fire —
//! keeping one representative per class
//! ([`crash_outcomes_effective_into`]).  This prunes duplicate edges at
//! **every** symmetry mode (`Off` included): the reachable state set is
//! unchanged, while terminal/path counts drop to one per
//! effect-distinct schedule — which is also what restores the
//! transition *bijection* between partial-orbit members whose settled
//! pools differ in how many effect-free receivers they contain, making
//! the partial tier's terminal counts exact rather than merely
//! verdict-preserving.  (Logic version v4; Off-mode reports before v4
//! counted effect-duplicate terminals separately.)
//!
//! What changes and what doesn't: `distinct_states` drops (each memo
//! entry now summarizes an orbit of configurations), and the per-round
//! census counts *orbits* rather than raw configurations — rounds,
//! bivalency flags, and the zero/non-zero structure are preserved, only
//! the counts shrink.  Verdicts, the root summary, and witness validity
//! are unchanged: witness reconstruction re-drives real (uncanonicalized)
//! configurations from the true initial configuration and probes the
//! memo through the same canonical keys, and an orbit representative's
//! `violating` bit equals every member's.  Disable symmetry
//! (`Symmetry::Off`, the default) when raw per-configuration counts or
//! differential comparison against historical baselines matter.  The
//! effective strength (off / settled-only / full-orbit / rank-inert,
//! with a value-quotient bit) is part of the persistent-cache
//! fingerprint, so caches never cross strengths silently — should a
//! protocol's `pid_symmetric` / `value_symmetric` declarations or the
//! proposal set change.  That covers suspended walks too, since a
//! suspension is a cache commit: a partial image keyed at one strength
//! is loudly ignored and replaced by a run at another, never resumed
//! into a quotient where its keys mean something else.
//!
//! ### Canonicalization hot path
//!
//! Two mechanisms keep the quotient cheaper than the states it merges.
//! **Incremental keys**: settled records are immutable once written, so
//! each frame carries its canonical encoding's sorted settled pool
//! (`CanonSeed`, one per encoding when the value quotient is active);
//! a child copies the parent's pool pre-sorted, appends only the
//! records settled by this one step (plus the rank-inert records,
//! always re-encoded fresh — inert state still mutates), and
//! [`Canonicalizer::sort_from`] sorts just that delta and merges.
//! **Raw→canonical key cache**: each walker keeps a small direct-mapped
//! cache from raw key bytes (byte-verified, so a hash collision only
//! costs a miss) to the finished canonical key and its seeds, so
//! re-visited configurations — the common case in a memoized DFS —
//! skip canonicalization entirely.
//!
//! ## Determinism argument
//!
//! Results are **bit-identical** to the serial (`threads = 1`) walk.  The
//! primary walker expands every configuration's children in the fixed
//! enumeration order and absorbs their summaries in that order, exactly as
//! the serial walk does; whether a child summary was computed locally or
//! arrived via the memo from a stealer is unobservable, because each
//! subtree summary is itself the result of the same deterministic
//! child-order merge wherever it is computed, and merged summaries don't
//! depend on *when* they were computed.  Duplicate in-flight work (two
//! workers racing on one subtree) produces identical `Arc<Summary>`
//! values; the first insert wins and the count of distinct states is
//! key-set cardinality, not insert attempts — so `distinct_states`, the
//! per-round census, the root summary, and witness reconstruction all
//! match the serial walk byte for byte.
//!
//! The two-tier memo preserves this argument wholesale: spilling changes
//! only where an entry *resides*, never whether a key is memoized — a
//! `get` answers exactly as the all-RAM map would (rehydrating from disk
//! on a cold hit, full-key-verified), and `distinct_states` still counts
//! fresh insertions.  Reports are therefore bit-identical
//! spill-vs-no-spill at any `hot_capacity` and any thread count
//! (differentially tested in `tests/spill_differential.rs`).
//!
//! ## Distributed exploration
//!
//! The same argument extends across **process boundaries**, which is what
//! [`crate::dist`] exploits.  A partitioned exploration deterministically
//! expands the root to a depth-`d` frontier, assigns each distinct
//! frontier subtree to a worker process by key hash, and merges the
//! workers' exported memo segments before a final canonical root walk.
//! Three observations carry the proof over:
//!
//! 1. a worker process is indistinguishable from a stealer thread: it
//!    computes subtree summaries with the identical child-order merge,
//!    just into a private memo that is shipped as a segment file instead
//!    of shared memory;
//! 2. the merged memo is a plain key → summary mapping and summaries are
//!    a *function of the key* (each is the deterministic merge of its
//!    subtree), so the merge is conflict-free and insensitive to import
//!    order — two workers that both computed a shared descendant
//!    necessarily exported identical records for it;
//! 3. the coordinator's replay is the canonical root walk over a
//!    pre-seeded memo, and the walk never observes *where* a memoized
//!    summary came from — its own expansion, a thread, or another
//!    process.  Missing coverage (a crashed worker, a dropped segment)
//!    only moves work back into the replay; it cannot change the result.
//!
//! The differential suite `tests/dist_differential.rs` pins this:
//! partitioned reports are bit-identical to `threads = 1` across
//! partition counts, frontier depths, worker memo tierings, and worker
//! crash/retry histories.
//!
//! ## Elastic distribution
//!
//! Static partitioning pays its whole coordination bill — frontier
//! expansion, worker spawn-up, export/merge — up front, whether or not
//! the run is long enough to amortize it.  The **elastic** engine
//! ([`crate::dist::explore_elastic`]) inverts that: the coordinator
//! starts walking the root *locally* through the same frame-stepped
//! core, and distribution is an escape hatch it only reaches for when
//! the run outlives a [`crate::StealConfig`]'s thresholds.  Short runs
//! therefore pay nothing — they are a plain serial walk plus one
//! per-`yield_every`-steps policy check.
//!
//! Three mechanisms, all built on machinery this module already proves
//! correct:
//!
//! * **progress protocol** — every elastic walk (local or worker)
//!   reports `(steps, frontier, fresh)` each `yield_every` steps;
//!   worker processes print it as parseable `dist-progress:` stdout
//!   lines which the coordinator tails into a live per-worker load
//!   board.  `frontier` counts the *unexplored siblings hanging off the
//!   DFS stack* — the work a preemption could harvest — and `fresh`
//!   counts new memo inserts, so a walk that is merely re-traversing
//!   memoized territory advertises no stealable value;
//! * **steal handshake** — the coordinator requests a steal by writing
//!   a flag file next to the victim's scratch; the victim observes it
//!   at its next report boundary, suspends, and exports two artifacts
//!   *in a fixed order*: first the harvested frontier (every unexplored
//!   subtree root, addressed by its **action-index path** from the true
//!   initial configuration — canonical keys are lossy under symmetry,
//!   so the path is the only faithful cross-process address), then its
//!   sealed memo delta.  A crash between the two leaves an unsealed
//!   delta that fails validation, so a half-preempted worker is
//!   indistinguishable from a dead one and simply retried.  The
//!   coordinator re-splits the harvested frontier across fresh workers,
//!   each seeded with *every* delta merged so far — stolen subtrees are
//!   never walked twice, and a re-assigned subtree that was already
//!   finished memoizes nothing fresh, cannot be preempted (preemption
//!   requires `fresh > 0`), and exits immediately, which bounds every
//!   preempt chain in a finite space;
//! * **memo handoff soundness** — this is observation 2/3 of the
//!   distributed argument above, unchanged: summaries are a function of
//!   the key, so merging a preempted worker's *partial* delta is as
//!   conflict-free as merging a complete one, and the final canonical
//!   replay recomputes anything the handoff under-covered.  Elastic
//!   scheduling decisions (when to offload, whom to preempt, how to
//!   re-split) can affect only *timing*, never the report.
//!
//! `tests/dist_differential.rs` pins the elastic engine the same way:
//! forced-steal runs (zero warm-up, preempt-everything policy) are
//! bit-identical to serial across both model kinds and partition
//! counts, through killed-mid-steal retries, steal requests that lose
//! the race with a natural finish, and — by proptest — arbitrary
//! `(yield_every, partitions, min_frontier)` re-split cadences.
//!
//! ## Fault tolerance
//!
//! Worker launches are assumed to fail — crash, hang, corrupt their
//! exports, lie in their progress reports — and the coordinator is
//! engineered so none of that can reach the report.  The argument has
//! three layers:
//!
//! * **supervised lifecycle** ([`crate::dist::SuperviseConfig`], built
//!   on [`twostep_sim::run_tasks_supervised`]) — every launch runs
//!   under a supervisor that converts panics into ordinary retryable
//!   failures (a panicking launch closure can never abort the
//!   coordinator), enforces an optional per-attempt wall-clock cap,
//!   and — for the elastic engine — runs a pulse-liveness watchdog
//!   over the `dist-progress:` board: a worker whose last pulse (or
//!   spawn) is older than the deadline has its
//!   [`twostep_sim::CancelToken`] tripped, its OS process killed, and
//!   is retried as a crash.  Retries back off deterministically
//!   (doubling from [`SuperviseConfig::backoff`](crate::dist::SuperviseConfig::backoff),
//!   no jitter — reruns schedule identically);
//! * **validated ingestion** — everything a worker hands back is
//!   checked before it is believed: frontier and delta segments carry
//!   CRCs and seals ([`crate::spill`]), manifests are written
//!   all-or-nothing (write-then-rename), and garbled `dist-progress:`
//!   lines are *skipped with a once-per-worker warning*, never parsed
//!   into the load board.  A worker that lies about its progress can
//!   waste a steal attempt; it cannot corrupt state;
//! * **graceful degradation** — a partition that exhausts its launch
//!   attempts is not a run failure (unless
//!   [`SuperviseConfig::degrade`](crate::dist::SuperviseConfig::degrade)
//!   is off): the coordinator walks the orphaned subtree roots
//!   *locally* through the same frame-stepped core into the same memo,
//!   which is sound for exactly the reason replay is — under-coverage
//!   only costs recomputation.  The elastic scheduler additionally
//!   *quarantines* the repeat offender (capacity shrinks by one, never
//!   below one) so a poisoned worker slot cannot absorb the whole
//!   retry budget.  Degraded work is reported
//!   ([`crate::dist::DistTimings::degraded_partitions`],
//!   [`crate::dist::ElasticStats::degraded`]), never hidden.
//!
//! All of it is testable deterministically because faults are *data*:
//! a [`crate::faults::FaultPlan`] (`TWOSTEP_FAULT`, `--fault`) maps
//! `(partition, attempt)` to an injected fault — crash/hang at a named
//! phase, export corruption or truncation, slow IO, lying progress —
//! and an IO shim can fail or tear the nth coordinator-side
//! spill/cache write.  `tests/fault_differential.rs` pins
//! the contract: every survivable plan is report-invisible
//! (bit-identical to serial, by matrix and by proptest), retry
//! exhaustion degrades to an identical report, hung workers die within
//! the watchdog/timeout deadline, and no single torn write leaves a
//! cache a later run would trust.
//!
//! ## Persistent cache
//!
//! The same portability argument extends across **run boundaries**
//! ([`crate::cache`], [`ExploreOptions::cache`]).  Because a summary is
//! a pure function of its key, a previous run's memo image — stored as
//! compressed, CRC'd interchange segments plus a fingerprinted
//! manifest — can pre-seed this run's memo, and the walk short-circuits
//! on every seeded subtree; a fully warm run touches exactly the root.
//! Three rules keep it sound:
//!
//! * **fingerprinting** — segments are only reused when the manifest's
//!   fingerprint matches this run ([`crate::cache::run_fingerprint`]:
//!   segment format and exploration-logic versions, `(n, t)`, the
//!   exploration-relevant [`ExploreConfig`] fields, and
//!   protocol/proposal identity via [`CheckableProtocol::fingerprint`],
//!   a stable FNV-1a over the [`SpillCodec`] encoding).  A mismatch is
//!   loudly ignored — one stderr line, then a cold run — never silently
//!   reused.  The `max_states` safety valve is excluded: it cannot
//!   change results, so it must not invalidate caches.  Changes to what
//!   the checker *computes* must bump the logic version constant in
//!   [`crate::cache`], or old caches would replay pre-change results;
//! * **delta commit** — the memo tracks which entries were seeded and
//!   which this run inserted, so a ReadWrite commit appends a segment
//!   holding only the *new* entries (nothing at all when fully warm);
//!   a stale or absent cache is replaced wholesale.  Distributed runs
//!   use the same machinery end to end: the coordinator seeds workers
//!   with one consolidated segment and workers export deltas only;
//! * **invalidation** — a cache that fails validation mid-import
//!   (corrupt segment, bad CRC, undecompressable record) is discarded
//!   *whole* and the run explores cold: a partial image would be
//!   result-correct for the root but silently shrink `distinct_states`
//!   and the census, because a seeded parent hides its missing
//!   descendants from the walk.
//!
//! Cold-vs-warm bit-identity across both model kinds and every engine
//! shape is pinned by `tests/cache_differential.rs`; the report's
//! [`ExploreReport::cache_hits`] / [`ExploreReport::fresh_states`]
//! counters attribute the split without affecting any result field.
//!
//! One carve-out: the `max_states` budget is a **resource safety valve**,
//! not part of the deterministic result.  Whenever the budget is not
//! exhausted (it is at least the number of distinct reachable
//! configurations), no engine configuration can abort — a fresh memo miss
//! with the count already at the budget would require more distinct
//! states than exist — and every engine returns the identical report.
//! When the space genuinely overflows the budget, *which* configuration
//! trips [`ExploreError::StateLimit`] depends on timing (and was always
//! approximate: the pre-parallel recursive walk checked the budget only
//! on node entry, never on the inserts performed while unwinding).
//!
//! ## `StateLimit` abort protocol
//!
//! Aborts are **cooperative and prompt**.  Whichever walker first
//! exhausts the state budget — or hits an engine or spill error — records
//! the failure, raises the shared cancel flag, and closes the work queue
//! *before* it unwinds (`Shared::fail`).  Every peer walker polls the
//! flag on each configuration entry and bails with a quiet interrupt;
//! workers parked in `pop_wait` wake to `None` immediately because the
//! queue is already closed.  No walker can keep expanding configurations
//! or block on the queue after an abort, so the exploration call joins
//! promptly and returns the first recorded failure (regression-tested at
//! `threads = 4` in this module).  Under a
//! [`ReadWrite`](crate::CacheMode::ReadWrite) cache
//! ([`ExploreOptions::cache`]) a `StateLimit` abort does not discard the
//! partial walk: the quiescent memo is committed to the cache and the
//! run returns [`ExploreError::Interrupted`] instead, so a rerun with a
//! raised valve resumes from it.  Without one the historical
//! `StateLimit` error is returned unchanged.
//!
//! ## Frame-stepped core
//!
//! The walker no longer owns its loop.  The DFS body lives in a
//! `StepWalker` whose `step()` performs **exactly one bounded unit of
//! work** — one configuration entry (memo probe / terminal evaluation /
//! frame push) or one frame pop (memoizing insert) — and returns a
//! [`StepResult`] envelope; every engine (serial, parallel stealers,
//! spill, distributed workers and replay) is a thin *driver* looping
//! over `step()`.  Three contracts make this preemption-safe:
//!
//! * **step law** — step *order* is exactly the owned loop's iteration
//!   order (only loop ownership moved), so bit-identity of reports is
//!   structural, not re-proven: any interleaving of `step()` calls
//!   performs the same enters and the same canonical-order merges;
//! * **arbiter contract** — after each unit the driver-supplied
//!   [`Arbiter`] inspects a [`StepProgress`] snapshot and answers
//!   [`StepVerdict::Allow`] (keep going), [`StepVerdict::Yield`] (a
//!   cooperative scheduling point — the primary driver calls
//!   `thread::yield_now`), or [`StepVerdict::Refuse`] with the exhausted
//!   [`BudgetKind`] (steps, wall-clock deadline, memo bytes — the
//!   distinct-state budget keeps its historical `enter()`-site check).
//!   The built-in [`BudgetArbiter`] enforces a declarative
//!   [`WalkBudget`] ([`ExploreOptions::budget`], env-resolvable via
//!   `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS`).  A refusal is
//!   honored only after the walk has memoized at least one *fresh*
//!   configuration this session, so a resume chain always terminates in
//!   at most `distinct_states` sessions even at `max_steps = 0`;
//! * **suspension is a cache commit** — a suspended walk under a
//!   ReadWrite cache commits its memo like a finished one
//!   ([`crate::cache`]), and resuming is a plain warm start.  No
//!   frontier frames are saved: memo inserts happen only at frame pop
//!   or terminal entry, so any quiescent memo image is
//!   **descendant-closed**, and a resumed run simply re-drives the root
//!   walk, fast-forwarding through memo hits until it reaches unexplored
//!   territory.  The resumed final report is bit-identical to the
//!   uninterrupted one (`tests/checkpoint_differential.rs`, plus a
//!   proptest composing arbitrary step-budget partitions).

use std::collections::HashMap;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use twostep_adversary::crash_outcomes_effective_into;
use twostep_model::codec::{stable_hash64, Canonicalizer};
use twostep_model::{
    CrashPoint, CrashSchedule, CrashStage, ProcessId, SymmetryContext, SystemConfig,
};
use twostep_sim::{
    check_uniform_consensus, default_threads, run_on_workers, Decision, ModelKind, PlanShape,
    ProcStatus, RoundActions, SimError, SpecViolation, Stepper, SyncProtocol, TraceLevel,
    WorkQueue,
};

use crate::cache::{CacheConfig, CacheSession};
use crate::memo::{key_round, MemoConfig, ShardedMemo};
use crate::spill::{SpillCodec, SpillError};

/// Protocols the explorer can check: cloneable (to fork executions),
/// hashable (to merge identical configurations), `Send + Sync` (to move
/// forked executions between worker threads and share memoized
/// configuration keys across the memo's tiers), and [`SpillCodec`] (so
/// configuration keys — per-process protocol snapshots — can spill to
/// disk and travel between worker processes as interchange segments).
pub trait CheckableProtocol: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec {
    /// Stable 64-bit identity of this protocol snapshot, derived from
    /// its [`SpillCodec`] encoding via
    /// [`stable_hash64`](twostep_model::codec::stable_hash64) — the same
    /// hasher the memo applies to whole configuration keys, and the
    /// protocol-identity component of the persistent cache's run
    /// fingerprint ([`crate::cache::run_fingerprint`]).  Two snapshots
    /// fingerprint equal iff their encodings are byte-equal, and the
    /// hash is stable across builds and platforms (unlike
    /// `DefaultHasher`), so a cache written yesterday still identifies
    /// today's identical run.
    ///
    /// The encoding must therefore be **canonical**: `decode` inverts
    /// `encode` (the [`SpillCodec`] contract) and `Eq`-equal snapshots
    /// encode to equal bytes — the explorer merges configurations by
    /// comparing these bytes, so a snapshot whose encoding includes
    /// state its `Eq` ignores would split states the structured
    /// comparison used to merge.
    fn fingerprint(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        stable_hash64(&buf)
    }
}
impl<T: SyncProtocol + Clone + Eq + Hash + Send + Sync + SpillCodec> CheckableProtocol for T {}

/// Decision-round bounds to verify at every terminal, as a function of the
/// run's actual crash count `f`.
#[derive(Clone, Copy, Debug)]
pub enum RoundBound {
    /// `f + c` — Theorem 1 is `FPlus(1)`.
    FPlus(u32),
    /// `min(f + 2, t + 1)` — the classic early-deciding bound.
    ClassicEarly {
        /// The resilience bound `t`.
        t: usize,
    },
    /// A fixed bound independent of `f` — flooding's `t + 1`.
    Fixed(u32),
    /// `base + f·per_f` — e.g. the block simulation of the extended model
    /// on the classic one decides within `(f+1)·n` classic rounds, which
    /// is `Scaled { base: n, per_f: n }`.
    Scaled {
        /// The `f = 0` bound.
        base: u32,
        /// Extra rounds per crash.
        per_f: u32,
    },
}

impl RoundBound {
    /// The bound for a run with `f` crashes.
    pub fn bound(&self, f: usize) -> u32 {
        match self {
            RoundBound::FPlus(c) => f as u32 + c,
            RoundBound::ClassicEarly { t } => ((f + 2).min(t + 1)) as u32,
            RoundBound::Fixed(b) => *b,
            RoundBound::Scaled { base, per_f } => base + f as u32 * per_f,
        }
    }
}

/// Which agreement property to verify at terminals.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SpecMode {
    /// Uniform consensus: no two processes — correct or faulty — decide
    /// differently (the paper's problem).
    #[default]
    Uniform,
    /// Plain consensus: only *correct* processes must agree; a faulty
    /// decider may deviate.  Used to check the classic-model `f+1`
    /// early-deciding baseline, for which uniformity provably fails
    /// (Charron-Bost–Schiper).
    NonUniform,
}

/// Symmetry-reduction mode: whether configurations are canonicalized
/// modulo process-index permutation (and, at the strongest mode, modulo
/// the binary value involution) before keying the memo — the module
/// docs' "Symmetry reduction" section.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Symmetry {
    /// No canonicalization: every raw configuration is a distinct memo
    /// entry.  The default, and the differential baseline the symmetry
    /// suites compare against.
    #[default]
    Off,
    /// Canonicalize modulo the largest *structurally* sound permutation
    /// group: settled (decided/crashed) records are sorted into their
    /// slots for every protocol, and the full `n!` orbit is quotiented
    /// for protocols declaring [`SpillCodec::pid_symmetric`].  Verdicts,
    /// the root summary, and witness validity are unchanged;
    /// `distinct_states` and the census count orbits instead of raw
    /// configurations.
    Full,
    /// Everything [`Full`](Symmetry::Full) does, plus the **partial
    /// (mixed-role) quotient**: active processes whose rank is provably
    /// inert ([`SpillCodec::rank_inert`]) are owner-stripped and pooled
    /// with the settled records.  Still exact for the root summary (see
    /// the module docs' soundness argument), up to the order of the
    /// `decided` valency list, which this tier stores in canonical
    /// (encoded-byte) order.
    Partial,
    /// Everything [`Partial`](Symmetry::Partial) does, plus **value
    /// symmetry** when it applies ([`SpillCodec::value_symmetric`]
    /// protocols over a swap-closed binary proposal set): each
    /// configuration is keyed by the lexicographically smaller of its
    /// canonical encoding and its value-swapped canonical encoding, and
    /// memoized summaries are mapped through the involution on the way
    /// in and out.  When value symmetry does not apply to the run it
    /// degrades to `Partial` (loudly, once).
    PartialValue,
}

impl Symmetry {
    /// The mode's canonical config-string token, shared by the
    /// `TWOSTEP_SYMMETRY` env override, the bench CLI, and the
    /// distributed worker argv (so every process of a run agrees on the
    /// spelling).
    pub fn token(self) -> &'static str {
        match self {
            Symmetry::Off => "off",
            Symmetry::Full => "full",
            Symmetry::Partial => "partial",
            Symmetry::PartialValue => "partial+value",
        }
    }

    /// Parses a [`token`](Self::token) (ASCII case-insensitive,
    /// surrounding whitespace ignored); `None` for anything else —
    /// callers decide whether that warrants a warning
    /// (the `TWOSTEP_SYMMETRY` warn-once policy) or a hard error.
    pub fn parse_token(raw: &str) -> Option<Symmetry> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Symmetry::Off),
            "full" => Some(Symmetry::Full),
            "partial" => Some(Symmetry::Partial),
            "partial+value" => Some(Symmetry::PartialValue),
            _ => None,
        }
    }

    /// Resolves the mode into the run's concrete [`SymmetryPlan`] —
    /// computed once per exploration from the protocol type and the
    /// proposal vector, then carried in [`Shared`]: the per-visit key
    /// path must not re-derive type-level facts, and value-symmetry
    /// applicability depends on the proposals, which only the run knows.
    pub(crate) fn plan<P>(self, proposals: &[P::Output]) -> SymmetryPlan
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let tier = match self {
            Symmetry::Off => CanonTier::Raw,
            _ if P::pid_symmetric() => CanonTier::FullOrbit,
            Symmetry::Full => CanonTier::Settled,
            Symmetry::Partial | Symmetry::PartialValue => CanonTier::SettledInert,
        };
        let value = self == Symmetry::PartialValue && value_symmetry_applies::<P>(proposals);
        if self == Symmetry::PartialValue && !value {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "twostep: symmetry mode \"partial+value\" requested but value \
                     symmetry does not apply to this run (protocol not value-symmetric, \
                     or proposal set not closed under the value swap); \
                     running at \"partial\" strength"
                )
            });
        }
        SymmetryPlan { tier, value }
    }
}

/// Whether the value-symmetry quotient is sound for a run of protocol
/// `P` over `proposals`: the protocol's dynamics must commute with the
/// involution ([`SpillCodec::value_symmetric`]), every proposal must
/// have a swap image, and the proposal *set* must be closed under the
/// swap — the validity check compares decided values against the
/// proposal set, so a swap that leaves it would flip a terminal's
/// verdict between a configuration and its swapped twin.
fn value_symmetry_applies<P>(proposals: &[P::Output]) -> bool
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    if !P::value_symmetric() || proposals.is_empty() {
        return false;
    }
    let encoded: Vec<Vec<u8>> = proposals
        .iter()
        .map(|p| {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            buf
        })
        .collect();
    let mut swap_buf = Vec::new();
    for proposal in proposals {
        let Some(swapped) = proposal.value_swapped() else {
            return false;
        };
        swap_buf.clear();
        swapped.encode(&mut swap_buf);
        if !encoded.contains(&swap_buf) {
            return false;
        }
    }
    true
}

/// Which canonical-key layout a run uses — the [`Symmetry`] mode
/// resolved against the protocol's type-level declarations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum CanonTier {
    /// The plain [`make_key_into`] encoding; nothing is sorted.
    Raw,
    /// Settled (decided/crashed) records sorted into the settled slots;
    /// actives keep their true indexes.  Sound for every protocol.
    Settled,
    /// `Settled`, plus rank-inert actives ([`SpillCodec::rank_inert`])
    /// owner-stripped (tag `3`) and sorted jointly with the settled
    /// records into the non-true-active slots.
    SettledInert,
    /// Every record sorted, actives re-encoded at their sorted position
    /// — the full `n!` quotient for [`SpillCodec::pid_symmetric`]
    /// protocols (subsumes `SettledInert`, so pid-symmetric protocols
    /// take this tier at every non-`Off` mode).
    FullOrbit,
}

/// A run's resolved symmetry configuration: the canonical-key tier plus
/// whether the value-involution quotient is active.  Computed once per
/// run ([`Symmetry::plan`]) and carried in [`Shared`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct SymmetryPlan {
    pub(crate) tier: CanonTier,
    pub(crate) value: bool,
}

impl SymmetryPlan {
    /// The effective canonicalization strength as the byte the
    /// persistent-cache fingerprint records:
    /// the tier code (`0` raw, `1` settled, `2` full-orbit, `3`
    /// settled-inert) with bit `0x10` set when the value quotient is
    /// active.  Fingerprinting the *strength* (not the configured mode)
    /// matters because `pid_symmetric` / `value_symmetric` are
    /// type-level declarations and value applicability depends on the
    /// proposals: any of them can change without an encoding changing,
    /// and a cache keyed at another strength holds a differently
    /// quotiented state space.
    pub(crate) fn strength(self) -> u8 {
        let tier = match self.tier {
            CanonTier::Raw => 0,
            CanonTier::Settled => 1,
            CanonTier::FullOrbit => 2,
            CanonTier::SettledInert => 3,
        };
        tier | if self.value { 0x10 } else { 0 }
    }
}

/// Exploration limits and model options (what to explore).
///
/// Engine parallelism (how to explore it) lives in [`ExploreOptions`];
/// the two are orthogonal, and every [`ExploreOptions`] produces the same
/// report for a given `ExploreConfig`.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Which model semantics to run under.
    pub model: ModelKind,
    /// Round cap: reaching it with live undecided processes is a
    /// termination violation.
    pub max_rounds: u32,
    /// Distinct-configuration budget; exceeding it aborts with
    /// [`ExploreError::StateLimit`].  A resource safety valve: when the
    /// budget covers the reachable space the result is engine-independent,
    /// but a space that overflows it may abort at an engine-dependent
    /// point (see the module docs).
    pub max_states: usize,
    /// Optional decision-round bound to verify at every terminal.
    pub round_bound: Option<RoundBound>,
    /// Agreement property to verify (uniform by default).
    pub spec: SpecMode,
    /// Cap on crashes *per round* (`None` = only the global `t` budget).
    /// `Some(1)` is the restricted adversary of **Theorem 3** — the §5
    /// proof kills at most one process per round, so the `f+1` lower
    /// bound already holds against this weaker adversary.
    pub max_crashes_per_round: Option<usize>,
    /// Symmetry-reduction mode (default [`Symmetry::Off`]; the
    /// [`for_crw`](Self::for_crw) constructor honors the
    /// `TWOSTEP_SYMMETRY` env override).  Part of the persistent-cache
    /// fingerprint: runs at different effective strengths never share a
    /// cache.
    pub symmetry: Symmetry,
}

impl ExploreConfig {
    /// Defaults for checking the paper's algorithm: extended model, round
    /// cap `n + 1`, Theorem 1 bound, a generous state budget.  Honors
    /// the `TWOSTEP_SYMMETRY` env override (`off` / `full`) so operators
    /// can flip symmetry reduction without recompiling; explicit callers
    /// (the bench harness runs both modes in one process) just assign
    /// [`ExploreConfig::symmetry`] after construction.
    pub fn for_crw(system: &SystemConfig) -> Self {
        ExploreConfig {
            model: ModelKind::Extended,
            max_rounds: system.n() as u32 + 1,
            max_states: 5_000_000,
            round_bound: Some(RoundBound::FPlus(1)),
            spec: SpecMode::Uniform,
            max_crashes_per_round: None,
            symmetry: symmetry_from_env(),
        }
    }

    /// The same exploration under the Theorem 3 adversary: at most one
    /// crash in each round.
    pub fn theorem3(system: &SystemConfig) -> Self {
        ExploreConfig {
            max_crashes_per_round: Some(1),
            ..Self::for_crw(system)
        }
    }
}

/// Engine options: how many workers walk the space, how finely the memo
/// table is sharded, and how the memo tiers between RAM and disk.
///
/// `threads = 1` *is* the serial engine — there is no separate code path —
/// and any thread count and any [`MemoConfig`] produce bit-identical
/// reports whenever the [`ExploreConfig::max_states`] safety valve is not
/// exhausted (see the module docs for the determinism argument and the
/// budget carve-out).
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Worker threads ([`twostep_sim::default_threads`] by default, which
    /// honors the `TWOSTEP_THREADS` env override; min 1).
    pub threads: usize,
    /// Memo shards (power of two recommended; min 1).  More shards mean
    /// less lock contention and slightly more per-lookup overhead.
    pub shards: usize,
    /// Memo tiering: all-RAM by default; a finite
    /// [`MemoConfig::hot_capacity`] spills cold entries to disk so the
    /// reachable `(n, t)` stops being bounded by RAM.
    pub memo: MemoConfig,
    /// Depth-aware donation policy: a configuration donates child
    /// subtrees to idle workers only while its round is `<=` this cutoff
    /// (`None` = donate at any depth, the historical behavior).  Shallow
    /// subtrees are the big ones, so a small cutoff keeps the
    /// work-sharing benefit while avoiding donation overhead (one extra
    /// `step` per donated child) deep in the tree, where subtrees are
    /// tiny and mostly memoized anyway.  Defaults to the
    /// `TWOSTEP_DONATE_DEPTH` env var when set; results are identical
    /// under every policy — only load balance changes.
    pub donate_depth: Option<u32>,
    /// Persistent result cache ([`crate::cache`]): `Some` pre-seeds the
    /// memo from the cache directory when its fingerprint matches this
    /// run (warm-started walks short-circuit on every memoized subtree)
    /// and, in [`CacheMode::ReadWrite`](crate::CacheMode::ReadWrite),
    /// commits newly discovered entries back as a delta segment.
    /// Defaults to the `TWOSTEP_CACHE_DIR` env var when set (ReadWrite);
    /// results are identical with and without a cache — only speed
    /// changes.
    pub cache: Option<CacheConfig>,
    /// Per-walk preemption budget enforced by the frame-stepped driver
    /// (see the module docs).  An exhausted budget suspends the walk:
    /// under a ReadWrite [`cache`](Self::cache) the partial memo is
    /// committed there for resume; either way the call returns
    /// [`ExploreError::Interrupted`].  Defaults to the
    /// `TWOSTEP_MAX_STEPS` / `TWOSTEP_DEADLINE_MS` env vars when set
    /// ([`budget_from_env`]); unlimited otherwise.  Results are
    /// identical under every budget — an interrupted-then-resumed chain
    /// converges to the uninterrupted report.
    pub budget: WalkBudget,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            threads: default_threads(),
            shards: 64,
            memo: MemoConfig::all_ram(),
            donate_depth: donate_depth_from_env(),
            cache: crate::cache::cache_from_env(),
            budget: budget_from_env(),
        }
    }
}

impl ExploreOptions {
    /// The serial engine: one walker, one shard.
    pub fn serial() -> Self {
        ExploreOptions {
            threads: 1,
            shards: 1,
            memo: MemoConfig::all_ram(),
            donate_depth: None,
            cache: None,
            budget: WalkBudget::unlimited(),
        }
    }

    /// A parallel engine with an explicit worker count.
    pub fn with_threads(threads: usize) -> Self {
        ExploreOptions {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// The same engine with an explicit memo tier configuration.
    pub fn with_memo(self, memo: MemoConfig) -> Self {
        ExploreOptions { memo, ..self }
    }

    /// The same engine with an explicit donation-depth cutoff.
    pub fn with_donate_depth(self, donate_depth: Option<u32>) -> Self {
        ExploreOptions {
            donate_depth,
            ..self
        }
    }

    /// The same engine with an explicit persistent-cache configuration.
    pub fn with_cache(self, cache: Option<CacheConfig>) -> Self {
        ExploreOptions { cache, ..self }
    }

    /// The same engine with an explicit per-walk budget.
    pub fn with_budget(self, budget: WalkBudget) -> Self {
        ExploreOptions { budget, ..self }
    }
}

/// Resolves the `TWOSTEP_DONATE_DEPTH` donation cutoff from the
/// environment — unset means "donate at any depth".  Same policy as
/// `TWOSTEP_THREADS`: a set-but-unparseable value is never silently
/// ignored (one-time stderr warning, then the default).
fn donate_depth_from_env() -> Option<u32> {
    let raw = std::env::var("TWOSTEP_DONATE_DEPTH").ok()?;
    match raw.trim().parse::<u32>() {
        Ok(depth) => Some(depth),
        Err(_) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "twostep: TWOSTEP_DONATE_DEPTH={raw:?} is not a round number; \
                     donating at any depth"
                )
            });
            None
        }
    }
}

/// Resolves the `TWOSTEP_SYMMETRY` mode override from the environment —
/// unset means [`Symmetry::Off`].  Same policy as `TWOSTEP_THREADS`: a
/// set-but-unrecognized value is never silently ignored (one-time stderr
/// warning, then the default).
fn symmetry_from_env() -> Symmetry {
    let Ok(raw) = std::env::var("TWOSTEP_SYMMETRY") else {
        return Symmetry::Off;
    };
    match Symmetry::parse_token(&raw) {
        Some(mode) => mode,
        None => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "twostep: TWOSTEP_SYMMETRY={raw:?} is not \"off\", \"full\", \
                     \"partial\", or \"partial+value\"; symmetry reduction stays off"
                )
            });
            Symmetry::Off
        }
    }
}

/// Declarative per-walk budget enforced by the frame-stepped driver via
/// [`BudgetArbiter`] (see the module docs' *Frame-stepped core* section).
/// `None` everywhere (the [`WalkBudget::unlimited`] default) never
/// suspends; any `Some` limit suspends the walk with
/// [`ExploreError::Interrupted`] once exhausted *and* at least one fresh
/// configuration has been memoized this session (the min-progress
/// guarantee that makes resume chains terminate).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalkBudget {
    /// Maximum `step()` calls for this walk (`None` = unlimited).  A
    /// step is one configuration entry or one frame pop, so this bounds
    /// work, not states: memo hits count too.
    pub max_steps: Option<u64>,
    /// Wall-clock deadline measured from the start of the exploration
    /// call (`None` = unlimited).  Checked cooperatively once per step —
    /// overshoot is at most one configuration expansion.
    pub deadline: Option<Duration>,
    /// Approximate memo footprint ceiling in bytes (`None` = unlimited);
    /// key bytes plus a flat per-record overhead, monotone over a run.
    pub max_memo_bytes: Option<u64>,
    /// Emit a cooperative [`StepVerdict::Yield`] every this many steps
    /// (`None` = never).  The built-in drivers map it to
    /// `thread::yield_now`; a scheduling server can park the walk
    /// instead.  Results are unaffected.
    pub yield_every: Option<u64>,
}

impl WalkBudget {
    /// No limits: the walk runs to completion (the historical behavior).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is unset.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::default()
    }
}

/// Which [`WalkBudget`] limit a refusal or [`ExploreError::Interrupted`]
/// is attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`WalkBudget::max_steps`] exhausted.
    Steps,
    /// [`WalkBudget::deadline`] passed.
    Deadline,
    /// [`WalkBudget::max_memo_bytes`] exceeded.
    MemoBytes,
    /// The [`ExploreConfig::max_states`] distinct-state budget — a
    /// suspension only under a ReadWrite cache, which keeps the memo.
    States,
}

impl std::fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Deadline => "deadline",
            BudgetKind::MemoBytes => "memo-bytes",
            BudgetKind::States => "states",
        })
    }
}

/// Progress snapshot handed to an [`Arbiter`] after every step.
#[derive(Clone, Copy, Debug)]
pub struct StepProgress {
    /// Steps performed by this walk so far (monotone).
    pub steps: u64,
    /// Current DFS stack depth — frames awaiting completion.
    pub frontier_len: usize,
    /// Distinct configurations memoized across the whole exploration
    /// (all walkers), including cache seeds.
    pub distinct_states: usize,
    /// Approximate memo footprint in bytes (see
    /// [`WalkBudget::max_memo_bytes`]).
    pub memo_bytes: u64,
}

/// An [`Arbiter`]'s answer for one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepVerdict {
    /// Keep stepping.
    Allow,
    /// Cooperative scheduling point: the driver may deschedule the walk
    /// and step again later; nothing about the walk changes.
    Yield,
    /// A budget is exhausted: the driver should suspend the walk
    /// (honored after the min-progress guarantee, see [`WalkBudget`]).
    Refuse(BudgetKind),
}

/// Policy hook consulted by a frame-stepped driver after every `step()`
/// — the "arbiter" of the one-step-per-call law: the walker does one
/// bounded unit, the arbiter says Allow/Yield/Refuse, the driver owns
/// the loop.  Implementations must be cheap (called once per step on
/// the hot path) and need not be deterministic: verdicts affect only
/// *when* a walk suspends, never its result.
pub trait Arbiter {
    /// Verdict for the step that just completed.
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict;
}

/// The trivial arbiter: always [`StepVerdict::Allow`].  Stealer threads
/// and distributed workers drive with this — suspension is the primary
/// (root) driver's decision.
pub struct Unbounded;

impl Arbiter for Unbounded {
    fn inspect(&mut self, _progress: &StepProgress) -> StepVerdict {
        StepVerdict::Allow
    }
}

/// The built-in arbiter enforcing a [`WalkBudget`] against a fixed start
/// instant.
pub struct BudgetArbiter {
    budget: WalkBudget,
    started: Instant,
}

impl BudgetArbiter {
    /// An arbiter whose deadline clock starts now.
    pub fn new(budget: WalkBudget) -> Self {
        Self::from_start(budget, Instant::now())
    }

    /// An arbiter measuring [`WalkBudget::deadline`] from an earlier
    /// instant — e.g. the entry into a multi-phase pipeline, so seed and
    /// worker phases count against the same clock.
    pub fn from_start(budget: WalkBudget, started: Instant) -> Self {
        BudgetArbiter { budget, started }
    }
}

impl Arbiter for BudgetArbiter {
    fn inspect(&mut self, progress: &StepProgress) -> StepVerdict {
        if let Some(max) = self.budget.max_steps {
            if progress.steps >= max {
                return StepVerdict::Refuse(BudgetKind::Steps);
            }
        }
        if let Some(max) = self.budget.max_memo_bytes {
            if progress.memo_bytes >= max {
                return StepVerdict::Refuse(BudgetKind::MemoBytes);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.started.elapsed() >= deadline {
                return StepVerdict::Refuse(BudgetKind::Deadline);
            }
        }
        if let Some(every) = self.budget.yield_every {
            if every > 0 && progress.steps.is_multiple_of(every) {
                return StepVerdict::Yield;
            }
        }
        StepVerdict::Allow
    }
}

/// What one `step()` call did — the uniform envelope every driver loops
/// on.
#[derive(Clone, Copy, Debug)]
pub struct StepResult {
    /// Whether the step pushed a new frame (a configuration expanded),
    /// as opposed to a memo hit, terminal evaluation, or frame pop.
    pub expanded: bool,
    /// DFS stack depth after the step.
    pub frontier_len: usize,
    /// Distinct configurations memoized across the whole exploration.
    pub distinct_states: usize,
    /// Whether and why to keep stepping.
    pub status: StepStatus,
}

/// Driver-facing status of a stepped walk after one `step()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// More work remains; step again.
    Running,
    /// Every root's subtree is fully memoized; the walk is complete.
    Done,
    /// The arbiter requested a cooperative yield; step again whenever
    /// convenient.
    Yielded,
    /// The arbiter refused further work: the named budget is exhausted
    /// and the driver should suspend the walk.
    Refused(BudgetKind),
}

/// Pure resolver for `TWOSTEP_MAX_STEPS`: `None` in = unset = no limit;
/// a non-numeric value yields `(None, Some(warning))` — same policy as
/// `TWOSTEP_THREADS` (never silently ignored).  `0` is accepted: the
/// min-progress guarantee still advances one fresh state per session.
fn resolve_max_steps(raw: Option<&str>) -> (Option<u64>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    match raw.trim().parse::<u64>() {
        Ok(steps) => (Some(steps), None),
        Err(_) => (
            None,
            Some(format!(
                "twostep: TWOSTEP_MAX_STEPS={raw:?} is not a step count; walks are unbounded"
            )),
        ),
    }
}

/// Pure resolver for `TWOSTEP_DEADLINE_MS` (milliseconds), same policy
/// as [`resolve_max_steps`].
fn resolve_deadline_ms(raw: Option<&str>) -> (Option<Duration>, Option<String>) {
    let Some(raw) = raw else {
        return (None, None);
    };
    match raw.trim().parse::<u64>() {
        Ok(ms) => (Some(Duration::from_millis(ms)), None),
        Err(_) => (
            None,
            Some(format!(
                "twostep: TWOSTEP_DEADLINE_MS={raw:?} is not a millisecond count; \
                 walks have no deadline"
            )),
        ),
    }
}

/// Resolves the default [`WalkBudget`] from the `TWOSTEP_MAX_STEPS` /
/// `TWOSTEP_DEADLINE_MS` env vars — unset means unlimited.  Same policy
/// as `TWOSTEP_THREADS`: a set-but-unparseable value is never silently
/// ignored (one-time stderr warning each, then the default).
pub fn budget_from_env() -> WalkBudget {
    let (max_steps, steps_warning) =
        resolve_max_steps(std::env::var("TWOSTEP_MAX_STEPS").ok().as_deref());
    if let Some(warning) = steps_warning {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| eprintln!("{warning}"));
    }
    let (deadline, deadline_warning) =
        resolve_deadline_ms(std::env::var("TWOSTEP_DEADLINE_MS").ok().as_deref());
    if let Some(warning) = deadline_warning {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| eprintln!("{warning}"));
    }
    WalkBudget {
        max_steps,
        deadline,
        ..WalkBudget::unlimited()
    }
}

/// Errors aborting an exploration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ExploreError {
    /// The distinct-state budget was exhausted.
    StateLimit {
        /// The configured budget.
        budget: usize,
    },
    /// The engine rejected a step (e.g. control messages under classic
    /// semantics).
    Engine(SimError),
    /// The disk tier of the memo failed (segment I/O, a corrupt or
    /// foreign segment file).
    Spill {
        /// What failed, human-readable.
        detail: String,
    },
    /// A distributed-exploration worker failed every launch attempt
    /// (see [`crate::dist`]).
    Worker {
        /// The frontier partition whose worker could not be completed.
        partition: usize,
        /// The last attempt's failure, human-readable.
        detail: String,
    },
    /// The distributed coordinator itself failed before or while
    /// orchestrating workers (e.g. it cannot locate its own binary for
    /// re-exec) — distinct from [`ExploreError::Worker`] so operators
    /// don't chase a worker that never launched.
    Coordinator {
        /// What failed, human-readable.
        detail: String,
    },
    /// The walk was suspended by an exhausted [`WalkBudget`] limit (or a
    /// `StateLimit` abort under a ReadWrite cache).  Not a failure: when
    /// [`cache`](Self::Interrupted::cache) is `Some`, re-running the
    /// identical exploration over that cache directory warm-starts from
    /// the committed partial memo and converges to the uninterrupted
    /// report.
    Interrupted {
        /// Which budget suspended the walk.
        reason: BudgetKind,
        /// Cache directory the partial memo was committed to (`None`: no
        /// ReadWrite cache configured, or the commit failed — reported
        /// loudly on stderr).
        cache: Option<PathBuf>,
        /// Distinct configurations memoized at suspension — all of them
        /// committed to the cache.
        states: usize,
    },
    /// A deliberately injected failure from the fault harness
    /// ([`crate::faults`]) — only ever produced under an armed
    /// `FaultPlan`, and distinguished so supervision tests can tell
    /// injected chaos from a genuine defect.
    Injected {
        /// Which fault fired, human-readable.
        detail: String,
    },
}

impl From<SpillError> for ExploreError {
    fn from(e: SpillError) -> Self {
        ExploreError::Spill {
            detail: e.to_string(),
        }
    }
}

impl std::fmt::Display for ExploreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExploreError::StateLimit { budget } => {
                write!(f, "exploration exceeded the {budget}-state budget")
            }
            ExploreError::Engine(e) => write!(f, "engine error during exploration: {e}"),
            ExploreError::Spill { detail } => {
                write!(f, "memo spill failure during exploration: {detail}")
            }
            ExploreError::Worker { partition, detail } => {
                write!(
                    f,
                    "partition {partition} worker failed every attempt: {detail}"
                )
            }
            ExploreError::Coordinator { detail } => {
                write!(f, "distributed coordinator failure: {detail}")
            }
            ExploreError::Interrupted {
                reason,
                cache,
                states,
            } => {
                write!(
                    f,
                    "exploration suspended ({reason} budget exhausted) after {states} \
                     distinct states; "
                )?;
                match cache {
                    Some(dir) => write!(f, "resumable from cache {}", dir.display()),
                    None => f.write_str("no read-write cache, partial work discarded"),
                }
            }
            ExploreError::Injected { detail } => {
                write!(f, "injected fault: {detail}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Memoized summary of everything reachable from one configuration.
///
/// Under a spilling memo ([`MemoConfig`]) summaries round-trip through
/// the compact binary record of [`crate::spill`]; equality is derived so
/// the round-trip (and the spill-vs-RAM differential suite) can assert
/// identity directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Summary<O> {
    /// Terminal executions in the subtree.
    pub terminals: u64,
    /// `worst_round_by_f[f]` = the latest decision round over all subtree
    /// terminals whose total crash count is `f` (`None` = no such terminal
    /// or no decision in it).
    pub worst_round_by_f: Vec<Option<u32>>,
    /// Distinct values decided somewhere in the subtree — the
    /// configuration's valency.
    pub decided: Vec<O>,
    /// Whether some terminal in the subtree violates the spec.
    pub violating: bool,
}

impl<O: Clone + Eq> Summary<O> {
    fn empty(t: usize) -> Self {
        Summary {
            terminals: 0,
            worst_round_by_f: vec![None; t + 1],
            decided: Vec::new(),
            violating: false,
        }
    }

    fn absorb(&mut self, child: &Summary<O>) {
        self.terminals += child.terminals;
        for (mine, theirs) in self
            .worst_round_by_f
            .iter_mut()
            .zip(&child.worst_round_by_f)
        {
            *mine = match (*mine, *theirs) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
        for v in &child.decided {
            if !self.decided.contains(v) {
                self.decided.push(v.clone());
            }
        }
        self.violating |= child.violating;
    }

    /// Whether at least two different values are reachable — the
    /// configuration is *bivalent* in the sense of the paper's Section 5.
    pub fn is_bivalent(&self) -> bool {
        self.decided.len() >= 2
    }
}

/// Encodes `stepper`'s configuration into its **canonical key bytes**,
/// reusing `out` (cleared first) — the hot-path replacement for the old
/// structured key clone: no per-process snapshot is cloned, no `Vec` of
/// snapshots is built, and in steady state no allocation happens at all
/// (the buffer is walker-local and reused across configurations).
///
/// Layout (self-delimiting, decoded by
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) on the cold
/// witness path): `round: u32`, `process count: u32`, then per process a
/// tag byte — `0` active + protocol encoding, `1` decided + value +
/// round, `2` crashed + optional `(value, round)`.  Byte equality of two
/// keys coincides with structural equality of the configurations because
/// every component encoding is canonical (see
/// [`CheckableProtocol::fingerprint`]).
pub(crate) fn make_key_into<P>(stepper: &Stepper<P>, out: &mut Vec<u8>)
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    out.clear();
    stepper.round().get().encode(out);
    (stepper.procs().len() as u32).encode(out);
    for ((status, proc), decision) in stepper
        .status()
        .iter()
        .zip(stepper.procs())
        .zip(stepper.decisions())
    {
        match status {
            ProcStatus::Active => {
                out.push(0);
                proc.encode(out);
            }
            settled => encode_settled_record(settled, decision, false, out),
        }
    }
}

/// Appends the key record of one **settled** (decided or crashed)
/// process: tag `1` decided + value + round, or tag `2` crashed +
/// optional `(value, round)`.  Shared by the plain key encoding and the
/// canonical tiers, so a settled process encodes identically whether or
/// not its record is about to be sorted.  With `swap` set, decided
/// values encode their [`SpillCodec::value_swapped`] image — the
/// value-symmetry tier's swapped encoding pass.
fn encode_settled_record<O: SpillCodec>(
    status: &ProcStatus,
    decision: &Option<Decision<O>>,
    swap: bool,
    out: &mut Vec<u8>,
) {
    let encode_value = |v: &O, out: &mut Vec<u8>| {
        if swap {
            v.value_swapped()
                .expect("value-symmetry tier active but a decided value has no swap image")
                .encode(out)
        } else {
            v.encode(out)
        }
    };
    match status {
        ProcStatus::Active => unreachable!("settled records only"),
        ProcStatus::Decided => {
            let d = decision.as_ref().expect("decided process has a decision");
            out.push(1);
            encode_value(&d.value, out);
            d.round.get().encode(out);
        }
        ProcStatus::Crashed(_) => {
            out.push(2);
            match decision {
                None => out.push(0),
                Some(d) => {
                    out.push(1);
                    encode_value(&d.value, out);
                    d.round.get().encode(out);
                }
            }
        }
    }
}

/// The value-swapped twin of an active process state — only called on
/// the value-symmetry tier's swapped encoding pass, where the
/// activation check ([`value_symmetry_applies`]) has already proven the
/// protocol value-symmetric.
fn swapped_proc<P: SpillCodec>(proc: &P) -> P {
    proc.value_swapped()
        .expect("value-symmetry tier active but a process state has no swap image")
}

/// The sorted settled-record bytes of one canonical encoding — the
/// incremental-canonicalization carry.  Settled records are *immutable*
/// (a decision's `(value, round)` and a crash's optional decision never
/// change once written), so a child configuration's settled pool is its
/// parent's pool plus the records settled by this one step; carrying the
/// parent's already-sorted pool lets [`Canonicalizer::sort_from`] sort
/// only the delta and merge.  Records are stored back to back in
/// `bytes`, with `ends[i]` the exclusive end offset of record `i`.
#[derive(Clone, Debug, Default)]
pub(crate) struct CanonSeed {
    bytes: Vec<u8>,
    ends: Vec<u32>,
}

impl CanonSeed {
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn push(&mut self, rec: &[u8]) {
        self.bytes.extend_from_slice(rec);
        self.ends.push(self.bytes.len() as u32);
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.ends.iter().scan(0usize, move |start, &end| {
            let s = *start;
            *start = end as usize;
            Some(&self.bytes[s..end as usize])
        })
    }

    fn copy_from(&mut self, other: &CanonSeed) {
        self.bytes.clear();
        self.bytes.extend_from_slice(&other.bytes);
        self.ends.clear();
        self.ends.extend_from_slice(&other.ends);
    }
}

/// A configuration's seeds for both encodings of the value-symmetry
/// tier: the settled pool sorts differently under the plain and the
/// swapped encoding, so each pass carries its own seed — independent of
/// which encoding won the lexicographic minimum.
#[derive(Clone, Debug, Default)]
pub(crate) struct FrameSeeds {
    plain: CanonSeed,
    swapped: CanonSeed,
}

impl FrameSeeds {
    fn copy_from(&mut self, other: &FrameSeeds) {
        self.plain.copy_from(&other.plain);
        self.swapped.copy_from(&other.swapped);
    }
}

/// Fills `inert[i]` for every process: `true` iff `p_{i+1}` is active
/// and the protocol declares its *rank* inert for the rest of the run
/// ([`SpillCodec::rank_inert`], soundness in the module docs).  One
/// ascending pass: `crash_budget` is the remaining crashes `t − crashed`,
/// and `actives_below` counts the actives `j < i` whose rank `j + 1` is
/// still reachable by the committing frontier (`j + 1 ≥ round`).
/// Computed from the **unswapped** state only — the value involution
/// commutes with the dynamics, so it cannot change rank inertness.
fn compute_inert_flags<P>(stepper: &Stepper<P>, t: usize, inert: &mut Vec<bool>)
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let n = stepper.procs().len();
    let round = stepper.round().get();
    let crashed = stepper
        .status()
        .iter()
        .filter(|s| matches!(s, ProcStatus::Crashed(_)))
        .count();
    let crash_budget = t.saturating_sub(crashed);
    inert.clear();
    inert.resize(n, false);
    let mut running = 0usize;
    for (i, ((flag, status), proc)) in inert
        .iter_mut()
        .zip(stepper.status())
        .zip(stepper.procs())
        .enumerate()
    {
        if matches!(status, ProcStatus::Active) {
            let ctx = SymmetryContext {
                round,
                crash_budget,
                actives_below: running,
            };
            *flag = proc.rank_inert(&ctx);
            if (i as u32 + 1) >= round {
                running += 1;
            }
        }
    }
}

/// Encodes one canonical key at the given tier — the single encoder
/// behind every canonicalizing mode, shared by the walker hot path,
/// witness reconstruction, and the distributed frontier expander, so
/// every engine keys (and therefore hashes, shards, and partitions) a
/// configuration identically.
///
/// * `swap` — encode the value-swapped twin of the configuration (the
///   value-symmetry tier runs this encoder twice and keeps the
///   lexicographically smaller key).
/// * `inert` — per-process rank-inertness flags
///   ([`compute_inert_flags`]); consulted only at
///   [`CanonTier::SettledInert`].
/// * `seed` — the parent configuration's sorted settled pool plus the
///   parent's statuses: the pool is copied pre-sorted, only the records
///   settled since the parent (and the freshly re-encoded inert
///   actives, which *do* mutate) are sorted and merged
///   ([`Canonicalizer::sort_from`]).  `None` falls back to a full sort.
///   Ignored at `FullOrbit`, where active records dominate the pool and
///   mutate every step.
/// * `new_seed` — when present, receives this configuration's own
///   sorted settled pool for its children to seed from.
///
/// Every canonical layout remains a valid key encoding —
/// [`decode_key_prefix`](crate::memo::decode_key_prefix) and the
/// segment key validator accept tags `0`–`3` unchanged.
#[allow(clippy::too_many_arguments)]
fn tier_key_into<P>(
    stepper: &Stepper<P>,
    tier: CanonTier,
    swap: bool,
    inert: &[bool],
    seed: Option<(&CanonSeed, &[ProcStatus])>,
    canon: &mut Canonicalizer,
    out: &mut Vec<u8>,
    new_seed: Option<&mut CanonSeed>,
) where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    debug_assert!(tier != CanonTier::Raw, "raw keys take make_key_into");
    out.clear();
    stepper.round().get().encode(out);
    (stepper.procs().len() as u32).encode(out);
    canon.begin();
    let mut prefix = 0usize;
    match tier {
        CanonTier::Raw => unreachable!(),
        CanonTier::FullOrbit => {
            for ((status, proc), decision) in stepper
                .status()
                .iter()
                .zip(stepper.procs())
                .zip(stepper.decisions())
            {
                let rec = canon.record();
                match status {
                    ProcStatus::Active => {
                        rec.push(0);
                        if swap {
                            swapped_proc(&**proc).encode_relabelled(0, rec);
                        } else {
                            proc.encode_relabelled(0, rec);
                        }
                    }
                    settled => encode_settled_record(settled, decision, swap, rec),
                }
            }
        }
        CanonTier::Settled | CanonTier::SettledInert => {
            if let Some((seed, parent_status)) = seed {
                for rec in seed.iter() {
                    canon.record().extend_from_slice(rec);
                }
                prefix = seed.len();
                // Only the records settled since the parent are new;
                // everything settled earlier arrived pre-sorted above.
                for (i, (status, decision)) in
                    stepper.status().iter().zip(stepper.decisions()).enumerate()
                {
                    if !matches!(status, ProcStatus::Active)
                        && matches!(parent_status[i], ProcStatus::Active)
                    {
                        encode_settled_record(status, decision, swap, canon.record());
                    }
                }
            } else {
                for (status, decision) in stepper.status().iter().zip(stepper.decisions()) {
                    if !matches!(status, ProcStatus::Active) {
                        encode_settled_record(status, decision, swap, canon.record());
                    }
                }
            }
            if tier == CanonTier::SettledInert {
                // Inert actives mutate between steps — always re-encoded
                // fresh (tag 3, owner-stripped), never carried in a seed.
                for (i, proc) in stepper.procs().iter().enumerate() {
                    if inert[i] {
                        let rec = canon.record();
                        rec.push(3);
                        if swap {
                            swapped_proc(&**proc).encode_relabelled(0, rec);
                        } else {
                            proc.encode_relabelled(0, rec);
                        }
                    }
                }
            }
        }
    }
    canon.sort_from(prefix);
    match tier {
        CanonTier::Raw => unreachable!(),
        CanonTier::FullOrbit => {
            for (pos, (orig, bytes)) in canon.iter_sorted().enumerate() {
                if bytes.first() == Some(&0) {
                    out.push(0);
                    if swap {
                        swapped_proc(&*stepper.procs()[orig]).encode_relabelled(pos, out);
                    } else {
                        stepper.procs()[orig].encode_relabelled(pos, out);
                    }
                } else {
                    out.extend_from_slice(bytes);
                }
            }
        }
        CanonTier::Settled | CanonTier::SettledInert => {
            let mut pooled = canon.iter_sorted();
            for (i, (status, proc)) in stepper.status().iter().zip(stepper.procs()).enumerate() {
                let true_active = matches!(status, ProcStatus::Active)
                    && !(tier == CanonTier::SettledInert && inert[i]);
                if true_active {
                    out.push(0);
                    if swap {
                        swapped_proc(&**proc).encode(out);
                    } else {
                        proc.encode(out);
                    }
                } else {
                    let (_, bytes) = pooled
                        .next()
                        .expect("one pooled record per non-true-active slot");
                    out.extend_from_slice(bytes);
                }
            }
            debug_assert!(pooled.next().is_none(), "pooled records exceed slots");
        }
    }
    if let Some(ns) = new_seed {
        ns.clear();
        if tier != CanonTier::FullOrbit {
            for (_, bytes) in canon.iter_sorted() {
                if bytes.first() != Some(&3) {
                    ns.push(bytes);
                }
            }
        }
    }
}

/// The result of a completed exploration.
#[derive(Clone, Debug)]
pub struct ExploreReport<O> {
    /// Distinct configurations visited.
    pub distinct_states: usize,
    /// Distinct configurations answered by the persistent cache (or
    /// distributed seed) instead of being explored: `0` on a cold run,
    /// equal to [`distinct_states`](Self::distinct_states) on a fully
    /// warm one.  Purely informational — the exploration *result* is
    /// identical with and without a cache.
    pub cache_hits: usize,
    /// Distinct configurations this run actually had to explore:
    /// `distinct_states - cache_hits`.
    pub fresh_states: usize,
    /// Root summary: terminals, worst rounds per `f`, valency, violations.
    pub root: Summary<O>,
    /// Per-round configuration census: `(round, configs, bivalent configs)`
    /// over all memoized configurations, ascending by round.  This is the
    /// empirical bivalency table of experiment E5.
    pub bivalency_by_round: Vec<(u32, usize, usize)>,
    /// A concrete violating schedule, if any terminal violated the spec:
    /// the crash points along one violating path plus the violations found
    /// at its terminal.
    pub witness: Option<Witness<O>>,
}

/// A reconstructed counterexample.
#[derive(Clone, Debug)]
pub struct Witness<O> {
    /// The crash schedule of the violating execution.
    pub schedule: CrashSchedule,
    /// The violations at its terminal.
    pub violations: Vec<SpecViolation<O>>,
    /// The terminal's decision table.
    pub decisions: Vec<Option<Decision<O>>>,
}

/// Exhaustively explores `initial` under every admissible adversary, with
/// the **serial** engine (`ExploreOptions::serial()`).
///
/// `proposals[i]` must be the value `p_{i+1}` proposed (for the validity
/// check).  See [`ExploreConfig`] for limits and [`explore_with`] for the
/// parallel engine (which produces the identical report faster).
///
/// # Examples
///
/// Verifying the paper's algorithm over the complete adversary space of a
/// 3-process system — every crash subset, every data-delivery subset,
/// every commit prefix — and reading off the exact Theorem 1/4 worst case:
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{SpecMode, explore, ExploreConfig};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let report = explore(
///     system,
///     ExploreConfig::for_crw(&system),
///     crw_processes(&system, &proposals),
///     proposals,
/// )
/// .unwrap();
///
/// assert!(!report.root.violating);                     // spec holds everywhere
/// assert_eq!(report.root.worst_round_by_f[2], Some(3)); // worst = f+1, exactly
/// assert!(report.root.is_bivalent());                  // §5's starting point
/// ```
pub fn explore<P>(
    system: SystemConfig,
    config: ExploreConfig,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    explore_with(system, config, ExploreOptions::serial(), initial, proposals)
}

/// Exhaustively explores `initial` under every admissible adversary with
/// an explicit engine configuration.
///
/// The report is bit-identical for every [`ExploreOptions`]; `threads > 1`
/// only changes how fast it is produced.
///
/// # Examples
///
/// ```
/// use twostep_core::crw_processes;
/// use twostep_model::{SystemConfig, WideValue};
/// use twostep_modelcheck::{explore_with, ExploreConfig, ExploreOptions};
///
/// let system = SystemConfig::new(3, 2).unwrap();
/// let proposals: Vec<WideValue> =
///     (0..3).map(|i| WideValue::new(1, i as u64 % 2)).collect();
/// let parallel = explore_with(
///     system,
///     ExploreConfig::for_crw(&system),
///     ExploreOptions::with_threads(4),
///     crw_processes(&system, &proposals),
///     proposals.clone(),
/// )
/// .unwrap();
/// assert!(!parallel.root.violating);
/// assert_eq!(parallel.root.worst_round_by_f[2], Some(3));
/// ```
pub fn explore_with<P>(
    system: SystemConfig,
    config: ExploreConfig,
    options: ExploreOptions,
    initial: Vec<P>,
    proposals: Vec<P::Output>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    // The deadline clock starts before seeding: the budget bounds the
    // whole call, not just the walk.
    let started = Instant::now();
    // Fingerprint before `initial` moves into the stepper; a stale or
    // absent cache is reported (loudly) by the session and ignored.
    let fingerprint = crate::cache::run_fingerprint(system, &config, &initial, &proposals);
    let mut session = CacheSession::open(options.cache.clone(), fingerprint);
    let root_stepper = Stepper::new(system, config.model, TraceLevel::Off, initial.clone())
        .map_err(ExploreError::Engine)?;
    let mut shared = Shared::new(system, config, &options, &proposals, initial)?;
    if session
        .seed(&shared.memo, crate::memo::key_validator::<P>())
        .is_none()
    {
        // Broken cache: discard the partial seed (a fresh memo) and run
        // cold; the session is now stale, so a ReadWrite commit replaces
        // the broken cache with this run's full image.
        let initial = std::mem::take(&mut shared.initial);
        shared = Shared::new(system, config, &options, &proposals, initial)?;
    }
    // Crash-safety autosave commits through the same session, so it
    // needs a cache that commits at all.
    let autosave_every = options
        .cache
        .as_ref()
        .and_then(|cache| cache.autosave_every)
        .filter(|_| session.writable());
    let outcome = walk_roots(
        &shared,
        options.threads,
        vec![root_stepper],
        &options.budget,
        started,
        autosave_every.map(|every| Autosave {
            session: Mutex::new(&mut session),
            every: every.max(1),
        }),
    );
    match outcome {
        Ok(WalkOutcome::Done(mut summaries)) => {
            let root = summaries.pop().expect("one root, one summary");
            let report = build_report(&shared, root)?;
            session.commit(&shared.memo);
            Ok(report)
        }
        Ok(WalkOutcome::Suspended { reason }) => Err(suspend(&shared, &mut session, reason)),
        // A `StateLimit` abort keeps its partial work when there is a
        // ReadWrite cache to commit it to — every memoized state survives
        // for a rerun with a raised valve.  Without one the historical
        // error is preserved exactly.
        Err(ExploreError::StateLimit { .. }) if session.writable() => {
            Err(suspend(&shared, &mut session, BudgetKind::States))
        }
        Err(error) => Err(error),
    }
}

/// Commits the suspended walk's memo to the session's cache (a no-op
/// without a ReadWrite one) and builds the [`ExploreError::Interrupted`]
/// to return.  The exploration is quiescent here: every walker joined
/// before [`walk_roots`] returned, so the memo image is
/// descendant-closed (inserts happen only at frame pop / terminal
/// entry) and resuming from it is a plain warm start.
pub(crate) fn suspend<P>(
    shared: &Shared<'_, P>,
    session: &mut CacheSession,
    reason: BudgetKind,
) -> ExploreError
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    ExploreError::Interrupted {
        reason,
        cache: session.commit(&shared.memo),
        states: shared.memo.len(),
    }
}

/// Periodic crash-safety commits for [`walk_roots`]
/// ([`CacheConfig::autosave_every`]): at `Yield` points, once at least
/// `every` steps have passed since the last save, the walk's memo is
/// committed through `session`, which rewrites its one delta segment.
///
/// Only honored on single-threaded walks: with stealers running, a
/// mid-walk export scan can race a concurrent insert across shards (a
/// parent landing in a later-scanned shard after its child's shard was
/// scanned) and break the descendant-closure a warm start relies on.
/// A one-walker memo is trivially quiescent at every step boundary.
pub(crate) struct Autosave<'s> {
    pub(crate) session: Mutex<&'s mut CacheSession>,
    pub(crate) every: u64,
}

/// How a [`walk_roots`] call ended when no error occurred.
pub(crate) enum WalkOutcome<O> {
    /// Every root fully memoized: one summary per root, in order.
    Done(Vec<Arc<Summary<O>>>),
    /// The budget arbiter suspended the walk after it made fresh
    /// progress.  The memo holds a descendant-closed partial image; the
    /// caller decides whether to commit it.
    Suspended {
        /// Which budget limit was exhausted.
        reason: BudgetKind,
    },
}

/// Walks every subtree in `roots` (in order, each fully memoized) with
/// `threads` work-sharing walkers, returning one summary per root.
///
/// This is the extracted walker core: the roots may be *any*
/// configurations — the canonical initial configuration
/// ([`explore_with`]), or a batch of frontier subtree roots assigned to
/// one distributed worker ([`crate::dist`]) — and the memo inside
/// `shared` may be pre-seeded with summaries computed elsewhere; a walk
/// simply finds those subtrees already answered.
///
/// The primary walker is driven one step at a time through a
/// [`BudgetArbiter`] over `budget` (deadline measured from `started`):
/// a refusal — once the walk has memoized at least one fresh
/// configuration — halts every walker and returns
/// [`WalkOutcome::Suspended`].  Pass [`WalkBudget::unlimited`] for the
/// historical run-to-completion behavior.
pub(crate) fn walk_roots<P>(
    shared: &Shared<'_, P>,
    threads: usize,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    type Slot<O> = Mutex<Option<Result<WalkOutcome<O>, Interrupt>>>;
    let threads = threads.max(1);
    // Autosave is a single-threaded feature (see [`Autosave`]); a
    // multi-walker run silently degrades to committing only at the end
    // rather than risking a non-descendant-closed image.
    let autosave = autosave.filter(|_| threads == 1);
    let result_slot: Slot<P::Output> = Mutex::new(None);
    // Handed to worker 0 through a mutex so the closure only needs the
    // steppers to be `Send`, not `Sync`.
    let root_handoff = Mutex::new(Some(roots));

    run_on_workers(threads, |worker| {
        if worker == 0 {
            // Primary walker: canonical walk of every root, in order, on
            // the calling thread.  Close the queue however we exit
            // (including by panic), so stealers never block forever.
            let _closer = QueueCloser(&shared.queue);
            let roots = root_handoff
                .lock()
                .expect("root handoff poisoned")
                .take()
                .expect("roots taken once");
            let mut walker = Walker::new(shared);
            let outcome = drive_primary(&mut walker, roots, budget, started, autosave.as_ref());
            *result_slot.lock().expect("result slot poisoned") = Some(outcome);
        } else {
            // Stealer: drain donated subtrees into the shared memo,
            // stepping unbounded — suspension is the primary's call; a
            // suspending primary halts stealers through the stop flag
            // exactly like an abort.  A failing walk already recorded
            // its error and signalled the abort at the failure site
            // (`Shared::fail`), so both interrupt flavors are discarded
            // here.
            let mut walker = Walker::new(shared);
            while let Some(job) = shared.queue.pop_wait() {
                let mut stepped = StepWalker::new(&mut walker, vec![job]);
                loop {
                    match stepped.step(&mut Unbounded) {
                        Ok(step) if step.status == StepStatus::Done => break,
                        Ok(_) => {}
                        Err(Interrupt::Stopped) | Err(Interrupt::Failed(_)) => break,
                    }
                }
            }
        }
    });

    match result_slot
        .into_inner()
        .expect("result slot poisoned")
        .expect("primary walker always reports")
    {
        Ok(outcome) => Ok(outcome),
        Err(Interrupt::Failed(error)) => Err(error),
        Err(Interrupt::Stopped) => {
            // The primary walker only observes a stop signal when a
            // stealer recorded a failure first.
            Err(shared
                .failure
                .lock()
                .expect("failure slot poisoned")
                .clone()
                .expect("stop without failure"))
        }
    }
}

/// The primary driver loop: steps the walk under a [`BudgetArbiter`],
/// yielding cooperatively and honoring refusals only after fresh
/// progress (the min-progress guarantee — resuming at `max_steps = 0`
/// still memoizes at least one new configuration per session, so a
/// resume chain terminates in at most `distinct_states` sessions).
fn drive_primary<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<Stepper<P>>,
    budget: &WalkBudget,
    started: Instant,
    autosave: Option<&Autosave<'_>>,
) -> Result<WalkOutcome<P::Output>, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let shared = walker.shared;
    // Fresh-progress baseline: everything memoized before this walk
    // (cache seeds, earlier phases) doesn't count.
    let baseline = shared.memo.len();
    // Autosave parks at `Yield` verdicts, so an autosaving walk with no
    // explicit yield cadence gets one derived from its save interval.
    let mut effective = budget.clone();
    if let Some(save) = autosave {
        if effective.yield_every.is_none() {
            effective.yield_every = Some(save.every);
        }
    }
    let mut arbiter = BudgetArbiter::from_start(effective, started);
    let mut stepped = StepWalker::new(walker, roots);
    let mut steps = 0u64;
    let mut last_saved = 0u64;
    loop {
        let step = stepped.step(&mut arbiter)?;
        steps += 1;
        match step.status {
            StepStatus::Running => {}
            StepStatus::Done => return Ok(WalkOutcome::Done(stepped.into_summaries())),
            StepStatus::Yielded => {
                if let Some(save) = autosave {
                    if steps - last_saved >= save.every && step.distinct_states > baseline {
                        save.session
                            .lock()
                            .expect("autosave session poisoned")
                            .commit(&shared.memo);
                        last_saved = steps;
                    }
                }
                std::thread::yield_now()
            }
            StepStatus::Refused(reason) => {
                if step.distinct_states > baseline {
                    // Halt stealers mid-subtree (their completed inserts
                    // are closed; partial frames are discarded) and
                    // report the suspension once they join.
                    shared.halt();
                    return Ok(WalkOutcome::Suspended { reason });
                }
                // No fresh state memoized yet this session: honoring the
                // refusal now would make resume a no-op loop.  Keep
                // stepping until the walk has something to show.
            }
        }
    }
}

/// A subtree root addressed by its *action-index path* from the true
/// initial configuration — the wire form of the elastic frontier.
/// Canonical keys are not invertible (symmetry canonicalization is
/// lossy), so the only faithful way to ship "this exact configuration"
/// between processes is the deterministic action sequence reaching it:
/// index `i` selects `enumerate_action_sets(..)[i]` at each level.
pub(crate) struct PathedRoot<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// `stable_hash64` of the configuration's canonical key.
    pub(crate) hash: u64,
    /// Action indices from the initial configuration to this root.
    pub(crate) path: Vec<u32>,
    /// The reconstructed configuration itself.
    pub(crate) stepper: Stepper<P>,
}

/// One progress observation from [`drive_elastic`], emitted every
/// `yield_every` steps.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ElasticPulse {
    /// Steps performed across every root so far.
    pub(crate) steps: u64,
    /// Harvestable frontier right now: unexplored immediate children on
    /// the DFS stack plus whole roots not yet entered.
    pub(crate) frontier: usize,
    /// Configurations memoized since the walk began (excludes seeds).
    pub(crate) fresh: usize,
}

/// The observer's answer to an [`ElasticPulse`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ElasticVerdict {
    /// Keep walking.
    Continue,
    /// Suspend and hand the remaining frontier back (honored only after
    /// fresh progress — the same min-progress guarantee as
    /// [`drive_primary`], so a preempt chain terminates).
    Preempt,
}

/// How a [`drive_elastic`] walk ended.
pub(crate) enum ElasticOutcome {
    /// Every root fully memoized.  No summaries ride back: every elastic
    /// caller re-derives them through the final replay's memo hits.
    Done,
    /// Preempted: the fresh memo image is complete for every *finished*
    /// subtree, and `frontier` holds the `(hash, path)` of every
    /// not-yet-explored subtree root — harvested unexplored children of
    /// the suspended stack plus the untouched remaining roots.
    /// Partially-explored interior configurations are abandoned; the
    /// final replay recomputes them through memo hits.
    Preempted {
        /// `(canonical-key hash, action-index path)` per remaining root.
        frontier: Vec<(u64, Vec<u32>)>,
    },
}

/// The elastic driver: walks `roots` one at a time (single-threaded),
/// calling `observe` every `yield_every` steps with the current load
/// estimate, and on [`ElasticVerdict::Preempt`] suspends the walk and
/// returns the remaining frontier as `(hash, path)` records.  See the
/// *Elastic distribution* section of the module docs.
pub(crate) fn drive_elastic<P>(
    walker: &mut Walker<'_, '_, P>,
    roots: Vec<PathedRoot<P>>,
    yield_every: u64,
    mut observe: impl FnMut(&ElasticPulse) -> ElasticVerdict,
) -> Result<ElasticOutcome, Interrupt>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let baseline = walker.shared.memo.len();
    let every = yield_every.max(1);
    let mut queue: std::collections::VecDeque<PathedRoot<P>> = roots.into();
    let mut steps = 0u64;
    while let Some(root) = queue.pop_front() {
        let path = root.path;
        let mut stepped = StepWalker::new(walker, vec![root.stepper]);
        loop {
            let step = stepped.step(&mut Unbounded)?;
            steps += 1;
            if step.status == StepStatus::Done {
                break;
            }
            if steps.is_multiple_of(every) {
                let fresh = step.distinct_states.saturating_sub(baseline);
                let pulse = ElasticPulse {
                    steps,
                    frontier: stepped.harvestable() + queue.len(),
                    fresh,
                };
                if observe(&pulse) == ElasticVerdict::Preempt && fresh > 0 {
                    let mut frontier = Vec::new();
                    stepped.harvest_into(&path, &mut frontier)?;
                    frontier.extend(queue.into_iter().map(|r| (r.hash, r.path)));
                    return Ok(ElasticOutcome::Preempted { frontier });
                }
            }
        }
    }
    Ok(ElasticOutcome::Done)
}

/// Post-processing over a completed walk (single-threaded): the
/// bivalency census over every memoized configuration, plus witness
/// reconstruction when the root summary violates.
pub(crate) fn build_report<P>(
    shared: &Shared<'_, P>,
    root: Arc<Summary<P::Output>>,
) -> Result<ExploreReport<P::Output>, ExploreError>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut by_round: HashMap<u32, (usize, usize)> = HashMap::new();
    shared.memo.for_each(|key, summary| {
        // The round is the key encoding's leading field — read it off
        // the bytes, no decode.
        let slot = by_round.entry(key_round(key)).or_insert((0, 0));
        slot.0 += 1;
        if summary.is_bivalent() {
            slot.1 += 1;
        }
    })?;
    let mut bivalency_by_round: Vec<(u32, usize, usize)> =
        by_round.into_iter().map(|(r, (c, b))| (r, c, b)).collect();
    bivalency_by_round.sort_unstable();

    let witness = if root.violating {
        let mut walker = Walker::new(shared);
        Some(walker.reconstruct_witness()?)
    } else {
        None
    };

    let distinct_states = shared.memo.len();
    let cache_hits = shared.memo.seeded_len();
    Ok(ExploreReport {
        distinct_states,
        cache_hits,
        fresh_states: distinct_states - cache_hits,
        root: (*root).clone(),
        bivalency_by_round,
        witness,
    })
}

/// Guard closing the work queue when the primary walker exits its scope,
/// normally or by unwind.
struct QueueCloser<'a, T>(&'a WorkQueue<T>);

impl<T> Drop for QueueCloser<'_, T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Why a walker stopped before finishing its subtree.
#[derive(Clone, Debug)]
pub(crate) enum Interrupt {
    /// A real error: propagate to the caller.
    Failed(ExploreError),
    /// Another worker failed (or the run is over); discard quietly.
    Stopped,
}

/// State shared by every walker of one exploration: the memo, the
/// work-sharing queue, and the abort machinery.  Constructed once per
/// walk; the distributed engine constructs it directly so it can
/// pre-seed [`Self::memo`] before calling [`walk_roots`].
pub(crate) struct Shared<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    pub(crate) system: SystemConfig,
    pub(crate) config: ExploreConfig,
    pub(crate) proposals: &'a [P::Output],
    /// The true (uncanonicalized) initial configuration — witness
    /// reconstruction re-drives real executions from here.  Under
    /// symmetry reduction a memoized round-1 key may be a canonical
    /// *representative* of the initial configuration rather than the
    /// configuration itself, so the initial processes must be kept, not
    /// recovered from key bytes.
    pub(crate) initial: Vec<P>,
    /// The run's resolved symmetry plan ([`Symmetry::plan`]) — computed
    /// once here so the per-visit key path never re-derives type-level
    /// facts or re-checks value-symmetry applicability.
    pub(crate) plan: SymmetryPlan,
    pub(crate) memo: ShardedMemo<P::Output>,
    queue: WorkQueue<Stepper<P>>,
    stop: AtomicBool,
    failure: Mutex<Option<ExploreError>>,
    donate_depth: Option<u32>,
}

impl<'a, P> Shared<'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(
        system: SystemConfig,
        config: ExploreConfig,
        options: &ExploreOptions,
        proposals: &'a [P::Output],
        initial: Vec<P>,
    ) -> Result<Self, ExploreError> {
        let plan = config.symmetry.plan::<P>(proposals);
        Ok(Shared {
            system,
            config,
            proposals,
            initial,
            plan,
            memo: ShardedMemo::new(options.shards, &options.memo)?,
            queue: WorkQueue::new(),
            stop: AtomicBool::new(false),
            failure: Mutex::new(None),
            donate_depth: options.donate_depth,
        })
    }
}

impl<P> Shared<'_, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    /// Whether a configuration at `round` may donate its children to
    /// idle workers under the depth-aware donation policy.
    fn donate_allowed(&self, round: u32) -> bool {
        self.donate_depth.is_none_or(|cutoff| round <= cutoff)
    }

    /// Records the first failure and signals every walker to stop —
    /// **before** the failing walker unwinds: the cancel flag halts peers
    /// at their next configuration entry, and closing the queue wakes
    /// anyone parked in `pop_wait` (the `StateLimit` abort protocol in
    /// the module docs).  Returns the interrupt to propagate, so every
    /// failure site reads `return Err(self.shared.fail(error))`.
    fn fail(&self, error: ExploreError) -> Interrupt {
        let mut slot = self.failure.lock().expect("failure slot poisoned");
        if slot.is_none() {
            *slot = Some(error.clone());
        }
        drop(slot);
        self.stop.store(true, Ordering::Relaxed);
        self.queue.close();
        Interrupt::Failed(error)
    }

    /// Halts every walker *without* recording a failure — the suspension
    /// path: same cancel flag and queue close as [`Self::fail`], so
    /// stealers bail at their next configuration entry and parked
    /// workers wake immediately, but the run is suspended, not failed.
    fn halt(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.queue.close();
    }
}

/// One exploration walker: an explicit DFS stack plus reusable scratch
/// buffers and recycling pools, so the hot enumeration loop performs no
/// per-configuration `Vec` allocation in steady state — not for crash
/// outcomes, not for key bytes, not for action sets.
pub(crate) struct Walker<'s, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    shared: &'s Shared<'a, P>,
    /// Per-active-process crash-outcome buffers, reused across
    /// configurations (`crash_outcomes_into`).
    outcome_bufs: Vec<Vec<CrashStage>>,
    /// Scratch for the canonical key encoding of the configuration being
    /// entered; swapped into the frame (and replaced from `key_pool`)
    /// when the configuration expands.
    key_scratch: Vec<u8>,
    /// Retired frame key buffers, reused for future frames.
    key_pool: Vec<Vec<u8>>,
    /// Retired action-set vectors (outer), reused per expansion.
    actions_pool: Vec<Vec<RoundActions>>,
    /// Retired action rows (inner), refilled via `clone_from` so their
    /// allocations survive recycling.
    row_pool: Vec<RoundActions>,
    /// Reusable index buffer of the configuration's active processes.
    active_buf: Vec<usize>,
    /// Retired steppers, re-forked (`Stepper::fork_from`) for future
    /// children so successor generation reuses their buffers instead of
    /// allocating a full clone per child.
    stepper_pool: Vec<Stepper<P>>,
    /// Reusable plan-shape buffer for `Stepper::peek_plan_shape_into`.
    shape_buf: PlanShape,
    /// Reusable pseudo-schedule for terminal evaluation.
    schedule_buf: CrashSchedule,
    /// Reusable record-sorting scratch for symmetry-reduced keying
    /// (unused when [`ExploreConfig::symmetry`] is off).
    canon: Canonicalizer,
    /// Scratch for the *raw* key bytes that index the raw→canonical
    /// cache (canonicalizing plans only).
    raw_scratch: Vec<u8>,
    /// Scratch for the value-swapped candidate key; the lexicographic
    /// minimum against `key_scratch` decides the canonical key.
    swap_buf: Vec<u8>,
    /// Per-process rank-inertness flags ([`compute_inert_flags`]).
    inert_buf: Vec<bool>,
    /// The just-keyed configuration's own seeds, left here by
    /// [`Walker::canonical_key`] for `enter` to move into the frame —
    /// or, after a cache hit, *deferred*: `seeds_pending_slot` names the
    /// cache slot holding them and [`Walker::take_frame_seeds`] copies
    /// lazily, because most entered configurations hit the memo and
    /// never expand, so an eager per-probe seeds copy was the single
    /// largest cache-hit cost.
    seeds_scratch: FrameSeeds,
    /// Cache slot whose seeds the last [`Walker::canonical_key`] call
    /// resolved but did not copy (cache-hit fast path).  Valid only
    /// until the next `canonical_key` call — `enter` consumes it before
    /// any other key can be computed on this walker.
    seeds_pending_slot: Option<usize>,
    /// Cache slot the last [`Walker::canonical_key`] call hit or wrote
    /// (canonicalizing plans only) — `enter` reads and pins the slot's
    /// resolved real-space summary through it.  Same validity window as
    /// `seeds_pending_slot`.
    last_slot: Option<usize>,
    /// Retired frame seeds, reused for future frames.
    seeds_pool: Vec<FrameSeeds>,
    /// Direct-mapped raw-key → canonical-key cache (the hot-path
    /// memoization of canonicalization itself); empty under raw plans.
    key_cache: Vec<KeyCacheSlot<P::Output>>,
    /// Reusable buffer of a plan's data destinations still active —
    /// deliveries to settled processes are effect-free, so the adversary
    /// enumeration quotients them out (`crash_outcomes_effective_into`).
    live_dests_buf: Vec<ProcessId>,
    /// Reusable buffer of the 1-based control-message counts `k` whose
    /// `k`-th receiver is still active (same effect quotient).
    live_ks_buf: Vec<usize>,
}

/// One slot of the walker-local raw→canonical key cache: a previously
/// canonicalized configuration's raw key bytes (the verification tag —
/// hash equality alone would be unsound under collision), its canonical
/// key and hash, which encoding won the value minimum, and its seeds.
///
/// `real` short-circuits the whole entry path on revisits: once this
/// raw configuration's summary has been resolved (memo hit or terminal
/// insert), the *real-space* summary `Arc` is pinned here, and a later
/// raw-key hit returns it without re-probing the memo or re-mapping
/// through the value involution.  Sound because summaries are
/// deterministic and immutable per canonical key, and the raw bytes
/// fully determine both the canonical key and the swap orientation.
struct KeyCacheSlot<O> {
    raw: Vec<u8>,
    canon: Vec<u8>,
    hash: u64,
    swap: bool,
    seeds: FrameSeeds,
    real: Option<Arc<Summary<O>>>,
}

impl<O> Default for KeyCacheSlot<O> {
    fn default() -> Self {
        KeyCacheSlot {
            raw: Vec::new(),
            canon: Vec::new(),
            hash: 0,
            swap: false,
            seeds: FrameSeeds::default(),
            real: None,
        }
    }
}

/// Slot count of the raw→canonical key cache (power of two; the raw
/// hash's low bits index it).  Sized so the bench systems' full raw
/// state sets fit with headroom — repeated revisits (the dominant
/// canonicalization repeats in DFS order) then hit at >90%, and the
/// slots' heap-allocated payloads keep the table itself small.
const KEY_CACHE_SLOTS: usize = 1 << 14;

/// Fast, non-cryptographic slot index for the raw→canonical cache:
/// word-wise FNV over the raw key bytes, folded to the table size.  A
/// collision only costs a cache miss (slots are byte-verified), so the
/// probe path skips the stable 64-bit hash it would otherwise pay on
/// every entered successor.
#[inline]
fn key_cache_slot(bytes: &[u8]) -> usize {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = (h ^ u64::from_le_bytes(c.try_into().unwrap())).wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    ((h ^ (h >> 32)) as usize) & (KEY_CACHE_SLOTS - 1)
}

/// What the `enter` key path resolved: a canonical `(hash, swap)` pair
/// ready for the memo, or — on a fully warmed cache-hit revisit — the
/// configuration's real-space summary itself.
enum KeyedEntry<O> {
    Key { hash: u64, swap: bool },
    Resolved(Arc<Summary<O>>),
}

/// One level of the explicit DFS stack: a configuration mid-expansion.
pub(crate) struct Frame<P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    stepper: Stepper<P>,
    /// The configuration's canonical key bytes and their single hash.
    hash: u64,
    key: Vec<u8>,
    /// Every adversary move for this round, in canonical enumeration
    /// order (the merge order that makes reports deterministic).
    actions: Vec<RoundActions>,
    next_action: usize,
    acc: Summary<P::Output>,
    /// Whether the value-swapped encoding won this configuration's key
    /// (value-symmetry tier): the accumulated summary is in *real*
    /// space, so the memo insert maps it through the involution first.
    value_swapped: bool,
    /// This configuration's sorted settled pools, seeding its children's
    /// incremental canonicalization.
    seeds: FrameSeeds,
}

/// Outcome of entering a configuration.
///
/// `Ready` intentionally carries the (large) stepper inline: it exists
/// precisely to hand the buffer back to the walker's pool, and boxing
/// it would reintroduce an allocation on the hottest return path.
#[allow(clippy::large_enum_variant)]
enum Entered<P, O>
where
    P: SyncProtocol,
{
    /// Summary already available (memo hit or terminal); the entered
    /// stepper comes back so the walker can recycle its buffers.
    Ready(Arc<Summary<O>>, Stepper<P>),
    /// A new frame was pushed; children must be walked first.
    Expanded,
}

/// The frame-stepped walker core: one bounded unit of DFS work per
/// [`step`](Self::step) call, driver owns the loop (module docs,
/// *Frame-stepped core*).  Borrows a [`Walker`] so its scratch pools
/// survive across jobs — a stealer reuses one walker for every donated
/// subtree it drives.
///
/// A *step* is exactly one iteration of the historical owned loop: the
/// entry of the next configuration (memo probe / terminal evaluation /
/// frame push, child or next root) or the pop of a completed frame
/// (memoizing insert).  Step order is therefore identical to the owned
/// loop's — bit-identity of the final report is structural.
pub(crate) struct StepWalker<'w, 's, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash,
{
    walker: &'w mut Walker<'s, 'a, P>,
    stack: Vec<Frame<P>>,
    /// A just-completed child's summary, absorbed into the parent frame
    /// at the start of the next step.
    pending: Option<Arc<Summary<P::Output>>>,
    /// Roots not yet entered; the next one starts when the stack drains.
    roots: std::vec::IntoIter<Stepper<P>>,
    /// Completed roots' summaries, in root order.
    summaries: Vec<Arc<Summary<P::Output>>>,
    steps: u64,
}

impl<'w, 's, 'a, P> StepWalker<'w, 's, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(walker: &'w mut Walker<'s, 'a, P>, roots: Vec<Stepper<P>>) -> Self {
        let summaries = Vec::with_capacity(roots.len());
        StepWalker {
            walker,
            stack: Vec::new(),
            pending: None,
            roots: roots.into_iter(),
            summaries,
            steps: 0,
        }
    }

    /// Performs one bounded unit of work, then (unless the walk just
    /// finished) asks `arbiter` whether to continue.  Errors carry the
    /// usual interrupt protocol — the failure site has already signalled
    /// the abort.
    pub(crate) fn step(&mut self, arbiter: &mut impl Arbiter) -> Result<StepResult, Interrupt> {
        let mut expanded = false;
        if self.stack.is_empty() {
            let Some(root) = self.roots.next() else {
                return Ok(StepResult {
                    expanded: false,
                    frontier_len: 0,
                    distinct_states: self.walker.shared.memo.len(),
                    status: StepStatus::Done,
                });
            };
            match self.walker.enter(root, &mut self.stack)? {
                Entered::Ready(summary, stepper) => {
                    self.walker.stepper_pool.push(stepper);
                    self.summaries.push(summary);
                }
                Entered::Expanded => expanded = true,
            }
        } else {
            let frame = self.stack.last_mut().expect("non-empty stack in DFS loop");
            if let Some(child_summary) = self.pending.take() {
                frame.acc.absorb(&child_summary);
            }
            if frame.next_action < frame.actions.len() {
                let idx = frame.next_action;
                frame.next_action += 1;
                let mut child = self.walker.fork(&frame.stepper);
                child
                    .step(&frame.actions[idx])
                    .map_err(|e| self.walker.shared.fail(ExploreError::Engine(e)))?;
                match self.walker.enter(child, &mut self.stack)? {
                    Entered::Ready(summary, stepper) => {
                        self.walker.stepper_pool.push(stepper);
                        self.pending = Some(summary);
                    }
                    Entered::Expanded => expanded = true,
                }
            } else {
                let done = self.stack.pop().expect("popping the completed frame");
                // `acc` accumulated in real value space; the memo stores
                // canonical space, and whatever comes back is translated
                // again for the parent (an involution, so racing inserts
                // of the same key agree regardless of which twin won).
                let canonical = self.walker.to_canonical_arc(done.acc, done.value_swapped);
                let summary = self
                    .walker
                    .shared
                    .memo
                    .insert(done.hash, &done.key, canonical)
                    .map_err(|e| self.walker.shared.fail(e.into()))?;
                let summary = self.walker.to_real(summary, done.value_swapped);
                self.walker.recycle(done.key, done.actions, done.seeds);
                self.walker.stepper_pool.push(done.stepper);
                if self.stack.is_empty() {
                    self.summaries.push(summary);
                    self.pending = None;
                } else {
                    self.pending = Some(summary);
                }
            }
        }
        self.steps += 1;

        let shared = self.walker.shared;
        let frontier_len = self.stack.len();
        let distinct_states = shared.memo.len();
        let status = if frontier_len == 0 && self.roots.as_slice().is_empty() {
            StepStatus::Done
        } else {
            match arbiter.inspect(&StepProgress {
                steps: self.steps,
                frontier_len,
                distinct_states,
                memo_bytes: shared.memo.approx_bytes(),
            }) {
                StepVerdict::Allow => StepStatus::Running,
                StepVerdict::Yield => StepStatus::Yielded,
                StepVerdict::Refuse(kind) => StepStatus::Refused(kind),
            }
        };
        Ok(StepResult {
            expanded,
            frontier_len,
            distinct_states,
            status,
        })
    }

    /// The completed walk's summaries, one per root in root order.  Only
    /// meaningful after a [`StepStatus::Done`].
    pub(crate) fn into_summaries(self) -> Vec<Arc<Summary<P::Output>>> {
        self.summaries
    }

    /// Unexplored immediate children across every frame of the current
    /// DFS stack — an upper bound on what [`Self::harvest_into`] emits
    /// (harvest additionally skips children already memoized).
    pub(crate) fn harvestable(&self) -> usize {
        self.stack
            .iter()
            .map(|f| f.actions.len() - f.next_action)
            .sum()
    }

    /// Harvests the suspended walk's remaining frontier: for every frame
    /// on the stack, each not-yet-started child is forked, stepped, and
    /// emitted as a `(canonical-key hash, action-index path)` record —
    /// unless the memo already holds it.  `prefix` is the current root's
    /// own path; a child of frame `j` extends it with the actions chosen
    /// into frames `1..=j` plus the child's own index.
    ///
    /// The frames themselves (partially-absorbed interiors) are *not*
    /// emitted: their summaries are recomputed by whoever re-drives the
    /// path — by then every child is memoized, so the recomputation is
    /// pure memo-hit fast-forward.
    pub(crate) fn harvest_into(
        &mut self,
        prefix: &[u32],
        out: &mut Vec<(u64, Vec<u32>)>,
    ) -> Result<(), Interrupt> {
        let walker = &mut *self.walker;
        // Actions chosen into the stack so far: frame `j+1` is frame
        // `j`'s child via action `next_action - 1` (LIFO: the frame
        // above is always the most recent fork).
        let mut path: Vec<u32> = Vec::with_capacity(prefix.len() + self.stack.len() + 1);
        path.extend_from_slice(prefix);
        let depth = self.stack.len();
        for (level, frame) in self.stack.iter().enumerate() {
            // Interior frames (those with a frame above) necessarily
            // advanced `next_action` to push that child; only the top
            // frame may sit just-entered at `next_action == 0`.
            debug_assert!(
                level + 1 == depth || frame.next_action > 0,
                "interior frames were entered through an action"
            );
            for idx in frame.next_action..frame.actions.len() {
                let mut child = walker.fork(&frame.stepper);
                child
                    .step(&frame.actions[idx])
                    .map_err(|e| walker.shared.fail(ExploreError::Engine(e)))?;
                let (hash, _) = walker.canonical_key(&child, Some(frame));
                let known = walker
                    .shared
                    .memo
                    .get(hash, &walker.key_scratch)
                    .map_err(|e| walker.shared.fail(e.into()))?
                    .is_some();
                walker.stepper_pool.push(child);
                if known {
                    continue;
                }
                path.push(idx as u32);
                out.push((hash, path.clone()));
                path.pop();
            }
            path.push((frame.next_action.max(1) - 1) as u32);
        }
        Ok(())
    }
}

impl<'s, 'a, P> Walker<'s, 'a, P>
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    pub(crate) fn new(shared: &'s Shared<'a, P>) -> Self {
        Walker {
            shared,
            outcome_bufs: Vec::new(),
            key_scratch: Vec::new(),
            key_pool: Vec::new(),
            actions_pool: Vec::new(),
            row_pool: Vec::new(),
            active_buf: Vec::new(),
            stepper_pool: Vec::new(),
            shape_buf: PlanShape {
                data_dests: Vec::new(),
                control_dests: Vec::new(),
                control_len: 0,
            },
            schedule_buf: CrashSchedule::none(shared.system.n()),
            canon: Canonicalizer::new(),
            raw_scratch: Vec::new(),
            swap_buf: Vec::new(),
            inert_buf: Vec::new(),
            seeds_scratch: FrameSeeds::default(),
            seeds_pending_slot: None,
            last_slot: None,
            seeds_pool: Vec::new(),
            key_cache: if shared.plan.tier == CanonTier::Raw {
                Vec::new()
            } else {
                (0..KEY_CACHE_SLOTS)
                    .map(|_| KeyCacheSlot::default())
                    .collect()
            },
            live_dests_buf: Vec::new(),
            live_ks_buf: Vec::new(),
        }
    }

    /// Returns a completed frame's buffers to the walker's pools so the
    /// next expansion reuses their allocations.
    fn recycle(&mut self, key: Vec<u8>, mut actions: Vec<RoundActions>, seeds: FrameSeeds) {
        self.key_pool.push(key);
        self.row_pool.append(&mut actions);
        self.actions_pool.push(actions);
        self.seeds_pool.push(seeds);
    }

    /// Encodes `stepper`'s configuration into its canonical key bytes in
    /// `key_scratch` and returns `(hash, value_swapped)` — the one
    /// key-path entry point for every engine.
    ///
    /// Raw plans delegate straight to [`make_key_into`].  Canonicalizing
    /// plans first probe the walker's direct-mapped raw→canonical cache
    /// (byte-verified against the raw key, so a hash collision can only
    /// cost a miss, never corrupt a key); on a miss the tier encoder
    /// runs — seeded from `parent`'s sorted settled pool when the caller
    /// has one — and the result is cached.  Either way the
    /// configuration's own seeds are left in `seeds_scratch` for `enter`
    /// to move into the frame.
    pub(crate) fn canonical_key(
        &mut self,
        stepper: &Stepper<P>,
        parent: Option<&Frame<P>>,
    ) -> (u64, bool) {
        match self.key_or_summary(stepper, parent, false) {
            KeyedEntry::Key { hash, swap } => (hash, swap),
            KeyedEntry::Resolved(_) => unreachable!("summary shortcut disabled"),
        }
    }

    /// The key path behind [`canonical_key`](Self::canonical_key).
    /// With `shortcut` set (the `enter` hot path), a cache hit whose
    /// real-space summary is already pinned returns it directly —
    /// skipping the canonical-byte copy, the memo probe, and the value
    /// un-swap entirely.  Without it the canonical key bytes are always
    /// left in `key_scratch` for callers that need them.
    fn key_or_summary(
        &mut self,
        stepper: &Stepper<P>,
        parent: Option<&Frame<P>>,
        shortcut: bool,
    ) -> KeyedEntry<P::Output> {
        let plan = self.shared.plan;
        if plan.tier == CanonTier::Raw {
            make_key_into(stepper, &mut self.key_scratch);
            self.last_slot = None;
            return KeyedEntry::Key {
                hash: stable_hash64(&self.key_scratch),
                swap: false,
            };
        }
        make_key_into(stepper, &mut self.raw_scratch);
        let slot_idx = key_cache_slot(&self.raw_scratch);
        {
            let slot = &self.key_cache[slot_idx];
            if !slot.raw.is_empty() && slot.raw == self.raw_scratch {
                // The seeds copy is deferred: `take_frame_seeds` pulls
                // it from the slot only if this configuration actually
                // expands into a frame (most hits resolve in the memo).
                self.seeds_pending_slot = Some(slot_idx);
                self.last_slot = Some(slot_idx);
                if shortcut {
                    if let Some(real) = &slot.real {
                        return KeyedEntry::Resolved(Arc::clone(real));
                    }
                }
                self.key_scratch.clear();
                self.key_scratch.extend_from_slice(&slot.canon);
                return KeyedEntry::Key {
                    hash: slot.hash,
                    swap: slot.swap,
                };
            }
        }
        self.seeds_pending_slot = None;
        if plan.tier == CanonTier::SettledInert {
            compute_inert_flags(stepper, self.shared.system.t(), &mut self.inert_buf);
        } else {
            self.inert_buf.clear();
            self.inert_buf.resize(stepper.procs().len(), false);
        }
        let parent_seeds = parent.map(|f| (&f.seeds, f.stepper.status()));
        tier_key_into(
            stepper,
            plan.tier,
            false,
            &self.inert_buf,
            parent_seeds.map(|(s, st)| (&s.plain, st)),
            &mut self.canon,
            &mut self.key_scratch,
            Some(&mut self.seeds_scratch.plain),
        );
        let mut swap = false;
        if plan.value {
            tier_key_into(
                stepper,
                plan.tier,
                true,
                &self.inert_buf,
                parent_seeds.map(|(s, st)| (&s.swapped, st)),
                &mut self.canon,
                &mut self.swap_buf,
                Some(&mut self.seeds_scratch.swapped),
            );
            if self.swap_buf < self.key_scratch {
                std::mem::swap(&mut self.swap_buf, &mut self.key_scratch);
                swap = true;
            }
        } else {
            self.seeds_scratch.swapped.clear();
        }
        let hash = stable_hash64(&self.key_scratch);
        let slot = &mut self.key_cache[slot_idx];
        slot.raw.clear();
        slot.raw.extend_from_slice(&self.raw_scratch);
        slot.canon.clear();
        slot.canon.extend_from_slice(&self.key_scratch);
        slot.hash = hash;
        slot.swap = swap;
        slot.seeds.copy_from(&self.seeds_scratch);
        slot.real = None;
        self.last_slot = Some(slot_idx);
        KeyedEntry::Key { hash, swap }
    }

    /// The canonical key bytes produced by the last
    /// [`canonical_key`](Self::canonical_key) call — for callers (the
    /// distributed frontier expander) that need the bytes, not just the
    /// hash.
    pub(crate) fn key_bytes(&self) -> &[u8] {
        &self.key_scratch
    }

    /// Takes the seeds belonging to the configuration the last
    /// [`canonical_key`](Self::canonical_key) call keyed, materializing
    /// the deferred cache-hit copy if one is pending.  Must be called
    /// before any further `canonical_key` on this walker (the pending
    /// slot is only valid until then); `enter` is the sole consumer and
    /// computes no other keys in between.
    fn take_frame_seeds(&mut self) -> FrameSeeds {
        if let Some(idx) = self.seeds_pending_slot.take() {
            let slot = &self.key_cache[idx];
            debug_assert_eq!(
                slot.raw, self.raw_scratch,
                "pending seeds slot was clobbered between keying and expansion"
            );
            self.seeds_scratch.copy_from(&slot.seeds);
        }
        std::mem::replace(
            &mut self.seeds_scratch,
            self.seeds_pool.pop().unwrap_or_default(),
        )
    }

    /// Maps a summary through the value involution: decided values are
    /// swapped element-wise (discovery order is preserved — the swap
    /// does not reorder enumeration), counts and rounds are untouched.
    fn swap_summary(summary: &Summary<P::Output>) -> Summary<P::Output> {
        Summary {
            terminals: summary.terminals,
            worst_round_by_f: summary.worst_round_by_f.clone(),
            decided: summary
                .decided
                .iter()
                .map(|v| {
                    v.value_swapped()
                        .expect("value-symmetry tier active but a decided value has no swap image")
                })
                .collect(),
            violating: summary.violating,
        }
    }

    /// A memoized (canonical-space) summary translated back into the
    /// entered configuration's *real* value space.
    fn to_real(
        &self,
        summary: Arc<Summary<P::Output>>,
        value_swapped: bool,
    ) -> Arc<Summary<P::Output>> {
        if value_swapped {
            Arc::new(Self::swap_summary(&summary))
        } else {
            summary
        }
    }

    /// A real-space summary prepared for the memo: mapped into canonical
    /// value space when the swapped encoding won the key, and — on the
    /// partial tier only — its `decided` list sorted by encoded bytes,
    /// because merged orbit members enumerate children in different
    /// orders and would otherwise disagree on discovery order (the
    /// module docs' normal-form argument; `Off` and `Full` summaries are
    /// deliberately left byte-for-byte as before).
    fn to_canonical_arc(
        &self,
        summary: Summary<P::Output>,
        value_swapped: bool,
    ) -> Arc<Summary<P::Output>> {
        let mut summary = if value_swapped {
            Self::swap_summary(&summary)
        } else {
            summary
        };
        if self.shared.plan.tier == CanonTier::SettledInert {
            summary.decided.sort_by_cached_key(|v| {
                let mut buf = Vec::new();
                v.encode(&mut buf);
                buf
            });
        }
        Arc::new(summary)
    }

    /// A configuration forked from `parent` — from the stepper pool when
    /// possible, so steady-state successor generation reuses buffers
    /// instead of allocating a fresh clone.
    fn fork(&mut self, parent: &Stepper<P>) -> Stepper<P> {
        match self.stepper_pool.pop() {
            Some(mut stepper) => {
                stepper.fork_from(parent);
                stepper
            }
            None => parent.clone(),
        }
    }

    /// Enters one configuration: memo hit, terminal evaluation, or frame
    /// push — donating tail children to idle workers on the way.
    ///
    /// This is the hot path: the configuration is encoded once into the
    /// walker's reusable scratch buffer, hashed once, and the memo is
    /// probed with the `(hash, bytes)` pair — a hit allocates nothing
    /// and (on an all-RAM memo) takes only a shared read lock.
    fn enter(
        &mut self,
        stepper: Stepper<P>,
        stack: &mut Vec<Frame<P>>,
    ) -> Result<Entered<P, P::Output>, Interrupt> {
        if self.shared.stop.load(Ordering::Relaxed) {
            return Err(Interrupt::Stopped);
        }
        // Revisit fast path: a raw-key cache hit whose real-space
        // summary is already pinned needs no memo probe and no value
        // un-swapping — the slot was byte-verified against the raw key.
        let keyed = {
            let parent = stack.last();
            self.key_or_summary(&stepper, parent, true)
        };
        let (hash, value_swapped) = match keyed {
            KeyedEntry::Resolved(real) => return Ok(Entered::Ready(real, stepper)),
            KeyedEntry::Key { hash, swap } => (hash, swap),
        };
        if let Some(summary) = self
            .shared
            .memo
            .get(hash, &self.key_scratch)
            .map_err(|e| self.shared.fail(e.into()))?
        {
            let real = self.to_real(summary, value_swapped);
            if let Some(idx) = self.last_slot {
                self.key_cache[idx].real = Some(Arc::clone(&real));
            }
            return Ok(Entered::Ready(real, stepper));
        }
        if self.shared.memo.len() >= self.shared.config.max_states {
            // Raise the abort (cancel flag + queue close) before this
            // walker unwinds, so no peer hangs in `pop_wait` or keeps
            // expanding configurations past the budget.
            return Err(self.shared.fail(ExploreError::StateLimit {
                budget: self.shared.config.max_states,
            }));
        }

        if self.is_terminal(&stepper) {
            let terminal_summary = self.evaluate_terminal(&stepper);
            let canonical = self.to_canonical_arc(terminal_summary, value_swapped);
            let summary = self
                .shared
                .memo
                .insert(hash, &self.key_scratch, canonical)
                .map_err(|e| self.shared.fail(e.into()))?;
            let real = self.to_real(summary, value_swapped);
            if let Some(idx) = self.last_slot {
                self.key_cache[idx].real = Some(Arc::clone(&real));
            }
            return Ok(Entered::Ready(real, stepper));
        }

        let actions = self.enumerate_action_sets(&stepper);

        // Work-sharing: if workers are parked on the injector, hand them
        // the subtrees this walker would reach last.  They explore into
        // the shared memo; this walker finds the results memoized when it
        // gets there.  Cost: one extra `step` per donated child.  The
        // depth-aware policy (`ExploreOptions::donate_depth`) can confine
        // donation to shallow rounds, where subtrees are still large
        // enough to be worth the handoff.
        let idle = self.shared.queue.idle_workers();
        if idle > 0 && actions.len() > 1 && self.shared.donate_allowed(stepper.round().get()) {
            for donated in actions.iter().rev().take(idle.min(actions.len() - 1)) {
                let mut child = self.fork(&stepper);
                if child.step(donated).is_ok() {
                    self.shared.queue.push(child);
                }
            }
        }

        // The scratch becomes the frame's key; the frame's eventual
        // insert needs exactly these bytes, and the pool hands the
        // scratch slot a recycled buffer for the next enter.  Same move
        // for the seeds the key path left behind: the frame's children
        // canonicalize incrementally from them.
        let key = std::mem::replace(
            &mut self.key_scratch,
            self.key_pool.pop().unwrap_or_default(),
        );
        let seeds = self.take_frame_seeds();
        stack.push(Frame {
            stepper,
            hash,
            key,
            actions,
            next_action: 0,
            acc: Summary::empty(self.shared.system.t()),
            value_swapped,
            seeds,
        });
        Ok(Entered::Expanded)
    }

    pub(crate) fn is_terminal(&self, stepper: &Stepper<P>) -> bool {
        stepper.is_quiescent() || stepper.round().get() > self.shared.config.max_rounds
    }

    fn evaluate_terminal(&mut self, stepper: &Stepper<P>) -> Summary<P::Output> {
        let config = &self.shared.config;
        self.schedule_buf.reset();
        let mut f = 0usize;
        for (i, status) in stepper.status().iter().enumerate() {
            if let ProcStatus::Crashed(round) = status {
                f += 1;
                // Stage is irrelevant to the spec check; only the correct
                // set and rounds matter.
                self.schedule_buf.set(
                    ProcessId::from_idx(i),
                    Some(CrashPoint::new(*round, CrashStage::BeforeSend)),
                );
            }
        }

        let bound = config.round_bound.map(|rb| rb.bound(f));
        let mut report = check_uniform_consensus(
            self.shared.proposals,
            stepper.decisions(),
            &self.schedule_buf,
            bound,
        );
        if config.spec == SpecMode::NonUniform {
            report
                .violations
                .retain(|v| !matches!(v, SpecViolation::UniformAgreement { .. }));
        }

        let mut summary = Summary::empty(self.shared.system.t());
        summary.terminals = 1;
        let last = stepper
            .decisions()
            .iter()
            .flatten()
            .map(|d| d.round.get())
            .max();
        summary.worst_round_by_f[f] = last;
        for d in stepper.decisions().iter().flatten() {
            if !summary.decided.contains(&d.value) {
                summary.decided.push(d.value.clone());
            }
        }
        summary.violating = !report.ok();
        summary
    }

    /// All adversary moves for the upcoming round: every subset of live
    /// processes within the remaining budget, each with every distinct
    /// crash outcome against its concrete plan.  The no-crash move comes
    /// first.  Per-process outcome vectors, the active-index buffer, the
    /// result vector, and the action rows themselves all live in
    /// reusable walker-local pools — in steady state the enumeration
    /// performs no allocation of its own (rows are refilled via
    /// `clone_from`, which reuses their spines).
    pub(crate) fn enumerate_action_sets(&mut self, stepper: &Stepper<P>) -> Vec<RoundActions> {
        let n = self.shared.system.n();
        let crashed_so_far = stepper
            .status()
            .iter()
            .filter(|s| matches!(s, ProcStatus::Crashed(_)))
            .count();
        let budget = self.shared.system.t() - crashed_so_far;

        self.active_buf.clear();
        self.active_buf
            .extend((0..n).filter(|i| matches!(stepper.status()[*i], ProcStatus::Active)));
        let active = &self.active_buf;
        while self.outcome_bufs.len() < active.len() {
            self.outcome_bufs.push(Vec::new());
        }
        let status = stepper.status();
        for (slot, &i) in active.iter().enumerate() {
            let shaped = stepper.peek_plan_shape_into(i, &mut self.shape_buf);
            debug_assert!(shaped, "active process has a shape");
            debug_assert_eq!(
                self.shape_buf.control_dests.len(),
                self.shape_buf.control_len,
                "one control destination per control message"
            );
            // Deliveries to settled (decided/crashed) receivers are
            // dropped by the engine, so crash stages differing only in
            // them produce bit-identical successors — enumerate one
            // representative per *live-effect* class (module docs,
            // "Effect-pruned adversary enumeration").
            self.live_dests_buf.clear();
            self.live_dests_buf.extend(
                self.shape_buf
                    .data_dests
                    .iter()
                    .copied()
                    .filter(|p| matches!(status[p.idx()], ProcStatus::Active)),
            );
            self.live_ks_buf.clear();
            self.live_ks_buf.extend(
                self.shape_buf
                    .control_dests
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| matches!(status[p.idx()], ProcStatus::Active))
                    .map(|(k0, _)| k0 + 1),
            );
            crash_outcomes_effective_into(
                n,
                &self.live_dests_buf,
                !self.shape_buf.data_dests.is_empty(),
                &self.live_ks_buf,
                &mut self.outcome_bufs[slot],
            );
        }

        let round_budget = self
            .shared
            .config
            .max_crashes_per_round
            .unwrap_or(usize::MAX)
            .min(budget);
        let mut out: Vec<RoundActions> = self.actions_pool.pop().unwrap_or_default();
        debug_assert!(out.is_empty(), "pooled action vectors are drained");
        let mut current: RoundActions = self.row_pool.pop().unwrap_or_default();
        current.clear();
        current.resize(n, None);
        Self::rec_actions(
            active,
            &self.outcome_bufs[..active.len()],
            0,
            round_budget,
            &mut current,
            &mut out,
            &mut self.row_pool,
        );
        self.row_pool.push(current);
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn rec_actions(
        active: &[usize],
        outcomes: &[Vec<CrashStage>],
        idx: usize,
        budget: usize,
        current: &mut RoundActions,
        out: &mut Vec<RoundActions>,
        row_pool: &mut Vec<RoundActions>,
    ) {
        if idx == active.len() {
            let mut row = row_pool.pop().unwrap_or_default();
            row.clone_from(current);
            out.push(row);
            return;
        }
        // This process survives the round.
        Self::rec_actions(active, outcomes, idx + 1, budget, current, out, row_pool);
        // Or it crashes, in every distinct way — if budget remains (the
        // tighter of the global `t` budget and the per-round cap).
        if budget > 0 {
            for stage in &outcomes[idx] {
                current[active[idx]] = Some(stage.clone());
                Self::rec_actions(
                    active,
                    outcomes,
                    idx + 1,
                    budget - 1,
                    current,
                    out,
                    row_pool,
                );
            }
            current[active[idx]] = None;
        }
    }

    /// Walks one violating path through the completed memo, rebuilding its
    /// crash schedule and the terminal's violations.  Only called when the
    /// root summary is violating, in which case a violating child exists
    /// at every level; works against the sharded memo because the whole
    /// violating subtree is memoized by then.
    fn reconstruct_witness(&mut self) -> Result<Witness<P::Output>, ExploreError> {
        // Re-drive real executions from the true initial configuration
        // (kept in `Shared` — under symmetry reduction the memoized
        // round-1 key may be a canonical representative, so it must not
        // be decoded back into processes), choosing at each level the
        // first child whose memoized summary violates.
        let initial: Vec<P> = self.shared.initial.clone();

        let mut stepper = Stepper::new(
            self.shared.system,
            self.shared.config.model,
            TraceLevel::Off,
            initial,
        )
        .map_err(ExploreError::Engine)?;
        let mut schedule = CrashSchedule::none(self.shared.system.n());

        loop {
            if self.is_terminal(&stepper) {
                let summary = self.evaluate_terminal(&stepper);
                debug_assert!(summary.violating);
                let n = self.shared.system.n();
                let mut pseudo = CrashSchedule::none(n);
                for (i, status) in stepper.status().iter().enumerate() {
                    if let ProcStatus::Crashed(round) = status {
                        pseudo.set(
                            ProcessId::from_idx(i),
                            Some(CrashPoint::new(*round, CrashStage::BeforeSend)),
                        );
                    }
                }
                let f = pseudo.f();
                let bound = self.shared.config.round_bound.map(|rb| rb.bound(f));
                let mut report = check_uniform_consensus(
                    self.shared.proposals,
                    stepper.decisions(),
                    &pseudo,
                    bound,
                );
                if self.shared.config.spec == SpecMode::NonUniform {
                    report
                        .violations
                        .retain(|v| !matches!(v, SpecViolation::UniformAgreement { .. }));
                }
                return Ok(Witness {
                    schedule,
                    violations: report.violations,
                    decisions: stepper.decisions().to_vec(),
                });
            }

            let round = stepper.round();
            let mut advanced = false;
            for actions in self.enumerate_action_sets(&stepper) {
                let mut child = stepper.clone();
                child.step(&actions).map_err(ExploreError::Engine)?;
                let (hash, _) = self.canonical_key(&child, None);
                let violating = self
                    .shared
                    .memo
                    .get(hash, &self.key_scratch)?
                    .map(|s| s.violating)
                    .unwrap_or(false);
                if violating {
                    for (i, a) in actions.iter().enumerate() {
                        if let Some(stage) = a {
                            schedule.set(
                                ProcessId::from_idx(i),
                                Some(CrashPoint::new(round, stage.clone())),
                            );
                        }
                    }
                    stepper = child;
                    advanced = true;
                    break;
                }
            }
            assert!(
                advanced,
                "violating summary without violating child — memo inconsistency"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_model::{BitSized, Round};
    use twostep_sim::{Inbox, SendPlan, Step};

    /// A deliberately broken "consensus": everyone decides its own proposal
    /// in round 1.  Uniform agreement must be violated whenever two
    /// proposals differ, and the explorer must find a witness.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct DecideOwn {
        v: u64,
    }

    impl SyncProtocol for DecideOwn {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
            SendPlan::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
            Step::Decide(self.v)
        }
    }

    impl SpillCodec for DecideOwn {
        fn encode(&self, out: &mut Vec<u8>) {
            self.v.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(DecideOwn {
                v: u64::decode(input)?,
            })
        }
        // Quiet and rank-oblivious: sends nothing, embeds no pid — the
        // full-orbit quotient is sound.
        fn pid_symmetric() -> bool {
            true
        }
    }

    /// A protocol that never decides — termination must be flagged.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct NeverDecide;

    impl SyncProtocol for NeverDecide {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _round: Round) -> SendPlan<u64, u64> {
            SendPlan::quiet()
        }
        fn receive(&mut self, _round: Round, _inbox: &Inbox<u64>) -> Step<u64> {
            Step::Continue
        }
    }

    impl SpillCodec for NeverDecide {
        fn encode(&self, _out: &mut Vec<u8>) {}
        fn decode(_input: &mut &[u8]) -> Option<Self> {
            Some(NeverDecide)
        }
        fn pid_symmetric() -> bool {
            true
        }
    }

    /// A small but non-trivial broadcaster: rank 1 floods its value with
    /// commits for two rounds; others adopt and echo.  Gives the explorer
    /// a real branching space for the parallel-equivalence tests.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Flooder {
        me: u32,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for Flooder {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            let mut plan = SendPlan::quiet();
            if round.get() <= 2 {
                for r in 1..=self.n as u32 {
                    if r != self.me {
                        plan = plan.with_data(ProcessId::new(r), self.est);
                    }
                }
                if self.me == 1 {
                    for r in (2..=self.n as u32).rev() {
                        plan = plan.with_control(ProcessId::new(r));
                    }
                }
            }
            plan
        }
        fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            if let Some(v) = inbox.data_from(ProcessId::new(1)) {
                self.est = *v;
            }
            if round.get() >= 2 {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    impl SpillCodec for Flooder {
        fn encode(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            self.n.encode(out);
            self.est.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Flooder {
                me: u32::decode(input)?,
                n: usize::decode(input)?,
                est: u64::decode(input)?,
            })
        }
    }

    const _: () = {
        // Compile-time check that u64 message payloads satisfy BitSized.
        fn assert_bitsized<T: BitSized>() {}
        fn probe() {
            assert_bitsized::<u64>();
        }
        let _ = probe;
    };

    fn options(max_rounds: u32, max_states: usize) -> ExploreConfig {
        ExploreConfig {
            model: ModelKind::Extended,
            max_rounds,
            max_states,
            round_bound: None,
            max_crashes_per_round: None,
            spec: SpecMode::Uniform,
            symmetry: Symmetry::Off,
        }
    }

    #[test]
    fn round_bounds_evaluate() {
        assert_eq!(RoundBound::FPlus(1).bound(3), 4);
        assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(1), 3);
        assert_eq!(RoundBound::ClassicEarly { t: 3 }.bound(3), 4, "capped");
        assert_eq!(RoundBound::Fixed(5).bound(0), 5);
    }

    #[test]
    fn finds_agreement_violation_with_witness() {
        let system = SystemConfig::new(2, 1).unwrap();
        let report = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        assert!(report.root.violating);
        assert!(
            report.root.is_bivalent(),
            "both values get decided somewhere"
        );
        let witness = report.witness.expect("witness reconstructed");
        assert!(witness
            .violations
            .iter()
            .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })));
    }

    #[test]
    fn flags_non_termination_at_round_cap() {
        let system = SystemConfig::new(2, 0).unwrap();
        let report = explore(
            system,
            options(3, 10_000),
            vec![NeverDecide, NeverDecide],
            vec![0u64, 0],
        )
        .unwrap();
        assert!(report.root.violating, "termination violation expected");
        assert_eq!(report.root.terminals, 1, "t = 0 ⇒ single execution");
    }

    #[test]
    fn state_budget_is_enforced() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore(
            system,
            options(4, 3),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    #[test]
    fn state_budget_is_enforced_in_parallel_too() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore_with(
            system,
            options(4, 3),
            ExploreOptions::with_threads(4),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    #[test]
    fn agreeing_decide_own_is_clean() {
        // If everyone proposes the same value, DecideOwn is "correct":
        // no violation, univalent, decisions in round 1.
        let system = SystemConfig::new(3, 1).unwrap();
        let config = ExploreConfig {
            round_bound: Some(RoundBound::Fixed(1)),
            ..options(2, 100_000)
        };
        let report = explore(
            system,
            config,
            vec![DecideOwn { v: 7 }, DecideOwn { v: 7 }, DecideOwn { v: 7 }],
            vec![7u64, 7, 7],
        )
        .unwrap();
        assert!(!report.root.violating);
        assert_eq!(report.root.decided, vec![7]);
        assert!(!report.root.is_bivalent());
        assert!(report.root.terminals >= 1);
        // Bivalency census exists and no round has bivalent configs.
        assert!(report.bivalency_by_round.iter().all(|(_, _, b)| *b == 0));
    }

    /// Structural equality of full reports — the bit-identical claim.
    fn assert_reports_identical(a: &ExploreReport<u64>, b: &ExploreReport<u64>, label: &str) {
        assert_eq!(a.distinct_states, b.distinct_states, "{label}: states");
        assert_eq!(a.root.terminals, b.root.terminals, "{label}: terminals");
        assert_eq!(
            a.root.worst_round_by_f, b.root.worst_round_by_f,
            "{label}: worst rounds"
        );
        assert_eq!(a.root.decided, b.root.decided, "{label}: valency order");
        assert_eq!(a.root.violating, b.root.violating, "{label}: violating");
        assert_eq!(
            a.bivalency_by_round, b.bivalency_by_round,
            "{label}: census"
        );
    }

    #[test]
    fn parallel_walk_is_bit_identical_to_serial() {
        for (n, t) in [(3usize, 1usize), (3, 2), (4, 2)] {
            let system = SystemConfig::new(n, t).unwrap();
            let procs: Vec<Flooder> = (1..=n as u32)
                .map(|r| Flooder {
                    me: r,
                    n,
                    est: 100 + r as u64,
                })
                .collect();
            let proposals: Vec<u64> = (1..=n as u64).map(|r| 100 + r).collect();
            let serial = explore(
                system,
                options(4, 2_000_000),
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            for threads in [2usize, 4, 8] {
                let parallel = explore_with(
                    system,
                    options(4, 2_000_000),
                    ExploreOptions {
                        threads,
                        shards: 8,
                        memo: MemoConfig::all_ram(),
                        donate_depth: None,
                        cache: None,
                        budget: WalkBudget::unlimited(),
                    },
                    procs.clone(),
                    proposals.clone(),
                )
                .unwrap();
                assert_reports_identical(
                    &serial,
                    &parallel,
                    &format!("n={n} t={t} threads={threads}"),
                );
            }
        }
    }

    #[test]
    fn parallel_witness_matches_serial() {
        let system = SystemConfig::new(2, 1).unwrap();
        let serial = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let parallel = explore_with(
            system,
            options(2, 100_000),
            ExploreOptions::with_threads(4),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let ws = serial.witness.expect("serial witness");
        let wp = parallel.witness.expect("parallel witness");
        assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
        assert_eq!(ws.decisions, wp.decisions);
    }

    #[test]
    fn deep_spaces_do_not_overflow_the_stack() {
        // 64 rounds of a non-deciding protocol: the old recursive engine
        // walked one stack frame per round (fine at 64, fatal at tens of
        // thousands); the iterative engine's depth is heap-bounded.  Use a
        // large round cap with the trivial t = 0 space to make the path
        // long without exploding the state count.
        let system = SystemConfig::new(2, 0).unwrap();
        let report = explore(
            system,
            options(20_000, 50_000),
            vec![NeverDecide, NeverDecide],
            vec![0u64, 0],
        )
        .unwrap();
        assert!(report.root.violating, "never terminates");
        assert_eq!(report.distinct_states, 20_001);
    }

    #[test]
    fn explore_options_defaults_are_sane() {
        assert_eq!(ExploreOptions::serial().threads, 1);
        assert!(ExploreOptions::default().threads >= 1);
        assert!(ExploreOptions::default().shards >= 1);
        assert_eq!(ExploreOptions::with_threads(0).threads, 1);
        assert!(!ExploreOptions::default().memo.spill_enabled());
        assert!(ExploreOptions::default()
            .with_memo(MemoConfig::spill(16))
            .memo
            .spill_enabled());
    }

    fn flooder_procs(n: usize) -> (Vec<Flooder>, Vec<u64>) {
        let procs = (1..=n as u32)
            .map(|r| Flooder {
                me: r,
                n,
                est: 100 + r as u64,
            })
            .collect();
        let proposals = (1..=n as u64).map(|r| 100 + r).collect();
        (procs, proposals)
    }

    /// Regression test for the parallel abort protocol: a `StateLimit`
    /// raised by any walker must set the cancel flag and close the work
    /// queue *before* unwinding, so the whole exploration joins promptly
    /// instead of leaving peers parked in `pop_wait` or churning through
    /// the rest of the space.
    #[test]
    fn state_limit_abort_joins_promptly_at_four_threads() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let system = SystemConfig::new(4, 3).unwrap();
            let (procs, proposals) = flooder_procs(4);
            let result = explore_with(
                system,
                options(4, 10),
                ExploreOptions::with_threads(4),
                procs,
                proposals,
            );
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("parallel StateLimit abort must join promptly, not hang");
        assert_eq!(result.unwrap_err(), ExploreError::StateLimit { budget: 10 });
    }

    /// The two-tier memo is invisible to results: spill-vs-RAM reports
    /// are identical at 1 and 4 threads (the broad differential matrix
    /// lives in `tests/spill_differential.rs`).
    #[test]
    fn spill_memo_matches_all_ram_engine() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let ram = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        for threads in [1usize, 4] {
            let spilled = explore_with(
                system,
                options(4, 2_000_000),
                ExploreOptions {
                    threads,
                    shards: 8,
                    memo: MemoConfig::spill(16),
                    donate_depth: None,
                    cache: None,
                    budget: WalkBudget::unlimited(),
                },
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            assert_reports_identical(&ram, &spilled, &format!("spill threads={threads}"));
        }
    }

    /// `max_states` stops being a RAM bound: a hot capacity far below the
    /// distinct-state count must still complete (eviction never forgets a
    /// key, so the budget counts distinct configurations as before).
    #[test]
    fn tiny_hot_capacity_completes_without_state_limit() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let report = explore_with(
            system,
            options(4, 2_000_000),
            ExploreOptions::serial().with_memo(MemoConfig::spill(2)),
            procs,
            proposals,
        )
        .unwrap();
        assert!(
            report.distinct_states > 50,
            "space must dwarf the 2-entry hot tier (got {})",
            report.distinct_states
        );
    }

    /// A spilling exploration must also still *fail* correctly: the state
    /// budget counts distinct keys across both tiers.
    #[test]
    fn state_budget_is_enforced_with_spill_too() {
        let system = SystemConfig::new(3, 2).unwrap();
        let err = explore_with(
            system,
            options(4, 3),
            ExploreOptions::serial().with_memo(MemoConfig::spill(1)),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 0 }, DecideOwn { v: 0 }],
            vec![0u64, 0, 0],
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimit { budget: 3 });
    }

    /// The depth-aware donation policy changes only load balance, never
    /// the result: every cutoff (including 0 = never donate) produces a
    /// report identical to the unrestricted parallel walk and the serial
    /// walk.
    #[test]
    fn donation_depth_cutoffs_are_result_invisible() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let serial = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        for donate_depth in [Some(0u32), Some(1), Some(2), None] {
            let tuned = explore_with(
                system,
                options(4, 2_000_000),
                ExploreOptions::with_threads(4).with_donate_depth(donate_depth),
                procs.clone(),
                proposals.clone(),
            )
            .unwrap();
            assert_reports_identical(&serial, &tuned, &format!("donate_depth={donate_depth:?}"));
        }
    }

    #[test]
    fn explore_options_donation_builder() {
        assert_eq!(ExploreOptions::serial().donate_depth, None);
        assert_eq!(
            ExploreOptions::serial()
                .with_donate_depth(Some(3))
                .donate_depth,
            Some(3)
        );
    }

    /// Structural equality of two configurations, field by field — the
    /// ground truth the canonical key encoding must reproduce: round,
    /// per-process lifecycle, decisions, and the protocol state of every
    /// **active** process.  Two things are deliberately excluded, as the
    /// structured `Snap` comparison always excluded them: a settled
    /// (decided or crashed) process's internal state (it can never act
    /// again — only its decision matters to the future) and the round a
    /// crashed process died in (the spec check consumes only *who*
    /// crashed).
    fn configs_equal(a: &Stepper<Flooder>, b: &Stepper<Flooder>) -> bool {
        let lifecycles_match = a.status().iter().zip(b.status()).all(|(x, y)| {
            matches!(
                (x, y),
                (ProcStatus::Active, ProcStatus::Active)
                    | (ProcStatus::Decided, ProcStatus::Decided)
                    | (ProcStatus::Crashed(_), ProcStatus::Crashed(_))
            )
        });
        a.round() == b.round()
            && lifecycles_match
            && a.decisions() == b.decisions()
            && a.procs()
                .iter()
                .zip(a.status())
                .zip(b.procs())
                .all(|((x, status), y)| !matches!(status, ProcStatus::Active) || **x == **y)
    }

    /// Walks one seeded pseudo-random path from the initial Flooder
    /// configuration, returning every prefix configuration with its
    /// canonical key bytes.
    fn random_walk_keys(
        shared: &Shared<'_, Flooder>,
        procs: Vec<Flooder>,
        mut state: u64,
    ) -> Vec<(Stepper<Flooder>, Vec<u8>)> {
        let mut walker = Walker::new(shared);
        let mut stepper =
            Stepper::new(shared.system, shared.config.model, TraceLevel::Off, procs).unwrap();
        let mut out = Vec::new();
        loop {
            let mut key = Vec::new();
            make_key_into(&stepper, &mut key);
            out.push((stepper.clone(), key));
            if walker.is_terminal(&stepper) {
                break;
            }
            let actions = walker.enumerate_action_sets(&stepper);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % actions.len();
            stepper.step(&actions[pick]).unwrap();
        }
        out
    }

    proptest::proptest! {
        /// Satellite property: the canonical byte encoding is injective
        /// on reachable configurations — key-byte equality coincides
        /// exactly with structural configuration equality (in both
        /// directions), and equal keys always hash equal.  This is the
        /// soundness of merging configurations by bytes instead of by
        /// structured comparison.
        #[test]
        fn key_encoding_is_injective_on_reachable_configurations(
            seed_a in proptest::prelude::any::<u64>(),
            seed_b in proptest::prelude::any::<u64>(),
        ) {
            let system = SystemConfig::new(4, 2).unwrap();
            let (procs, proposals) = flooder_procs(4);
            let shared = Shared::new(
                system,
                options(4, 1_000_000),
                &ExploreOptions::serial(),
                &proposals,
                procs.clone(),
            )
            .unwrap();
            let mut configs = random_walk_keys(&shared, procs.clone(), seed_a);
            configs.extend(random_walk_keys(&shared, procs, seed_b));
            for (i, (stepper_i, key_i)) in configs.iter().enumerate() {
                // Every key decodes, consuming exactly its bytes.
                let mut input = key_i.as_slice();
                let decoded = crate::memo::decode_key_prefix::<Flooder>(&mut input);
                proptest::prop_assert!(decoded.is_some(), "key {i} must decode");
                proptest::prop_assert!(input.is_empty(), "key {i} must be self-delimiting");
                for (j, (stepper_j, key_j)) in configs.iter().enumerate().skip(i) {
                    let keys_equal = key_i == key_j;
                    let structs_equal = configs_equal(stepper_i, stepper_j);
                    proptest::prop_assert_eq!(
                        keys_equal, structs_equal,
                        "configs {} and {}: key-byte equality must coincide with structural equality",
                        i, j
                    );
                    if keys_equal {
                        proptest::prop_assert_eq!(
                            stable_hash64(key_i), stable_hash64(key_j),
                            "equal keys must hash equal"
                        );
                    }
                }
            }
        }
    }

    /// A genuinely pid-symmetric protocol (embeds its own pid, so the
    /// relabelling remap is exercised): everyone broadcasts its estimate
    /// to everyone else for two rounds, adopts the minimum it hears, and
    /// decides at the end of round 2.  No rank is special and peers are
    /// treated uniformly, so the full-orbit quotient is sound.
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Gossip {
        me: u32,
        n: usize,
        est: u64,
    }

    impl SyncProtocol for Gossip {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, round: Round) -> SendPlan<u64, u64> {
            let mut plan = SendPlan::quiet();
            if round.get() <= 2 {
                for r in 1..=self.n as u32 {
                    if r != self.me {
                        plan = plan.with_data(ProcessId::new(r), self.est);
                    }
                }
            }
            plan
        }
        fn receive(&mut self, round: Round, inbox: &Inbox<u64>) -> Step<u64> {
            for r in 1..=self.n as u32 {
                if let Some(v) = inbox.data_from(ProcessId::new(r)) {
                    if *v < self.est {
                        self.est = *v;
                    }
                }
            }
            if round.get() >= 2 {
                Step::Decide(self.est)
            } else {
                Step::Continue
            }
        }
    }

    impl SpillCodec for Gossip {
        fn encode(&self, out: &mut Vec<u8>) {
            self.me.encode(out);
            self.n.encode(out);
            self.est.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Option<Self> {
            Some(Gossip {
                me: u32::decode(input)?,
                n: usize::decode(input)?,
                est: u64::decode(input)?,
            })
        }
        fn pid_symmetric() -> bool {
            true
        }
        fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
            (at as u32 + 1).encode(out); // owner rewritten to rank at+1
            self.n.encode(out);
            self.est.encode(out);
        }
    }

    fn gossip_procs(n: usize, ests: &[u64]) -> Vec<Gossip> {
        ests.iter()
            .enumerate()
            .map(|(i, &est)| Gossip {
                me: i as u32 + 1,
                n,
                est,
            })
            .collect()
    }

    /// A test-only mirror of `Walker::canonical_key` without the cache
    /// or seeding: plan resolution, tier encoding, and the value
    /// minimum, so key-level tests can compare modes directly.
    fn test_key<P>(
        stepper: &Stepper<P>,
        mode: Symmetry,
        proposals: &[P::Output],
        t: usize,
    ) -> Vec<u8>
    where
        P: CheckableProtocol,
        P::Output: Hash + SpillCodec,
    {
        let plan = mode.plan::<P>(proposals);
        let mut out = Vec::new();
        if plan.tier == CanonTier::Raw {
            make_key_into(stepper, &mut out);
            return out;
        }
        let mut canon = Canonicalizer::new();
        let mut inert = Vec::new();
        if plan.tier == CanonTier::SettledInert {
            compute_inert_flags(stepper, t, &mut inert);
        } else {
            inert.resize(stepper.procs().len(), false);
        }
        tier_key_into(
            stepper, plan.tier, false, &inert, None, &mut canon, &mut out, None,
        );
        if plan.value {
            let mut swapped = Vec::new();
            tier_key_into(
                stepper,
                plan.tier,
                true,
                &inert,
                None,
                &mut canon,
                &mut swapped,
                None,
            );
            if swapped < out {
                out = swapped;
            }
        }
        out
    }

    #[test]
    fn symmetry_strength_is_protocol_dependent() {
        // Off is strength 0 for everyone; Full is settled-only (1) for
        // rank-dependent protocols and full-orbit (2) for declared
        // pid-symmetric ones; Partial adds the rank-inert tier (3) for
        // rank-dependent protocols and is subsumed by the orbit for
        // pid-symmetric ones.  u64 outputs are not value-symmetric, so
        // PartialValue degrades to Partial strength here.
        let p: Vec<u64> = vec![0, 1];
        assert_eq!(Symmetry::Off.plan::<Flooder>(&p).strength(), 0);
        assert_eq!(Symmetry::Off.plan::<DecideOwn>(&p).strength(), 0);
        assert_eq!(Symmetry::Full.plan::<Flooder>(&p).strength(), 1);
        assert_eq!(Symmetry::Full.plan::<DecideOwn>(&p).strength(), 2);
        assert_eq!(Symmetry::Full.plan::<Gossip>(&p).strength(), 2);
        assert_eq!(Symmetry::Partial.plan::<Flooder>(&p).strength(), 3);
        assert_eq!(Symmetry::Partial.plan::<Gossip>(&p).strength(), 2);
        assert_eq!(Symmetry::PartialValue.plan::<Flooder>(&p).strength(), 3);
    }

    #[test]
    fn symmetry_tokens_roundtrip_and_reject_garbage() {
        for mode in [
            Symmetry::Off,
            Symmetry::Full,
            Symmetry::Partial,
            Symmetry::PartialValue,
        ] {
            assert_eq!(Symmetry::parse_token(mode.token()), Some(mode));
            assert_eq!(
                Symmetry::parse_token(&format!("  {}  ", mode.token().to_ascii_uppercase())),
                Some(mode),
                "tokens are case-insensitive and whitespace-tolerant"
            );
        }
        for garbage in ["", "on", "value", "partial+", "full+value", "partial value"] {
            assert_eq!(Symmetry::parse_token(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn full_orbit_key_is_permutation_invariant() {
        // Two initial configurations that are owner-relabelled index
        // permutations of each other: canonical keys must coincide under
        // Full and stay distinct under Off.
        let system = SystemConfig::new(3, 1).unwrap();
        let mk = |ests: &[u64]| {
            Stepper::new(
                system,
                ModelKind::Extended,
                TraceLevel::Off,
                gossip_procs(3, ests),
            )
            .unwrap()
        };
        let a = mk(&[5, 9, 5]);
        let b = mk(&[5, 5, 9]);
        let proposals: Vec<u64> = vec![5, 9, 5];
        let ka = test_key(&a, Symmetry::Full, &proposals, 1);
        let kb = test_key(&b, Symmetry::Full, &proposals, 1);
        assert_eq!(ka, kb, "permuted configurations share one canonical key");
        let oa = test_key(&a, Symmetry::Off, &proposals, 1);
        let ob = test_key(&b, Symmetry::Off, &proposals, 1);
        assert_ne!(oa, ob, "Off keeps raw configurations distinct");
        // The canonical key still decodes as an ordinary key encoding.
        let mut input = ka.as_slice();
        assert!(crate::memo::decode_key_prefix::<Gossip>(&mut input).is_some());
        assert!(input.is_empty());
    }

    /// Walks one seeded pseudo-random CRW path at `(4, 2)` (binary
    /// proposals, optionally bit-flipped), returning every prefix
    /// configuration.  The same seed drives the same action *indices*
    /// regardless of the proposal polarity, which is what makes the
    /// plain and flipped walks value mirrors of each other.
    fn crw_walk(
        flip: bool,
        mut state: u64,
    ) -> Vec<Stepper<twostep_core::Crw<twostep_model::WideValue>>> {
        let system = SystemConfig::new(4, 2).unwrap();
        let proposals: Vec<twostep_model::WideValue> = (0..4)
            .map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ (flip as u64)))
            .collect();
        let procs = twostep_core::crw_processes(&system, &proposals);
        let shared = Shared::new(
            system,
            options(6, 1_000_000),
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let mut walker = Walker::new(&shared);
        let mut stepper =
            Stepper::new(system, ModelKind::Extended, TraceLevel::Off, procs).unwrap();
        let mut out = vec![stepper.clone()];
        while !walker.is_terminal(&stepper) {
            let actions = walker.enumerate_action_sets(&stepper);
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize % actions.len();
            stepper.step(&actions[pick]).unwrap();
            out.push(stepper.clone());
        }
        out
    }

    /// The incremental canonicalization contract: a child key computed
    /// from the parent's carried (pre-sorted) settled pool is
    /// byte-identical to the key computed from scratch — for both the
    /// plain and the swapped encoding, and so is the seed it extracts
    /// for the next generation.  This is what licenses the hot path to
    /// sort only the per-step settled delta.
    #[test]
    fn seeded_incremental_key_matches_unseeded() {
        let t = 2usize;
        for seed in [1u64, 7, 42, 0xBAD5EED] {
            let walk = crw_walk(false, seed);
            let mut canon = Canonicalizer::new();
            // (seed for this encoding, parent status) carried per pass.
            let mut carried: Option<([CanonSeed; 2], Vec<ProcStatus>)> = None;
            for stepper in &walk {
                let mut inert = Vec::new();
                compute_inert_flags(stepper, t, &mut inert);
                let mut next_seeds: [CanonSeed; 2] = Default::default();
                for (pass, swap) in [(0usize, false), (1usize, true)] {
                    let (mut fresh, mut fresh_seed) = (Vec::new(), CanonSeed::default());
                    tier_key_into(
                        stepper,
                        CanonTier::SettledInert,
                        swap,
                        &inert,
                        None,
                        &mut canon,
                        &mut fresh,
                        Some(&mut fresh_seed),
                    );
                    if let Some((seeds, parent_status)) = &carried {
                        let (mut seeded, mut seeded_seed) = (Vec::new(), CanonSeed::default());
                        tier_key_into(
                            stepper,
                            CanonTier::SettledInert,
                            swap,
                            &inert,
                            Some((&seeds[pass], parent_status)),
                            &mut canon,
                            &mut seeded,
                            Some(&mut seeded_seed),
                        );
                        assert_eq!(
                            fresh, seeded,
                            "seed={seed} swap={swap}: seeded key must match unseeded"
                        );
                        assert_eq!(
                            (&fresh_seed.bytes, &fresh_seed.ends),
                            (&seeded_seed.bytes, &seeded_seed.ends),
                            "seed={seed} swap={swap}: extracted seeds must match"
                        );
                    }
                    next_seeds[pass] = fresh_seed;
                }
                carried = Some((next_seeds, stepper.status().to_vec()));
            }
        }
    }

    proptest::proptest! {
        /// The value-symmetry normal form: walking CRW with bit-flipped
        /// proposals under the *same* adversary choices produces the
        /// value-mirror of every configuration, and the
        /// `partial+value` canonical key — the lexicographic minimum
        /// over both encodings — must agree on each mirrored pair,
        /// while staying a valid, self-delimiting key encoding.  The
        /// plain (swap-free) partial keys must instead tell the two
        /// polarities apart at the root.
        #[test]
        fn value_quotient_key_is_involution_invariant(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let t = 2usize;
            let walk_a = crw_walk(false, seed);
            let walk_b = crw_walk(true, seed);
            proptest::prop_assert_eq!(walk_a.len(), walk_b.len(), "mirrored walks must pace together");
            let proposals_a: Vec<twostep_model::WideValue> =
                (0..4).map(|i| twostep_model::WideValue::new(1, (i as u64) % 2)).collect();
            let proposals_b: Vec<twostep_model::WideValue> =
                (0..4).map(|i| twostep_model::WideValue::new(1, ((i as u64) % 2) ^ 1)).collect();
            for (i, (a, b)) in walk_a.iter().zip(&walk_b).enumerate() {
                let ka = test_key(a, Symmetry::PartialValue, &proposals_a, t);
                let kb = test_key(b, Symmetry::PartialValue, &proposals_b, t);
                proptest::prop_assert_eq!(
                    &ka, &kb,
                    "step {}: mirrored configurations must share one partial+value key", i
                );
                let mut input = ka.as_slice();
                let decoded = crate::memo::decode_key_prefix::<twostep_core::Crw<twostep_model::WideValue>>(&mut input);
                proptest::prop_assert!(decoded.is_some(), "step {} key must decode", i);
                proptest::prop_assert!(input.is_empty(), "step {} key must be self-delimiting", i);
            }
            let pa = test_key(&walk_a[0], Symmetry::Partial, &proposals_a, t);
            let pb = test_key(&walk_b[0], Symmetry::Partial, &proposals_b, t);
            proptest::prop_assert_ne!(
                pa, pb,
                "without the value quotient the two polarities are distinct states"
            );
        }
    }

    /// Census semantics under symmetry: same rounds, counts never grow,
    /// and a round has bivalent orbits iff it had bivalent
    /// configurations.
    fn assert_census_shrinks(off: &ExploreReport<u64>, full: &ExploreReport<u64>, label: &str) {
        assert_eq!(
            off.bivalency_by_round.len(),
            full.bivalency_by_round.len(),
            "{label}: census rounds"
        );
        for ((r_off, c_off, b_off), (r_full, c_full, b_full)) in
            off.bivalency_by_round.iter().zip(&full.bivalency_by_round)
        {
            assert_eq!(r_off, r_full, "{label}: census round order");
            assert!(
                c_full <= c_off,
                "{label}: round {r_off} orbit count {c_full} > raw count {c_off}"
            );
            assert!(b_full <= b_off, "{label}: round {r_off} bivalent counts");
            assert_eq!(
                *b_off > 0,
                *b_full > 0,
                "{label}: round {r_off} bivalency presence"
            );
        }
    }

    /// Settled-record canonicalization (the strength every protocol
    /// gets, the rank-dependent `Flooder` included) is summary-exact:
    /// the root summary — `decided` order included — matches `Off`
    /// bit for bit while the state count shrinks or holds.
    #[test]
    fn settled_canonicalization_is_summary_exact_for_rank_dependent_protocols() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let off = explore(
            system,
            options(4, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(4, 2_000_000)
            },
            procs,
            proposals,
        )
        .unwrap();
        assert_eq!(off.root, full.root, "settled-only merges are bit-identical");
        assert!(
            full.distinct_states < off.distinct_states,
            "crashed/decided permutations must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        assert_census_shrinks(&off, &full, "flooder");
    }

    /// The full-orbit quotient for a pid-symmetric protocol: verdicts
    /// and per-`f` worst rounds are identical, valency agrees as a set,
    /// the witness remains a real violating execution, and the state
    /// count strictly drops (permuted actives merge).
    #[test]
    fn full_orbit_quotient_matches_off_for_pid_symmetric_protocols() {
        let system = SystemConfig::new(3, 2).unwrap();
        let procs = gossip_procs(3, &[5, 5, 9]);
        let proposals = vec![5u64, 5, 9];
        let off = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(3, 2_000_000)
            },
            procs,
            proposals,
        )
        .unwrap();
        assert_eq!(off.root.terminals, full.root.terminals);
        assert_eq!(off.root.worst_round_by_f, full.root.worst_round_by_f);
        assert_eq!(off.root.violating, full.root.violating);
        let sorted = |mut v: Vec<u64>| {
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(off.root.decided.clone()),
            sorted(full.root.decided.clone()),
            "valency agrees as a set (order may follow the orbit representative)"
        );
        assert!(
            full.distinct_states < off.distinct_states,
            "permuted actives must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        assert_census_shrinks(&off, &full, "gossip");
    }

    /// A violating pid-symmetric space must still reconstruct a valid
    /// witness under the quotient: the schedule is a real execution's
    /// (re-driven from the true initial configuration, not decoded from
    /// a canonical representative) and its violations are non-empty.
    #[test]
    fn symmetric_witness_is_a_real_execution() {
        let system = SystemConfig::new(3, 2).unwrap();
        let initial = vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }, DecideOwn { v: 1 }];
        let proposals = vec![0u64, 1, 1];
        let off = explore(
            system,
            options(2, 100_000),
            initial.clone(),
            proposals.clone(),
        )
        .unwrap();
        let full = explore(
            system,
            ExploreConfig {
                symmetry: Symmetry::Full,
                ..options(2, 100_000)
            },
            initial,
            proposals,
        )
        .unwrap();
        assert!(off.root.violating && full.root.violating);
        assert!(
            full.distinct_states < off.distinct_states,
            "settled permutations of (decided, crashed) must merge: {} !< {}",
            full.distinct_states,
            off.distinct_states
        );
        let witness = full.witness.expect("witness under symmetry");
        assert!(
            witness
                .violations
                .iter()
                .any(|v| matches!(v, SpecViolation::UniformAgreement { .. })),
            "witness carries the uniform-agreement violation"
        );
        assert!(
            witness.decisions.iter().flatten().count() >= 2,
            "violating terminal has at least two deciders"
        );
    }

    /// Witness reconstruction reads summaries back through the two-tier
    /// memo; a violating space must yield the same witness spilled.
    #[test]
    fn spilled_witness_matches_ram_witness() {
        let system = SystemConfig::new(2, 1).unwrap();
        let ram = explore(
            system,
            options(2, 100_000),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let spilled = explore_with(
            system,
            options(2, 100_000),
            ExploreOptions::serial().with_memo(MemoConfig::spill(4)),
            vec![DecideOwn { v: 0 }, DecideOwn { v: 1 }],
            vec![0u64, 1],
        )
        .unwrap();
        let ws = ram.witness.expect("ram witness");
        let wp = spilled.witness.expect("spilled witness");
        assert_eq!(format!("{:?}", ws.schedule), format!("{:?}", wp.schedule));
        assert_eq!(ws.decisions, wp.decisions);
    }

    /// Budget env resolvers: unset is unlimited, digits parse, and
    /// garbage warns instead of being silently ignored — the
    /// `resolve_threads` policy.
    #[test]
    fn budget_resolvers_follow_the_warn_once_policy() {
        assert_eq!(resolve_max_steps(None), (None, None));
        assert_eq!(resolve_max_steps(Some("123")), (Some(123), None));
        assert_eq!(resolve_max_steps(Some(" 7 ")), (Some(7), None));
        assert_eq!(resolve_max_steps(Some("0")), (Some(0), None));
        let (steps, warning) = resolve_max_steps(Some("soon"));
        assert_eq!(steps, None);
        assert!(warning.unwrap().contains("TWOSTEP_MAX_STEPS=\"soon\""));
        let (steps, warning) = resolve_max_steps(Some("-3"));
        assert_eq!(steps, None);
        assert!(warning.is_some());

        assert_eq!(resolve_deadline_ms(None), (None, None));
        assert_eq!(
            resolve_deadline_ms(Some("250")),
            (Some(Duration::from_millis(250)), None)
        );
        let (deadline, warning) = resolve_deadline_ms(Some("1.5s"));
        assert_eq!(deadline, None);
        assert!(warning.unwrap().contains("TWOSTEP_DEADLINE_MS=\"1.5s\""));
    }

    #[test]
    fn unlimited_budget_is_unlimited() {
        assert!(WalkBudget::unlimited().is_unlimited());
        let budget = WalkBudget {
            max_steps: Some(1),
            ..WalkBudget::unlimited()
        };
        assert!(!budget.is_unlimited());
    }

    /// An exhausted step budget with no cache configured suspends with
    /// `cache: None` — the partial work is discarded but the
    /// error still names the budget and the progress made.  The
    /// min-progress guarantee means even `max_steps: 0` memoizes at
    /// least one fresh configuration before suspending.
    #[test]
    fn step_budget_without_cache_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_steps: Some(0),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        match err {
            ExploreError::Interrupted {
                reason,
                cache,
                states,
            } => {
                assert_eq!(reason, BudgetKind::Steps);
                assert_eq!(cache, None);
                assert!(states >= 1, "min-progress: at least one fresh state");
            }
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    /// An already-expired deadline suspends promptly and is attributed
    /// to the deadline budget.
    #[test]
    fn expired_deadline_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                deadline: Some(Duration::ZERO),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Interrupted {
                    reason: BudgetKind::Deadline,
                    cache: None,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    /// A one-byte memo ceiling trips as soon as anything is memoized.
    #[test]
    fn memo_byte_ceiling_interrupts() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let err = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_memo_bytes: Some(1),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExploreError::Interrupted {
                    reason: BudgetKind::MemoBytes,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    /// Cooperative yields are scheduling-only: a walk that yields every
    /// step produces the bit-identical report.
    #[test]
    fn yield_every_step_changes_nothing() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let plain = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let yielding = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                yield_every: Some(1),
                ..WalkBudget::unlimited()
            }),
            procs,
            proposals,
        )
        .unwrap();
        assert_reports_identical(&plain, &yielding, "yield-every-step");
    }

    /// A generous budget that never trips must not perturb the walk:
    /// same report, same state count, same census.
    #[test]
    fn non_tripping_budget_is_bit_identical() {
        let system = SystemConfig::new(3, 2).unwrap();
        let (procs, proposals) = flooder_procs(3);
        let plain = explore(
            system,
            options(3, 2_000_000),
            procs.clone(),
            proposals.clone(),
        )
        .unwrap();
        let budgeted = explore_with(
            system,
            options(3, 2_000_000),
            ExploreOptions::serial().with_budget(WalkBudget {
                max_steps: Some(u64::MAX),
                deadline: Some(Duration::from_secs(86_400)),
                max_memo_bytes: Some(u64::MAX),
                yield_every: None,
            }),
            procs,
            proposals,
        )
        .unwrap();
        assert_reports_identical(&plain, &budgeted, "non-tripping budget");
    }

    /// Crash-safety autosave ([`CacheConfig::autosave_every`]): a
    /// single-threaded walk commits *periodically* at `Yield` points, so
    /// even an abort that commits nothing itself (a `StateLimit` trip at
    /// the raw [`walk_roots`] layer) leaves a warm-startable cache
    /// behind — at most one interval of work is lost — and however many
    /// saves ran, the session added exactly one segment.
    #[test]
    fn autosave_commits_survive_an_unclean_abort() {
        let system = SystemConfig::new(4, 2).unwrap();
        let (procs, proposals) = flooder_procs(4);
        let dir =
            std::env::temp_dir().join(format!("twostep-autosave-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CacheConfig::read_write(&dir).with_autosave_every(4);
        let mut session = CacheSession::open(Some(cache.clone()), 42);
        // Small enough to trip mid-walk, large enough for several
        // autosave intervals first.
        let config = options(4, 64);
        let shared = Shared::new(
            system,
            config,
            &ExploreOptions::serial(),
            &proposals,
            procs.clone(),
        )
        .unwrap();
        let root = Stepper::new(system, config.model, TraceLevel::Off, procs.clone()).unwrap();
        let err = match walk_roots(
            &shared,
            1,
            vec![root],
            &WalkBudget::unlimited(),
            Instant::now(),
            Some(Autosave {
                session: Mutex::new(&mut session),
                every: 4,
            }),
        ) {
            Err(e) => e,
            Ok(_) => panic!("a 64-state budget must trip on this system"),
        };
        assert_eq!(err, ExploreError::StateLimit { budget: 64 });
        // The abort itself committed nothing — whatever is on disk came
        // from the periodic autosaves during the walk.
        let probe =
            Shared::new(system, config, &ExploreOptions::serial(), &proposals, procs).unwrap();
        let mut reopened = CacheSession::open(Some(cache), 42);
        assert_eq!(reopened.segments().len(), 1, "one session, one segment");
        let records = reopened
            .seed(&probe.memo, crate::memo::key_validator::<Flooder>())
            .expect("autosaved segments import whole");
        assert!(records > 0, "autosave captured fresh states");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
