//! Persistent result cache: compressed, fingerprinted memo segments
//! that warm-start serial, parallel, and partitioned exploration — and
//! the one on-disk store a suspended walk resumes from.
//!
//! Re-exploring millions of identical configurations on every invocation
//! is the engine's single biggest waste: the memo is deterministic — a
//! key's summary is a pure function of the key — so a previous run's
//! memo image answers every repeated subtree instantly.  This module
//! makes that image durable.  A **cache directory** holds:
//!
//! * one or more sealed interchange segment files (the format of
//!   [`crate::spill`], compressed records, CRC-validated) — the first is
//!   a full memo image, later ones are **delta segments** appended by
//!   warm runs that discovered new states;
//! * a **manifest** (`manifest.twocache`) binding those segments to a
//!   64-bit **fingerprint** of everything that determines their
//!   contents: the segment format version, the system `(n, t)`, the
//!   exploration-relevant [`ExploreConfig`] options (the symmetry
//!   strength included), and the protocol / proposal identity via
//!   [`CheckableProtocol::fingerprint`] (a
//!   [`stable_hash64`](twostep_model::codec::stable_hash64) of each
//!   initial process's [`SpillCodec`] encoding).
//!
//! A run that opens the cache with a **matching** fingerprint pre-seeds
//! its memo from the segments before walking; the walk then
//! short-circuits on every memoized subtree, and in the fully-warm case
//! touches exactly the root.  A **mismatched** or unreadable manifest is
//! **loudly ignored** — one stderr line, then a cold run — never
//! silently reused: a stale summary is undetectable downstream, so the
//! only safe policies are "provably same run" and "start over".  In
//! [`CacheMode::ReadWrite`] the run then commits back: a matching cache
//! gains one delta segment holding only the newly inserted entries
//! (nothing at all if the walk was fully warm); a stale or absent cache
//! is replaced wholesale (fresh manifest, single full segment, orphaned
//! segment files of the previous fingerprint removed).  A session adds
//! at most one segment: a later commit of the same session (a periodic
//! [`autosave`](CacheConfig::autosave_every), then the final one)
//! rewrites that segment by write-then-rename.
//!
//! **Suspension is a commit.**  A walk suspended by its
//! [`WalkBudget`](crate::WalkBudget) — or aborted by the `max_states`
//! valve — under a ReadWrite cache commits its memo like a finished run,
//! and resuming is a plain warm start.  The *partial* image is safe
//! because it is **descendant-closed**: memo inserts happen only at
//! frame pop or terminal entry, after every child is memoized, so once
//! the walkers have joined every memoized configuration's whole subtree
//! is memoized too.  The seed it was walked over is closed as well, and
//! segments are append-only under one fingerprint, so the union a later
//! run imports is closed: a resumed walk fast-forwards through memo hits
//! and its report is bit-identical to an uninterrupted one
//! (`tests/checkpoint_differential.rs`).  A strength change is no
//! special case: the strength is fingerprinted, so a partial image keyed
//! at another strength is loudly ignored and replaced like any other
//! foreign cache.
//!
//! The cache is an *optimization*, so cache failures never fail an
//! exploration: a segment that fails validation mid-import declares the
//! whole cache broken — the partial seed is **discarded** and the run
//! explores cold (a partial *import*, unlike a partial walk, is not
//! descendant-closed: a seeded parent short-circuits the walk above its
//! missing descendants, silently shrinking `distinct_states` and the
//! census) — and a failed commit warns and moves on.  What the cache
//! can never do is change a report: cold and warm runs are bit-identical
//! by the same argument that makes thread counts and worker processes
//! invisible (see [`crate::explorer`]'s determinism section).
//!
//! The `max_states` budget is deliberately **excluded** from the
//! fingerprint: it is a resource safety valve, not part of the
//! deterministic result, so raising it must not invalidate a cache —
//! which is also what lets a `StateLimit`-suspended run resume with a
//! raised valve.

use std::hash::Hash;
use std::path::{Path, PathBuf};

use twostep_model::SystemConfig;
use twostep_sim::ModelKind;

use crate::explorer::{CheckableProtocol, ExploreConfig, RoundBound, SpecMode};
use crate::memo::ShardedMemo;
use crate::spill::{crc32, SpillCodec, SpillError, FORMAT_VERSION};

/// File name of the cache manifest inside a cache directory.
pub const MANIFEST_NAME: &str = "manifest.twocache";

/// First 8 bytes of a manifest file.
const CACHE_MAGIC: [u8; 8] = *b"TWOCACHE";

/// Manifest format version; independent of the segment
/// [`FORMAT_VERSION`], which is fingerprinted separately.
const CACHE_FORMAT_VERSION: u32 = 1;

/// Exploration **semantics** version, mixed into every run fingerprint.
///
/// Bump this whenever a change alters what the explorer computes for a
/// given input — summary merging, terminal evaluation, spec checking,
/// key construction, a protocol's step semantics — even though no file
/// *format* changed.  Cached summaries are the checker's outputs frozen
/// to disk; without this knob a semantic fix would fingerprint-match
/// old caches and silently reproduce pre-fix (wrong) reports, which is
/// exactly the failure the loud-ignore policy exists to prevent.
///
/// Version 2: configurations are merged by canonical key *bytes*
/// (hashed with [`twostep_model::codec::stable_hash64`]) instead of
/// structured snapshot comparison, and
/// [`CheckableProtocol::fingerprint`] switched to the same hasher.  The
/// v4 segment format bump invalidates v3-era caches by itself; this
/// bump records that the key path changed too.
///
/// Version 3: symmetry reduction ([`crate::Symmetry`]) — the key path
/// gained canonicalization modulo pid permutation, and the fingerprint
/// gained the run's *effective canonicalization strength* byte.  The
/// strength byte keeps `Off` and `Full` caches apart from here on; the
/// version bump keeps every version-2 cache (written before the byte
/// existed) from fingerprint-matching a version-3 `Off` run.
///
/// Version 4: effect-pruned adversary enumeration plus the deeper
/// symmetry tiers.  The enumeration now keeps one representative per
/// *live-effect* class of crash outcomes (deliveries to settled
/// receivers are effect-free), which changes every summary's `terminals`
/// count **at every symmetry mode, including `Off`** — so every
/// version-3 cache is stale, not just symmetry-reduced ones.  The key
/// path also gained the partial (rank-inert, tag `3`) and value-swapped
/// canonical layouts, and the strength byte became the
/// [`SymmetryPlan`](crate::explorer) encoding (tier code plus value
/// bit).
const EXPLORER_LOGIC_VERSION: u32 = 4;

/// How a run uses the persistent cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheMode {
    /// Seed the memo from the cache; never write back.
    Read,
    /// Seed the memo from the cache and commit this run's newly
    /// discovered entries back as a delta segment (or replace a stale /
    /// absent cache with a fresh full image).
    ReadWrite,
}

/// Persistent-cache configuration on [`crate::ExploreOptions::cache`]
/// and [`crate::DistOptions::cache`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheConfig {
    /// The cache directory (created on first ReadWrite commit).
    pub dir: PathBuf,
    /// Read-only or read-write.
    pub mode: CacheMode,
    /// Crash-safety autosave for single-threaded
    /// [`explore_with`](crate::explore_with) walks under
    /// [`CacheMode::ReadWrite`]: every this-many steps the walk parks at
    /// a `Yield` point and commits its memo (rewriting the session's
    /// one delta segment), so a crash loses at most one interval of
    /// work.  `None` (the default) commits only at completion and at
    /// suspension.
    pub autosave_every: Option<u64>,
}

impl CacheConfig {
    /// A read-only cache at `dir`.
    pub fn read(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            mode: CacheMode::Read,
            autosave_every: None,
        }
    }

    /// A read-write cache at `dir`.
    pub fn read_write(dir: impl Into<PathBuf>) -> Self {
        CacheConfig {
            dir: dir.into(),
            mode: CacheMode::ReadWrite,
            autosave_every: None,
        }
    }

    /// Also autosave every `steps` steps (see
    /// [`autosave_every`](Self::autosave_every)).
    pub fn with_autosave_every(mut self, steps: u64) -> Self {
        self.autosave_every = Some(steps);
        self
    }
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, chained from `state` (seed with
/// [`fnv1a_start`]).  Stable across platforms and builds — unlike
/// `DefaultHasher`, whose algorithm the standard library may change —
/// which is what a fingerprint persisted to disk requires.
pub(crate) fn fnv1a(bytes: &[u8], mut state: u64) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// The FNV-1a initial state.
pub(crate) fn fnv1a_start() -> u64 {
    FNV_OFFSET
}

/// The stable 64-bit fingerprint of one exploration: everything that
/// determines the memo's contents.  Two runs with equal fingerprints
/// memoize identical `key → summary` mappings, so one may safely reuse
/// the other's segments; any difference — another protocol snapshot,
/// another proposal vector, another model, another round cap — lands in
/// different fingerprints and the cache is ignored.
pub fn run_fingerprint<P>(
    system: SystemConfig,
    config: &ExploreConfig,
    initial: &[P],
    proposals: &[P::Output],
) -> u64
where
    P: CheckableProtocol,
    P::Output: Hash + SpillCodec,
{
    let mut buf: Vec<u8> = Vec::with_capacity(64);
    FORMAT_VERSION.encode(&mut buf);
    CACHE_FORMAT_VERSION.encode(&mut buf);
    EXPLORER_LOGIC_VERSION.encode(&mut buf);
    system.n().encode(&mut buf);
    system.t().encode(&mut buf);
    buf.push(match config.model {
        ModelKind::Extended => 0,
        ModelKind::Classic => 1,
    });
    config.max_rounds.encode(&mut buf);
    // max_states deliberately omitted: a resource valve, not a result.
    match config.round_bound {
        None => buf.push(0),
        Some(RoundBound::FPlus(c)) => {
            buf.push(1);
            c.encode(&mut buf);
        }
        Some(RoundBound::ClassicEarly { t }) => {
            buf.push(2);
            t.encode(&mut buf);
        }
        Some(RoundBound::Fixed(b)) => {
            buf.push(3);
            b.encode(&mut buf);
        }
        Some(RoundBound::Scaled { base, per_f }) => {
            buf.push(4);
            base.encode(&mut buf);
            per_f.encode(&mut buf);
        }
    }
    buf.push(match config.spec {
        SpecMode::Uniform => 0,
        SpecMode::NonUniform => 1,
    });
    config.max_crashes_per_round.encode(&mut buf);
    // The *effective* canonicalization strength (the resolved
    // [`SymmetryPlan`](crate::explorer) byte: tier code + value bit),
    // not just the configured mode: `pid_symmetric` / `value_symmetric`
    // are type-level declarations and value applicability depends on
    // the proposal set — any of them can change between builds without
    // any encoding changing, and a cache keyed at the other strength
    // holds a differently quotiented state space.
    buf.push(config.symmetry.plan::<P>(proposals).strength());
    let mut state = fnv1a(&buf, fnv1a_start());
    for process in initial {
        state = fnv1a(&process.fingerprint().to_le_bytes(), state);
    }
    for proposal in proposals {
        buf.clear();
        proposal.encode(&mut buf);
        state = fnv1a(&buf, state);
    }
    state
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// The parsed manifest: the fingerprint its segments were produced
/// under, and their file names (relative to the cache dir, oldest
/// first — import order is irrelevant, but deterministic is tidy).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Manifest {
    pub(crate) fingerprint: u64,
    pub(crate) segments: Vec<String>,
}

impl Manifest {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CACHE_MAGIC);
        CACHE_FORMAT_VERSION.encode(&mut out);
        self.fingerprint.encode(&mut out);
        (self.segments.len() as u32).encode(&mut out);
        for name in &self.segments {
            (name.len() as u32).encode(&mut out);
            out.extend_from_slice(name.as_bytes());
        }
        let crc = crc32(&out);
        crc.encode(&mut out);
        out
    }

    fn parse(bytes: &[u8]) -> Option<Manifest> {
        if bytes.len() < 8 + 4 + 4 || bytes[..8] != CACHE_MAGIC {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let mut crc_input = crc_bytes;
        if u32::decode(&mut crc_input)? != crc32(body) {
            return None;
        }
        let mut input = &body[8..];
        if u32::decode(&mut input)? != CACHE_FORMAT_VERSION {
            return None;
        }
        let fingerprint = u64::decode(&mut input)?;
        let count = u32::decode(&mut input)? as usize;
        let mut segments = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let len = u32::decode(&mut input)? as usize;
            let raw = twostep_model::codec::take(&mut input, len)?;
            let name = std::str::from_utf8(raw).ok()?.to_string();
            // Segment names are flat file names inside the cache dir; a
            // name that escapes it is not something we ever wrote.
            if name.is_empty() || name.contains(['/', '\\']) || name == ".." {
                return None;
            }
            segments.push(name);
        }
        input.is_empty().then_some(Manifest {
            fingerprint,
            segments,
        })
    }
}

/// Whether `name` follows the cache's own segment naming —
/// `seg-<16 hex fingerprint>-<6 digit index>.seg` — the only files a
/// commit's garbage collection is allowed to remove.
fn is_cache_segment_name(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("seg-") else {
        return false;
    };
    let Some(rest) = rest.strip_suffix(".seg") else {
        return false;
    };
    let Some((fingerprint, index)) = rest.split_once('-') else {
        return false;
    };
    fingerprint.len() == 16
        && fingerprint.chars().all(|c| c.is_ascii_hexdigit())
        && index.len() == 6
        && index.chars().all(|c| c.is_ascii_digit())
}

/// Atomically (write-then-rename) writes `manifest` into `dir`.
fn write_manifest(dir: &Path, manifest: &Manifest) -> Result<(), SpillError> {
    let tmp = dir.join(format!("{MANIFEST_NAME}.tmp-{}", std::process::id()));
    crate::faults::shim_fs_write(&tmp, &manifest.to_bytes())
        .map_err(|e| SpillError::io(&format!("writing manifest {}", tmp.display()), e))?;
    std::fs::rename(&tmp, dir.join(MANIFEST_NAME))
        .map_err(|e| SpillError::io("renaming manifest into place", e))
}

// ---------------------------------------------------------------------------
// Cache session
// ---------------------------------------------------------------------------

/// What opening the cache found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CacheState {
    /// No cache configured.
    Disabled,
    /// Configured, but no manifest exists yet (first run, or the dir is
    /// missing entirely).
    Empty,
    /// A manifest exists but cannot be used: unreadable/corrupt
    /// (`found: None`) or fingerprint mismatch (`found: Some(fp)`).
    /// Always reported loudly; never reused.
    Stale { found: Option<u64> },
    /// A valid manifest with a matching fingerprint.
    Ready,
}

/// One exploration's handle on the persistent cache: open → [`seed`] the
/// memo → explore → [`commit`] the delta (at completion, at suspension,
/// and at each autosave).  Constructed unconditionally (a `None` config
/// yields an inert session) so call sites stay linear.
///
/// [`seed`]: Self::seed
/// [`commit`]: Self::commit
pub(crate) struct CacheSession {
    config: Option<CacheConfig>,
    fingerprint: u64,
    state: CacheState,
    manifest: Option<Manifest>,
    /// This session's own delta segment, once a commit has listed it in
    /// the manifest; later commits rewrite it instead of adding another.
    own_segment: Option<String>,
}

impl CacheSession {
    /// Opens the cache and classifies its state, warning on stderr when
    /// a manifest exists but cannot be used (wrong fingerprint, corrupt,
    /// unreadable) — the loud-ignore policy.
    pub(crate) fn open(config: Option<CacheConfig>, fingerprint: u64) -> CacheSession {
        let (state, manifest) = match &config {
            None => (CacheState::Disabled, None),
            Some(cache) => {
                let path = cache.dir.join(MANIFEST_NAME);
                match std::fs::read(&path) {
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => (CacheState::Empty, None),
                    Err(e) => {
                        eprintln!(
                            "twostep: cache manifest {} is unreadable ({e}); \
                             ignoring the cache and exploring cold",
                            path.display()
                        );
                        (CacheState::Stale { found: None }, None)
                    }
                    Ok(bytes) => match Manifest::parse(&bytes) {
                        None => {
                            eprintln!(
                                "twostep: cache manifest {} is corrupt; \
                                 ignoring the cache and exploring cold",
                                path.display()
                            );
                            (CacheState::Stale { found: None }, None)
                        }
                        Some(manifest) if manifest.fingerprint != fingerprint => {
                            eprintln!(
                                "twostep: cache {} was produced by a different run \
                                 (fingerprint {:016x}, this run is {fingerprint:016x}); \
                                 ignoring it and exploring cold",
                                cache.dir.display(),
                                manifest.fingerprint
                            );
                            (
                                CacheState::Stale {
                                    found: Some(manifest.fingerprint),
                                },
                                None,
                            )
                        }
                        Some(manifest) => (CacheState::Ready, Some(manifest)),
                    },
                }
            }
        };
        CacheSession {
            config,
            fingerprint,
            state,
            manifest,
            own_segment: None,
        }
    }

    /// Whether commits write anything: a configured
    /// [`CacheMode::ReadWrite`] cache.  Only such a session makes a
    /// suspension resumable.
    pub(crate) fn writable(&self) -> bool {
        matches!(&self.config, Some(cache) if cache.mode == CacheMode::ReadWrite)
    }

    /// The opened state (asserted by the unit tests).
    #[cfg(test)]
    pub(crate) fn state(&self) -> &CacheState {
        &self.state
    }

    /// Absolute paths of the usable cache segments (empty unless
    /// [`CacheState::Ready`]).
    pub(crate) fn segments(&self) -> Vec<PathBuf> {
        let (Some(cache), Some(manifest)) = (&self.config, &self.manifest) else {
            return Vec::new();
        };
        manifest
            .segments
            .iter()
            .map(|name| cache.dir.join(name))
            .collect()
    }

    /// Pre-seeds `memo` from every usable cache segment, **all or
    /// nothing**.  `Some(records)` on success; `None` if any segment
    /// failed validation mid-import, in which case the cache is
    /// declared broken (downgraded to stale, so a ReadWrite commit
    /// replaces it) and the **caller must discard `memo` and start
    /// cold**: although every record that passed its CRC is an exact
    /// `(key, summary)` pair, a *partial* image is unsafe for the
    /// report's aggregates — a seeded parent short-circuits the walk, so
    /// its missing descendants would never be re-counted and
    /// `distinct_states` / the bivalency census would silently shrink.
    pub(crate) fn seed<O, V>(&mut self, memo: &ShardedMemo<O>, validate_key: V) -> Option<u64>
    where
        O: Clone + Eq + SpillCodec,
        V: Fn(&[u8]) -> bool,
    {
        let mut records = 0u64;
        for path in self.segments() {
            match memo.import_seed_from(&path, &validate_key) {
                Ok(n) => records += n,
                Err(e) => {
                    eprintln!(
                        "twostep: cache segment {} failed to import ({e}); \
                         discarding the cache and exploring cold",
                        path.display()
                    );
                    self.state = CacheState::Stale { found: None };
                    self.manifest = None;
                    return None;
                }
            }
        }
        Some(records)
    }

    /// Commits this run's newly discovered entries back to the cache
    /// (ReadWrite mode only; Read and disabled sessions are no-ops).
    ///
    /// * [`CacheState::Ready`] — adds one delta segment holding only the
    ///   fresh entries, or touches nothing if the run was fully warm;
    /// * [`CacheState::Empty`] / [`CacheState::Stale`] — replaces the
    ///   cache wholesale: a fresh full segment, a fresh manifest under
    ///   this run's fingerprint, and orphaned `.seg` files removed.
    ///
    /// Either way the session then owns that one segment, and a later
    /// commit (an autosave, then the final one) rewrites it with the
    /// grown delta by write-then-rename — the manifest never lists a
    /// half-written segment.  Returns the cache directory when it now
    /// holds this memo's whole image.  Write failures warn and return
    /// `None`; they never fail the exploration.
    pub(crate) fn commit<O>(&mut self, memo: &ShardedMemo<O>) -> Option<PathBuf>
    where
        O: Clone + Eq + SpillCodec,
    {
        if !self.writable() {
            return None;
        }
        let dir = self.config.as_ref()?.dir.clone();
        match self.try_commit(&dir, memo) {
            Ok(()) => Some(dir),
            Err(e) => {
                eprintln!(
                    "twostep: failed to commit cache {} ({e}); \
                     this run's new states are not saved",
                    dir.display()
                );
                None
            }
        }
    }

    fn try_commit<O>(&mut self, dir: &Path, memo: &ShardedMemo<O>) -> Result<(), SpillError>
    where
        O: Clone + Eq + SpillCodec,
    {
        if self.state == CacheState::Ready && memo.len() == memo.seeded_len() {
            // Fully warm: the cache already holds everything this run
            // observed.  Touch nothing.
            return Ok(());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| SpillError::io(&format!("creating cache dir {}", dir.display()), e))?;
        let mut manifest = match (&self.state, &self.manifest) {
            (CacheState::Ready, Some(manifest)) => manifest.clone(),
            _ => Manifest {
                fingerprint: self.fingerprint,
                segments: Vec::new(),
            },
        };
        // Segment names carry the fingerprint, so replacing a *stale*
        // cache never writes over a file the old manifest still lists:
        // until the new manifest renames into place (atomic), a crash
        // mid-commit leaves the old manifest pointing exclusively at its
        // own intact segments — never at another fingerprint's data,
        // which every later run would silently trust.
        let name = match &self.own_segment {
            Some(name) => name.clone(),
            None => {
                let name = format!(
                    "seg-{:016x}-{:06}.seg",
                    self.fingerprint,
                    manifest.segments.len()
                );
                manifest.segments.push(name.clone());
                name
            }
        };
        // The delta is everything this run added beyond the seed; with
        // no seed imported (cold, stale, or empty cache) that is the
        // full memo image.  Written aside and renamed into place, so a
        // failed rewrite of a listed segment leaves the old one intact.
        let tmp = dir.join(format!("{name}.tmp-{}", std::process::id()));
        if let Err(e) = memo.export_delta(&tmp) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        std::fs::rename(&tmp, dir.join(&name))
            .map_err(|e| SpillError::io("renaming segment into place", e))?;
        if self.own_segment.is_some() {
            return Ok(());
        }
        write_manifest(dir, &manifest)?;
        // Garbage-collect segments of a replaced (stale) cache.  Only
        // files matching the cache's *own* naming are ever touched: a
        // user may point the cache at a directory that already holds
        // other `.seg` files (worker exports, archived segments), and a
        // commit must never destroy something it didn't write.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let file_name = entry.file_name();
                let Some(file_name) = file_name.to_str() else {
                    continue;
                };
                if is_cache_segment_name(file_name)
                    && !manifest.segments.iter().any(|s| s == file_name)
                {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        self.state = CacheState::Ready;
        self.manifest = Some(manifest);
        self.own_segment = Some(name);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Environment resolution (TWOSTEP_CACHE_DIR)
// ---------------------------------------------------------------------------

/// Pure resolution of a `TWOSTEP_CACHE_DIR` value: the cache root plus
/// an optional warning describing a loud fallback — the same policy as
/// `TWOSTEP_THREADS` (`twostep_sim::default_threads`): a set-but-useless
/// value is never silently honored *or* silently dropped.
pub(crate) fn resolve_cache_dir(raw: Option<&str>) -> (Option<PathBuf>, Option<String>) {
    let raw = match raw {
        None => return (None, None),
        Some(raw) => raw,
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return (
            None,
            Some("TWOSTEP_CACHE_DIR is set but empty; persistent cache disabled".to_string()),
        );
    }
    (Some(PathBuf::from(trimmed)), None)
}

/// Resolves the persistent-cache configuration from `TWOSTEP_CACHE_DIR`
/// (ReadWrite mode — the env knob is for "keep warming this directory
/// up" workflows).  Unset means no cache; a garbage value warns once on
/// stderr and disables the cache rather than panicking.  A path that
/// turns out to be unusable (e.g. an existing non-directory) is caught
/// later by the session's open/commit, which also warn-and-disable.
pub fn cache_from_env() -> Option<CacheConfig> {
    let raw = std::env::var("TWOSTEP_CACHE_DIR").ok();
    let (dir, warning) = resolve_cache_dir(raw.as_deref());
    if let Some(warning) = warning {
        static WARN_ONCE: std::sync::Once = std::sync::Once::new();
        WARN_ONCE.call_once(|| eprintln!("twostep: {warning}"));
    }
    dir.map(CacheConfig::read_write)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrips() {
        let manifest = Manifest {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            segments: vec!["seg-000000.seg".into(), "seg-000001.seg".into()],
        };
        let bytes = manifest.to_bytes();
        assert_eq!(Manifest::parse(&bytes), Some(manifest.clone()));

        // Any single-byte corruption must fail the CRC (or the shape
        // checks) — never parse to a different manifest.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert_ne!(
                Manifest::parse(&bad),
                Some(manifest.clone()),
                "flip at byte {i} must not parse identically"
            );
        }
        // Truncations never parse.
        for cut in 0..bytes.len() {
            assert_eq!(Manifest::parse(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn manifest_rejects_path_escapes() {
        let evil = Manifest {
            fingerprint: 1,
            segments: vec!["../../etc/passwd".into()],
        };
        assert_eq!(Manifest::parse(&evil.to_bytes()), None);
    }

    #[test]
    fn gc_only_matches_own_segment_names() {
        assert!(is_cache_segment_name("seg-0123456789abcdef-000000.seg"));
        assert!(is_cache_segment_name("seg-ABCDEF0123456789-000042.seg"));
        // Anything the cache didn't write must be left alone.
        assert!(!is_cache_segment_name("worker0.seg"));
        assert!(!is_cache_segment_name("seg-000000.seg"));
        assert!(!is_cache_segment_name(
            "seg-0123456789abcdef-000000.seg.bak"
        ));
        assert!(!is_cache_segment_name("seg-0123456789abcde-000000.seg")); // 15 hex
        assert!(!is_cache_segment_name("seg-0123456789abcdxx-000000.seg"));
        assert!(!is_cache_segment_name("seg-0123456789abcdef-00000.seg")); // 5 digits
        assert!(!is_cache_segment_name("archive.seg"));
    }

    #[test]
    fn resolve_cache_dir_policy() {
        assert_eq!(resolve_cache_dir(None), (None, None));
        let (dir, warning) = resolve_cache_dir(Some("  /tmp/twostep-cache "));
        assert_eq!(dir, Some(PathBuf::from("/tmp/twostep-cache")));
        assert!(warning.is_none());
        let (dir, warning) = resolve_cache_dir(Some("   "));
        assert_eq!(dir, None, "empty value disables the cache");
        let warning = warning.expect("empty value must warn, not be silently dropped");
        assert!(warning.contains("TWOSTEP_CACHE_DIR"), "{warning}");
    }

    #[test]
    fn fnv1a_is_stable() {
        // Pinned values: the fingerprint is persisted to disk, so the
        // hash must never drift between builds.
        assert_eq!(fnv1a(b"", fnv1a_start()), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", fnv1a_start()), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", fnv1a_start()), 0x85944171f73967e8);
    }

    #[test]
    fn open_classifies_missing_and_stale() {
        let dir = crate::spill::SpillDir::create(None).unwrap();
        let cache_dir = dir.path().join("cache");
        let config = Some(CacheConfig::read_write(&cache_dir));

        // Disabled and empty.
        assert_eq!(*CacheSession::open(None, 7).state(), CacheState::Disabled);
        assert_eq!(
            *CacheSession::open(config.clone(), 7).state(),
            CacheState::Empty
        );

        // A valid manifest under another fingerprint is stale.
        std::fs::create_dir_all(&cache_dir).unwrap();
        write_manifest(
            &cache_dir,
            &Manifest {
                fingerprint: 99,
                segments: Vec::new(),
            },
        )
        .unwrap();
        assert_eq!(
            *CacheSession::open(config.clone(), 7).state(),
            CacheState::Stale { found: Some(99) }
        );
        let ready = CacheSession::open(config.clone(), 99);
        assert_eq!(*ready.state(), CacheState::Ready);
        assert!(ready.segments().is_empty());

        // A corrupt manifest is stale with no recovered fingerprint.
        std::fs::write(cache_dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        assert_eq!(
            *CacheSession::open(config, 7).state(),
            CacheState::Stale { found: None }
        );
    }
}
