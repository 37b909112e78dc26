//! `Traced<P>`: a protocol wrapper that counts (and samples the time of)
//! every call the model checker makes across the protocol boundary.
//!
//! The checker sees the wrapper as just another [`CheckableProtocol`]:
//! every `SyncProtocol` and `SpillCodec` method forwards to the wrapped
//! protocol, so the explored state space, the cache fingerprint and the
//! symmetry plan are exactly those of the bare protocol.  A dropped
//! `SpillCodec` override would silently fall back to the trait default
//! (e.g. `pid_symmetric() == false`) and change the symmetry plan, which
//! is why each one is forwarded explicitly.
//!
//! `decode` is an associated function with no receiver, so the counters
//! are process-global.  Only one traced verification runs at a time, on
//! one walker thread.
//!
//! Calls are counted exactly; their time is sampled.  Reading the clock
//! around each of the millions of calls in one verification would cost
//! more than the calls themselves, so one call in [`SAMPLE_EVERY`] of
//! each kind is timed, the clock's own cost ([`timer_overhead_ns`]) is
//! taken off each sample, and the busy time is extrapolated from the
//! counts.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use twostep_model::{Round, SpillCodec, SymmetryContext};
use twostep_sim::{Inbox, SendPlan, Step, SyncProtocol};

/// One call in this many (per call kind) is timed.  Prime, so the sample
/// does not lock onto the per-process period of a round (`n = 7`).
const SAMPLE_EVERY: u64 = 61;

/// The kinds of protocol-boundary calls.
#[derive(Clone, Copy)]
enum Call {
    Send,
    Receive,
    Clone,
    Encode,
    Decode,
    /// Symmetry queries: `rank_inert` and `value_swapped`.
    Symmetry,
}

const KINDS: usize = 6;

static CALLS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static SAMPLED: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static SAMPLED_NS: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];

/// Runs `f` as one call of `kind`, timing it if it falls in the sample.
/// The counters are statistics that publish no other data: `Relaxed`.
#[inline]
fn traced<R>(kind: Call, f: impl FnOnce() -> R) -> R {
    let k = kind as usize;
    if !CALLS[k]
        .fetch_add(1, Ordering::Relaxed)
        .is_multiple_of(SAMPLE_EVERY)
    {
        return f();
    }
    let start = Instant::now();
    let out = f();
    SAMPLED_NS[k].fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    SAMPLED[k].fetch_add(1, Ordering::Relaxed);
    out
}

/// Protocol-boundary counts of one traced verification.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Counts {
    pub send_calls: u64,
    pub receive_calls: u64,
    pub clones: u64,
    pub encodes: u64,
    pub decodes: u64,
    /// Calls of every kind, symmetry queries included.
    pub total_calls: u64,
    /// Estimated seconds spent inside the protocol's methods.
    pub busy_s: f64,
}

impl Counts {
    /// Whether the exact counts (not the sampled time) are equal.
    pub fn same_counts(&self, other: &Counts) -> bool {
        Counts {
            busy_s: 0.0,
            ..*self
        } == Counts {
            busy_s: 0.0,
            ..*other
        }
    }
}

/// Zeroes every counter; call before a traced verification.
pub fn reset() {
    for k in 0..KINDS {
        CALLS[k].store(0, Ordering::Relaxed);
        SAMPLED[k].store(0, Ordering::Relaxed);
        SAMPLED_NS[k].store(0, Ordering::Relaxed);
    }
}

/// Mean cost in nanoseconds of an empty timed region, as [`traced`]
/// times one (median of several batches).
pub fn timer_overhead_ns() -> f64 {
    const BATCH: u32 = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let total: u128 = (0..BATCH)
                .map(|_| {
                    let start = Instant::now();
                    std::hint::black_box(());
                    start.elapsed().as_nanos()
                })
                .sum();
            total as f64 / f64::from(BATCH)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// Reads the counters accumulated since the last [`reset`], taking
/// `timer_ns` (from [`timer_overhead_ns`]) off every timed sample.
pub fn snapshot(timer_ns: f64) -> Counts {
    let calls = |k: Call| CALLS[k as usize].load(Ordering::Relaxed);
    let busy_s = (0..KINDS)
        .map(|k| {
            let sampled = SAMPLED[k].load(Ordering::Relaxed);
            if sampled == 0 {
                return 0.0;
            }
            let mean_ns =
                (SAMPLED_NS[k].load(Ordering::Relaxed) as f64 / sampled as f64 - timer_ns).max(0.0);
            mean_ns * CALLS[k].load(Ordering::Relaxed) as f64 * 1e-9
        })
        .sum();
    Counts {
        send_calls: calls(Call::Send),
        receive_calls: calls(Call::Receive),
        clones: calls(Call::Clone),
        encodes: calls(Call::Encode),
        decodes: calls(Call::Decode),
        total_calls: (0..KINDS).map(|k| CALLS[k].load(Ordering::Relaxed)).sum(),
        busy_s,
    }
}

/// A protocol instance whose calls are counted.
#[derive(PartialEq, Eq, Hash, Debug)]
pub struct Traced<P>(pub P);

impl<P: Clone> Clone for Traced<P> {
    fn clone(&self) -> Self {
        traced(Call::Clone, || Traced(self.0.clone()))
    }

    fn clone_from(&mut self, source: &Self) {
        traced(Call::Clone, || self.0.clone_from(&source.0))
    }
}

impl<P: SyncProtocol> SyncProtocol for Traced<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn send(&mut self, round: Round) -> SendPlan<P::Msg, P::Output> {
        traced(Call::Send, || self.0.send(round))
    }

    fn send_into(&mut self, round: Round, plan: &mut SendPlan<P::Msg, P::Output>) {
        traced(Call::Send, || self.0.send_into(round, plan))
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<P::Msg>) -> Step<P::Output> {
        traced(Call::Receive, || self.0.receive(round, inbox))
    }
}

impl<P: SpillCodec> SpillCodec for Traced<P> {
    fn encode(&self, out: &mut Vec<u8>) {
        traced(Call::Encode, || self.0.encode(out))
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        traced(Call::Decode, || P::decode(input).map(Traced))
    }

    fn pid_symmetric() -> bool {
        P::pid_symmetric()
    }

    fn encode_relabelled(&self, at: usize, out: &mut Vec<u8>) {
        traced(Call::Encode, || self.0.encode_relabelled(at, out))
    }

    fn rank_inert(&self, ctx: &SymmetryContext) -> bool {
        traced(Call::Symmetry, || self.0.rank_inert(ctx))
    }

    fn value_symmetric() -> bool {
        P::value_symmetric()
    }

    fn value_swapped(&self) -> Option<Self> {
        traced(Call::Symmetry, || self.0.value_swapped().map(Traced))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twostep_core::Crw;
    use twostep_model::{ProcessId, WideValue};

    #[test]
    fn codec_and_symmetry_declarations_are_forwarded() {
        type P = Crw<WideValue>;
        assert_eq!(Traced::<P>::pid_symmetric(), P::pid_symmetric());
        assert_eq!(Traced::<P>::value_symmetric(), P::value_symmetric());
        let p = P::new(ProcessId::from_idx(2), 7, WideValue::new(1, 1));
        let (mut bare, mut wrapped) = (Vec::new(), Vec::new());
        p.encode(&mut bare);
        Traced(p.clone()).encode(&mut wrapped);
        assert_eq!(bare, wrapped);
        let (mut bare, mut wrapped) = (Vec::new(), Vec::new());
        p.encode_relabelled(5, &mut bare);
        Traced(p.clone()).encode_relabelled(5, &mut wrapped);
        assert_eq!(bare, wrapped);
        let ctx = SymmetryContext {
            round: 2,
            crash_budget: 1,
            actives_below: 3,
        };
        assert_eq!(Traced(p.clone()).rank_inert(&ctx), p.rank_inert(&ctx));
        assert_eq!(
            Traced(p.clone()).value_swapped().map(|t| t.0),
            p.value_swapped()
        );
        assert_eq!(
            Traced::<P>::decode(&mut &bare[..]).map(|t| t.0),
            P::decode(&mut &bare[..])
        );
    }
}
