//! Machine yardstick behind `verify_rel`: a fixed, std-only piece of work
//! shaped like the checker's inner loop, timed between verifications.
//!
//! On a shared host the wall time of memory-bound code swings by up to
//! 60% for a minute at a time with the load other tenants put on the
//! memory system, while CPU time tracks wall time (the slowdown is not
//! time stolen from the process), so no statistic taken within a run
//! steadies it.  A verification's time divided by the yardstick's time
//! taken right before it cancels most of that swing: over 20-second
//! windows of a five-minute exhaustive series on a 2-core Xeon VM, the
//! quartile spread of the median ratio was 2% where the raw median's was
//! 19%.
//!
//! The yardstick is three kernels, each a caricature of one part of a
//! walk: keyed inserts and probes of small owned values (`hash`), a memo
//! keyed by byte strings with hits and fresh inserts (`memo`), and a
//! chain of cloned-and-mutated process-state vectors (`fork`).  It uses
//! no code of the repository, takes no seed and fixes its hasher, so it
//! does the same work in every run and on every commit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

type Fixed = BuildHasherDefault<DefaultHasher>;

/// 64-bit LCG (Knuth's MMIX constants); the high bits are returned.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

/// 40,000 inserts of 40-byte vectors under integer keys, 40,000 probes.
fn hash() -> u64 {
    let mut map: HashMap<u64, Vec<u8>, Fixed> = HashMap::default();
    let mut s = 12_345;
    for i in 0..40_000u64 {
        map.insert(lcg(&mut s) >> 9, vec![i as u8; 40]);
    }
    let mut s = 12_345;
    (0..40_000)
        .filter_map(|_| map.get(&(lcg(&mut s) >> 9)))
        .map(|v| u64::from(v[0]))
        .sum()
}

/// 60,000 probes of 48-byte keys drawn from 15,000, inserting misses.
fn memo() -> u64 {
    let mut map: HashMap<Vec<u8>, Vec<u64>, Fixed> = HashMap::default();
    let (mut s, mut hits) = (999, 0);
    for i in 0..60_000u64 {
        let k = lcg(&mut s) % 15_000;
        let key: Vec<u8> = (1..=48u64)
            .map(|j| (k.wrapping_mul(j) >> 3) as u8)
            .collect();
        match map.get(&key) {
            Some(v) => hits += v[0],
            None => {
                map.insert(key, vec![i; 6]);
            }
        }
    }
    hits
}

/// 20,000 clones of a 7-process state (12 words each), each mutated in
/// one word and kept.
fn fork() -> u64 {
    let root: Vec<Vec<u64>> = (0..7).map(|p| vec![p; 12]).collect();
    let mut kept: Vec<Vec<Vec<u64>>> = Vec::with_capacity(20_000);
    let (mut s, mut sum) = (5, 0);
    for _ in 0..20_000 {
        let mut next = kept.last().unwrap_or(&root).clone();
        let p = (lcg(&mut s) % 7) as usize;
        next[p][(lcg(&mut s) % 12) as usize] += 1;
        sum += next[p][0];
        kept.push(next);
    }
    sum
}

/// Wall seconds for one pass of the three kernels (about 30 ms on a
/// 2-core Xeon VM).
pub fn measure() -> f64 {
    let start = Instant::now();
    black_box(hash());
    black_box(memo());
    black_box(fork());
    start.elapsed().as_secs_f64()
}
