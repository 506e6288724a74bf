//! Golden digest of the whole [`MemorySystem`]: one seeded mixed stream
//! (loads, stores, software prefetches, guarded loads; page-alternating,
//! same-line, scattered and set-conflicting phases) is replayed on both
//! processors, and every returned latency, the counters, and — on a traced
//! system — every emitted event are folded into hashes pinned below.
//!
//! The simulator's host-speed work (cache/TLB layout, fast paths) must
//! never move a simulated number; this proves it in milliseconds, without
//! the 96-cell sweep.
//!
//! The constants are those of the timestamp-LRU model the recency-ordered
//! TLB/cache layout replaced. To recompute them, copy this file into a
//! checkout of commit `06e3456` (PR 11, the last with `tick`/`last_used`)
//! and run `cargo test -p spf-memsim --test golden`: it passes there as
//! it stands, and with a constant zeroed the failing assertion prints the
//! value. They must change when the *modelled* behaviour is meant to
//! change, and — because counters and events are folded through their
//! `Debug` rendering — also when a `MemStats` field or a `TraceEvent`
//! variant or field is added or renamed. For such a change re-pin the
//! same way, applying only the rename to the parent checkout.

use spf_memsim::{MemorySystem, ProcessorConfig};
use spf_testkit::Rng;
use spf_trace::{RingSink, TraceSink};

const P4_DIGEST: u64 = 0x7a16_dbbe_d653_1fbf;
/// (events emitted, hash of their `Debug` renderings)
const P4_EVENTS: (u64, u64) = (136_547, 0xeace_2bf3_0ff9_9530);
const ATHLON_DIGEST: u64 = 0x9120_6b53_50ad_1afa;
const ATHLON_EVENTS: (u64, u64) = (133_561, 0x3b0a_a5ec_44f8_257c);

/// FNV-1a over the bytes of `v`.
fn fold(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds the `Debug` rendering of `v`: every field by name, so a new
/// counter or event field cannot be left out of a digest (the price: a
/// rename re-pins the constants, see the header).
fn fold_debug(h: &mut u64, v: &impl std::fmt::Debug) {
    for b in format!("{v:?}").bytes() {
        fold(h, u64::from(b));
    }
}

/// One replay in progress: the system under test, the running digest of
/// everything it has returned, and the simulated clock.
struct Replay<'a, S: TraceSink> {
    mem: &'a mut MemorySystem<S>,
    digest: u64,
    now: u64,
}

impl<S: TraceSink> Replay<'_, S> {
    fn step(&mut self, op: u64, addr: u64) {
        let cycles = match op {
            0 => self.mem.load(addr, self.now),
            1 => self.mem.store(addr, self.now),
            2 => self.mem.software_prefetch(addr, self.now),
            _ => self.mem.guarded_load(addr, self.now),
        };
        fold(&mut self.digest, cycles);
        self.now += cycles + 1;
    }
}

/// Drives the stream through `mem` and returns the digest of everything
/// it returned.
fn replay<S: TraceSink>(mem: &mut MemorySystem<S>) -> u64 {
    // Heap-like region: 16 MB, i.e. 4096 pages — far beyond either DTLB
    // and either L2, so capacity evictions occur at every level.
    const BASE: u64 = 0x1000_0000;
    const SPAN: u64 = 16 << 20;
    let mut rng = Rng::new(0x5EED_601D);
    let mut r = Replay {
        mem,
        digest: 0xcbf2_9ce4_8422_2325,
        now: 0,
    };
    for round in 0..400u64 {
        let n = rng.u64_in(20, 300);
        match rng.index(5) {
            // Page-alternating: an array slot, then two fields of the
            // object it points at, each on its own page (the MolDyn/mtrt
            // shape: ordinary hits that are never the previous line).
            0 => {
                let slots = BASE + rng.below(SPAN / 2) / 8 * 8;
                let a = BASE + rng.below(SPAN / 2) / 64 * 64;
                let b = BASE + rng.below(SPAN / 2) / 64 * 64;
                let stride = *rng.pick(&[8u64, 24, 64, 136, 4096]);
                for i in 0..n {
                    r.step(0, slots + i * 8);
                    r.step(0, a + i * stride);
                    r.step(rng.below(2), b + i * stride + 16);
                }
            }
            // Same-line run.
            1 => {
                let line = BASE + rng.below(SPAN) / 128 * 128;
                for _ in 0..n {
                    r.step(rng.below(2), line + rng.below(64));
                }
            }
            // Scatter over the whole region.
            2 => {
                for _ in 0..n {
                    r.step(rng.below(2), BASE + rng.below(SPAN));
                }
            }
            // Strided walk with a prefetch ahead of it, software or
            // guarded, at a distance that is sometimes too short.
            3 => {
                let start = BASE + rng.below(SPAN / 2);
                let stride = *rng.pick(&[64u64, 128, 200, 1024, 4096, 8200]);
                let ahead = rng.u64_in(1, 12) * stride;
                let prefetch = rng.u64_in(2, 3);
                for i in 0..n {
                    let addr = start + i * stride;
                    r.step(prefetch, addr + ahead);
                    r.step(0, addr);
                    r.step(0, addr + 8);
                }
            }
            // Set conflicts: 24 lines 32 KB apart share a set in every
            // cache of both processors, revisited in random order so the
            // victim depends on exact recency.
            _ => {
                let base = BASE + rng.below(64) * 64;
                for _ in 0..n {
                    r.step(rng.below(4), base + rng.below(24) * (32 << 10));
                }
            }
        }
        // One reset early on: flushed state must behave like fresh state.
        if round == 100 {
            fold_debug(&mut r.digest, r.mem.stats());
            r.mem.reset();
        }
    }
    fold_debug(&mut r.digest, r.mem.stats());
    r.digest
}

fn check(cfg: ProcessorConfig, digest: u64, events: (u64, u64)) {
    let name = cfg.name.clone();
    let mut plain = MemorySystem::new(cfg.clone());
    let got = replay(&mut plain);
    assert_eq!(got, digest, "{name}: untraced digest is {got:#018x}");

    let mut traced = MemorySystem::with_sink(cfg, RingSink::with_capacity(1 << 20));
    assert_eq!(replay(&mut traced), digest, "{name}: traced digest");
    let sink = traced.sink();
    assert_eq!(sink.overwritten(), 0, "{name}: ring must hold the stream");
    let mut eh = 0xcbf2_9ce4_8422_2325u64;
    for e in sink.events() {
        fold_debug(&mut eh, &e);
    }
    let total = sink.total();
    assert_eq!(
        (total, eh),
        events,
        "{name}: events are ({total}, {eh:#018x})"
    );
}

#[test]
fn pentium4_stream_is_pinned() {
    check(ProcessorConfig::pentium4(), P4_DIGEST, P4_EVENTS);
}

#[test]
fn athlon_stream_is_pinned() {
    check(ProcessorConfig::athlon_mp(), ATHLON_DIGEST, ATHLON_EVENTS);
}
