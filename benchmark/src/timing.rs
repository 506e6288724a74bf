//! The host-clock protocol both kinds of workload share: a few untimed
//! set-ups, then timed iterations that must all repeat the first — every
//! one of them bracketed by a host-speed probe.
//!
//! This sandbox's speed moves in phases of minutes: the same iteration
//! takes 1.5 s or 3.3 s, and whole runs differ by 25–30 %, more than any
//! bound the benchmark may declare. The slowdowns are multiplicative and
//! hit a fixed piece of interpreter-like code the same way (correlation
//! 0.6–0.8 with the workloads, log-log slope 0.9–1.1), so each sample is
//! scaled by how fast the probe ran next to it. That halves the run-to-run
//! spread in a noisy phase (24–28 % to 6–13 % per sample) and costs a
//! percent or two in a quiet one. The medians as measured are printed in a
//! `#` note, and `host_speed` says how far the scaling moved them.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use spf_testkit::Rng;

use crate::manifest::MIN_ITERATIONS;
use crate::report::Report;
use crate::stats::{median, quartiles};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What the probe takes on the host the scaled times are expressed on. It
/// only fixes the unit: any value gives the same spreads and the same
/// ratios between two commits. This one is the sandbox in a fast phase, so
/// that scaled and measured seconds read alike there.
const PROBE_REFERENCE_MS: f64 = 68.0;

/// A fixed piece of work shaped like the system under test but sharing no
/// code with it: a `match`-dispatched register machine running a frozen
/// random program over a 256 KiB memory. It belongs to the benchmark; a
/// change that claims a gain may not touch it.
pub struct Probe {
    program: Vec<[u8; 4]>,
    memory: Vec<u64>,
}

impl Probe {
    pub fn new() -> Self {
        // Frozen: the probe is a yardstick, not an input, so `--seed`
        // never reaches it.
        let mut rng = Rng::new(42);
        Probe {
            program: (0..256).map(|_| (rng.u64() as u32).to_le_bytes()).collect(),
            memory: vec![0; 1 << 15],
        }
    }

    /// The host's speed relative to the reference host, above 1 being
    /// faster: the median of three probe runs, so that one short burst of
    /// noise on the yardstick does not rescale a whole iteration.
    pub fn speed(&mut self) -> f64 {
        median(&[self.run_ms(), self.run_ms(), self.run_ms()].map(|ms| PROBE_REFERENCE_MS / ms))
    }

    /// One pass of the probe, in milliseconds.
    fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut r = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mask = self.memory.len() as u64 - 1;
        for _ in 0..120_000 {
            let mut pc = 0;
            while pc < self.program.len() {
                let [op, a, b, c] = self.program[pc].map(|x| usize::from(x & 7));
                match op {
                    0 => r[a] = r[b].wrapping_add(r[c]),
                    1 => r[a] = r[b] ^ (r[c] >> 3),
                    2 => r[a] = r[b].wrapping_mul(r[c] | 1),
                    3 => r[a] = self.memory[(r[b] & mask) as usize],
                    4 => self.memory[(r[b] & mask) as usize] = r[c],
                    5 => pc += (r[a] & 1) as usize,
                    6 => r[a] = r[b].rotate_left(7).wrapping_add(c as u64),
                    _ => r[a] = r[b].wrapping_sub(r[c]),
                }
                pc += 1;
            }
        }
        black_box(r);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// Times `work` with the probe's speed taken before and after it.
    /// Returns its result, its wall seconds, and the mean of the two speeds.
    fn bracket<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.speed();
        let t0 = Instant::now();
        let out = work();
        let wall = t0.elapsed().as_secs_f64();
        (out, wall, (before + self.speed()) / 2.0)
    }
}

/// Host-clock samples: wall seconds as measured, and the host speed the
/// probe saw around each.
#[derive(Default)]
pub struct Samples {
    pub walls: Vec<f64>,
    pub speeds: Vec<f64>,
}

impl Samples {
    fn push(&mut self, wall: f64, speed: f64) {
        self.walls.push(wall);
        self.speeds.push(speed);
    }

    /// Median of the samples as measured.
    pub fn raw_s(&self) -> f64 {
        median(&self.walls)
    }

    /// Median of the samples, each scaled to the reference host's speed.
    pub fn scaled_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.speeds)
            .map(|(w, s)| w * s)
            .collect();
        median(&scaled)
    }

    /// Median host speed over the samples.
    pub fn host_speed(&self) -> f64 {
        median(&self.speeds)
    }
}

/// [`SETUPS`] calls of `set_up`, each timed.
pub fn set_ups(probe: &mut Probe, set_up: impl Fn()) -> Samples {
    let mut out = Samples::default();
    for _ in 0..SETUPS {
        let ((), wall, speed) = probe.bracket(&set_up);
        out.push(wall, speed);
    }
    out
}

/// Emits the host-clock metrics every untraced run reports and returns
/// `wall_s`, which the throughputs derive from.
pub fn put_host_clock(rep: &mut Report, set_ups: &Samples, iterations: &Samples) -> f64 {
    let wall_s = iterations.scaled_s();
    rep.put("setup_s", set_ups.scaled_s());
    rep.put("wall_s", wall_s);
    rep.put("host_speed", iterations.host_speed());
    // A run whose second iteration panicked has two samples; fewer never
    // get here.
    let (q1, q3) = quartiles(&iterations.walls);
    println!(
        "# {} wall_s is the median of {} timed iterations, each scaled by the host speed the \
         probe saw beside it; as measured they took {} s (quartiles {q1} to {q3}), the {} \
         set-ups {} s",
        rep.workload.name,
        iterations.walls.len(),
        iterations.raw_s(),
        set_ups.walls.len(),
        set_ups.raw_s()
    );
    wall_s
}

/// What the timed iterations of one run produced.
pub struct Timed<T> {
    /// Every iteration started, a panicked one included.
    pub samples: Samples,
    /// The first iteration's result; `None` if it panicked.
    pub first: Option<T>,
    /// Whether the last iteration panicked; the loop stops there.
    pub panicked: bool,
    /// Whether an iteration's result differed from the first's.
    pub differed: bool,
}

impl<T> Timed<T> {
    /// Every iteration finished and repeated the first.
    pub fn clean(&self) -> bool {
        !self.panicked && !self.differed
    }

    pub fn iterations(&self) -> u64 {
        self.samples.walls.len() as u64
    }
}

/// Runs `iteration` until `seconds` have passed and at least
/// [`MIN_ITERATIONS`] are done, timing each. The program under test
/// reports a wrong result by panicking, so a panic is caught and counted;
/// `same` says whether a later iteration's result repeats the first's.
pub fn iterate<T>(
    probe: &mut Probe,
    seconds: f64,
    iteration: impl Fn() -> T,
    same: impl Fn(&T, &T) -> bool,
) -> Timed<T> {
    let mut out = Timed {
        samples: Samples::default(),
        first: None,
        panicked: false,
        differed: false,
    };
    let started = Instant::now();
    while out.samples.walls.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < seconds {
        let (run, wall, speed) = probe.bracket(|| catch_unwind(AssertUnwindSafe(&iteration)));
        out.samples.push(wall, speed);
        match (run, &out.first) {
            (Err(_), _) => {
                out.panicked = true;
                break;
            }
            (Ok(result), None) => out.first = Some(result),
            (Ok(result), Some(first)) => out.differed |= !same(first, &result),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn runs_at_least_the_minimum_and_then_until_the_time_is_up() {
        let mut probe = Probe::new();
        let t = iterate(&mut probe, 0.0, || 7, |a, b| a == b);
        assert_eq!(
            (t.iterations(), t.first, t.clean()),
            (MIN_ITERATIONS as u64, Some(7), true)
        );
        let nap = || std::thread::sleep(std::time::Duration::from_millis(50));
        let started = Instant::now();
        let t = iterate(&mut probe, 0.6, nap, |_, _| true);
        assert!(started.elapsed().as_secs_f64() >= 0.6);
        assert!(t.iterations() >= MIN_ITERATIONS as u64);
        assert!(t.samples.raw_s() >= 0.05 && t.samples.speeds.iter().all(|s| *s > 0.0));
    }

    #[test]
    fn a_differing_iteration_fails_the_run_but_not_the_loop() {
        let n = Cell::new(0);
        let count = || n.replace(n.get() + 1);
        let t = iterate(&mut Probe::new(), 0.0, count, |a, b| a == b);
        assert!(t.differed && !t.panicked);
        assert_eq!((t.iterations(), t.first), (MIN_ITERATIONS as u64, Some(0)));
    }

    #[test]
    fn a_panic_is_a_failure_and_stops_the_loop() {
        let n = Cell::new(0);
        let second_panics = || {
            if n.replace(n.get() + 1) == 1 {
                panic!("wrong checksum");
            }
        };
        let t = iterate(&mut Probe::new(), 0.0, second_panics, |_, _| true);
        assert!(t.panicked && !t.clean() && t.first.is_some());
        assert_eq!(t.iterations(), 2);
        let faults = || -> u8 { panic!("faulted") };
        let t = iterate(&mut Probe::new(), 0.0, faults, |_, _| true);
        assert!(t.panicked && t.first.is_none());
    }

    #[test]
    fn samples_scale_each_wall_by_the_speed_seen_next_to_it() {
        let s = Samples {
            walls: vec![2.0, 3.0, 10.0],
            speeds: vec![1.0, 0.5, 0.2],
        };
        assert_eq!(s.raw_s(), 3.0);
        // 2.0, 1.5, 2.0: the slow phases are scaled back.
        assert_eq!(s.scaled_s(), 2.0);
        assert_eq!(s.host_speed(), 0.5);
    }

    #[test]
    fn the_probe_is_frozen_and_reads_a_speed() {
        let (a, b) = (Probe::new(), Probe::new());
        assert_eq!(a.program, b.program);
        assert!(a.program.iter().any(|i| i[0] & 7 == 3), "it loads");
        let speed = Probe::new().speed();
        // No range: an unoptimized build runs it thirty times slower.
        assert!(speed > 0.0 && speed.is_finite(), "{speed}");
        let set_ups = set_ups(&mut Probe::new(), || ());
        assert_eq!(set_ups.walls.len(), SETUPS);
    }
}
