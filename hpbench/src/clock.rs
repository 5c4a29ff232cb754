//! Timing that does not move with the shared host's speed.
//!
//! The benchmark runs on virtual CPUs of a shared host. Other guests make
//! the same code run up to 1.5 times slower for seconds to minutes at a
//! time, and the hypervisor takes CPUs away (steal). A run of half a
//! minute can sit wholly in a slow or a fast phase, so the median over a run's passes
//! moves with the host, not only with the program.
//!
//! [`HostClock`] splits each timed interval into three parts:
//!
//! - *compute*: the process's CPU time over all threads, spread over the
//!   machine's CPUs (`cpu / P`). It scales with the host's speed;
//! - *stolen*: time the hypervisor took from the virtual CPUs
//!   (`/proc/stat` steal, `/ P`). Not the program's; dropped;
//! - *waiting*: the rest of the wall time (timeouts, sleeps, I/O). It does
//!   not scale with the host's speed; kept as measured.
//!
//! Compute is divided by the run's host-speed factor `k`. After every
//! timed interval, for [`CALIBRATION_SHARE`] of its length, the clock
//! times two fixed calibration loops on every CPU at once, in thread CPU
//! time: a cache model that fits the core's own cache, and a pointer chase
//! through 32 MiB, which other guests' use of the shared last-level cache
//! and memory slows. Which of the two a workload follows more closely
//! depends on its footprint and on the host's phase. Each loop's factor is its median time over the run against
//! its nominal time ([`NOMINAL_CACHE_S`], [`NOMINAL_CHASE_S`]); `k` is the
//! geometric mean of the two. One calibration lasts milliseconds and reads
//! the host's fast jitter as much as its phase, so only the median over
//! the run's dozens of calibrations is used: it corrects the phase the run
//! sat in.
//!
//! The normalised interval is `waiting + compute / k`: the time the
//! interval would have taken with the host at nominal speed. A slower
//! program is slower by the same share either way; only the host's share
//! of the variation is taken out. The calibration loops are the
//! benchmark's own code, so no change to the program changes them.

use std::time::Instant;

/// Thread CPU time the cache-model loop takes at nominal speed: about its
/// median on a 2-CPU "Intel(R) Xeon(R) Processor" guest. Only the scale of
/// the normalised figures depends on it.
pub const NOMINAL_CACHE_S: f64 = 0.018;
/// Thread CPU time the pointer chase takes at nominal speed, likewise.
pub const NOMINAL_CHASE_S: f64 = 0.024;

/// Calibration time after each interval, as a share of the interval's wall
/// time (at least one calibration, about 40 ms): long and short
/// intervals alike give the run about one calibration per second.
pub const CALIBRATION_SHARE: f64 = 0.04;

/// Sets of the calibration loop's cache model.
const CAL_SETS: usize = 4096;
/// Ways per set.
const CAL_WAYS: usize = 8;
/// Lookups per calibration, per CPU.
const CAL_LOOKUPS: u32 = 1_200_000;
/// Entries (`u32`) of the pointer chase: 32 MiB, eight times a core's
/// cache.
const CHASE_LEN: usize = 8 << 20;
/// Steps of the pointer chase per calibration, per CPU.
const CHASE_STEPS: usize = 150_000;

/// Reads a Linux CPU-time clock, in seconds.
fn clock_seconds(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the duration of the
    // call, and the callers pass clock ids Linux defines.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// CPU time this process has used over all its threads, ended ones
/// included (`CLOCK_PROCESS_CPUTIME_ID`). With paravirtual steal
/// accounting it excludes time the hypervisor gave the virtual CPUs to
/// other guests; it never counts time a thread waited for a CPU.
fn cpu_seconds() -> f64 {
    clock_seconds(2)
}

/// CPU time of the calling thread (`CLOCK_THREAD_CPUTIME_ID`).
fn thread_cpu_seconds() -> f64 {
    clock_seconds(3)
}

/// Seconds the hypervisor has taken from this machine's virtual CPUs,
/// summed over CPUs (`steal` in `/proc/stat`, in 10 ms ticks; 0 when
/// unavailable).
fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("cpu "))
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// xorshift64: the calibration's own generator, so that nothing in the
/// program can change what the calibration does.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One CPU's cache-model tables. The clock allocates them once: the
/// calibration threads allocate nothing, because allocations of this size
/// in them would move the allocator's state (its arenas and its mmap
/// threshold) under the program.
#[derive(Debug)]
struct CacheTables {
    tags: Vec<u64>,
    ages: Vec<u32>,
}

impl CacheTables {
    fn new() -> CacheTables {
        CacheTables {
            tags: vec![u64::MAX; CAL_SETS * CAL_WAYS],
            ages: vec![0; CAL_SETS * CAL_WAYS],
        }
    }

    fn bytes(&self) -> usize {
        self.tags.len() * std::mem::size_of::<u64>() + self.ages.len() * std::mem::size_of::<u32>()
    }
}

/// The cache-model loop: an 8-way LRU cache model of 4096 sets (384 KiB of
/// tags and ages) looked up with a pseudo-random, partly sequential line
/// stream, the kind of work the simulator's memory model does. Returns the
/// loop's thread CPU time; the tables are reset before timing starts.
fn cache_loop(seed: u64, tables: &mut CacheTables) -> f64 {
    tables.tags.fill(u64::MAX);
    tables.ages.fill(0);
    let CacheTables { tags, ages } = tables;
    let start = thread_cpu_seconds();
    let mut x = seed | 1;
    let mut line = 0u64;
    let mut hits = 0u64;
    for t in 0..CAL_LOOKUPS {
        let r = xorshift(&mut x);
        // Runs of sequential lines from random bases, as array walks make.
        line = if r.is_multiple_of(64) {
            r % (1 << 26)
        } else {
            line + 1
        };
        let addr = line + (r >> 52);
        let row = (addr as usize % CAL_SETS) * CAL_WAYS;
        let ways = &mut tags[row..row + CAL_WAYS];
        match ways.iter().position(|&g| g == addr) {
            Some(w) => {
                ages[row + w] = t;
                hits += 1;
            }
            None => {
                let victim = (0..CAL_WAYS).min_by_key(|&w| ages[row + w]).expect("ways");
                ways[victim] = addr;
                ages[row + victim] = t;
            }
        }
    }
    std::hint::black_box(hits);
    thread_cpu_seconds() - start
}

/// A single cycle through `0..len` in random order (Sattolo's shuffle):
/// following it touches every entry before returning, each step a load
/// whose address depends on the previous one.
fn chase_cycle(len: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1d;
    for i in (1..len).rev() {
        let j = (xorshift(&mut x) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// Follows `cycle` for [`CHASE_STEPS`] from `start`; returns the thread
/// CPU time.
fn chase_loop(cycle: &[u32], start: usize) -> f64 {
    let t = thread_cpu_seconds();
    let mut i = start;
    for _ in 0..CHASE_STEPS {
        i = cycle[i] as usize;
    }
    std::hint::black_box(i);
    thread_cpu_seconds() - t
}

/// One calibration: the mean thread CPU time of each loop, both run on
/// `cpus` threads at once.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Calibration {
    /// Cache-model loop, seconds.
    cache: f64,
    /// Pointer chase, seconds.
    chase: f64,
}

impl Calibration {
    /// This calibration's speed factor alone: the geometric mean of the
    /// two loops' times over nominal.
    fn factor(&self) -> f64 {
        (self.cache / NOMINAL_CACHE_S * self.chase / NOMINAL_CHASE_S).sqrt()
    }
}

/// Runs both calibration loops on one thread per `tables` entry at once,
/// each thread chasing `cycle` from its own start.
fn calibrate(cycle: &[u32], tables: &mut [CacheTables]) -> Calibration {
    let n = tables.len();
    let times: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = tables
            .iter_mut()
            .enumerate()
            .map(|(c, t)| {
                s.spawn(move || {
                    let cache = cache_loop(c as u64 + 1, t);
                    (cache, chase_loop(cycle, c * cycle.len() / n))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    let n = times.len() as f64;
    Calibration {
        cache: times.iter().map(|t| t.0).sum::<f64>() / n,
        chase: times.iter().map(|t| t.1).sum::<f64>() / n,
    }
}

/// What was measured over one timed interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Wall seconds.
    pub wall: f64,
    /// Process CPU seconds, all threads.
    pub cpu: f64,
    /// Seconds stolen from the virtual CPUs, summed over CPUs.
    pub steal: f64,
}

impl Interval {
    /// The interval at nominal speed, on a machine of `cpus` CPUs whose
    /// speed factor over the interval was `k` (1 = nominal, 2 = compute
    /// took twice as long).
    pub fn normalise(&self, cpus: f64, k: f64) -> f64 {
        let compute = (self.cpu / cpus).min(self.wall);
        let stolen = self.steal / cpus;
        let waiting = (self.wall - compute - stolen).max(0.0);
        waiting + compute / k
    }

    /// The interval's share of one of `n` equal repetitions in it.
    pub fn per(&self, n: u32) -> Interval {
        let n = f64::from(n.max(1));
        Interval {
            wall: self.wall / n,
            cpu: self.cpu / n,
            steal: self.steal / n,
        }
    }
}

/// Snapshot of the three clocks an interval is measured with.
struct Stamp {
    at: Instant,
    cpu: f64,
    steal: f64,
}

impl Stamp {
    fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            cpu: cpu_seconds(),
            steal: steal_seconds(),
        }
    }

    fn to(&self, end: &Stamp) -> Interval {
        Interval {
            wall: (end.at - self.at).as_secs_f64(),
            cpu: end.cpu - self.cpu,
            steal: (end.steal - self.steal).max(0.0),
        }
    }
}

/// Times intervals and calibrates between them; normalises them with the
/// run's host-speed factor.
#[derive(Debug)]
pub struct HostClock {
    cpus: usize,
    cycle: Vec<u32>,
    tables: Vec<CacheTables>,
    calibrations: Vec<Calibration>,
}

impl HostClock {
    /// A clock for this machine's CPUs, calibrated once. It holds the
    /// chase's 32 MiB and the cache models' tables for its whole life; see
    /// [`HostClock::resident_mib`].
    pub fn new() -> HostClock {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cycle = chase_cycle(CHASE_LEN);
        let mut tables: Vec<CacheTables> = (0..cpus).map(|_| CacheTables::new()).collect();
        let first = calibrate(&cycle, &mut tables);
        HostClock {
            cpus,
            cycle,
            tables,
            calibrations: vec![first],
        }
    }

    /// Memory the clock keeps resident, in MiB: the process's peak
    /// resident size less this is the program's.
    pub fn resident_mib(&self) -> f64 {
        let tables: usize = self.tables.iter().map(CacheTables::bytes).sum();
        (self.cycle.len() * std::mem::size_of::<u32>() + tables) as f64 / (1024.0 * 1024.0)
    }

    /// The host-speed factor so far (1 = nominal, 2 = compute takes twice
    /// as long): the geometric mean of each loop's median time over its
    /// nominal time.
    pub fn factor(&self) -> f64 {
        let median = |f: fn(&Calibration) -> f64| {
            crate::stats::median(&self.calibrations.iter().map(f).collect::<Vec<_>>())
        };
        Calibration {
            cache: median(|c| c.cache),
            chase: median(|c| c.chase),
        }
        .factor()
    }

    /// Every calibration so far, each as a factor of its own.
    pub fn factors(&self) -> Vec<f64> {
        self.calibrations.iter().map(Calibration::factor).collect()
    }

    /// `interval` in seconds at nominal host speed, with the factor so far.
    pub fn seconds(&self, interval: &Interval) -> f64 {
        interval.normalise(self.cpus as f64, self.factor())
    }

    /// Runs `f`, then calibrates for [`CALIBRATION_SHARE`] of its wall
    /// time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Interval) {
        let (r, interval) = self.time_short(f);
        let start = Instant::now();
        loop {
            self.calibrations
                .push(calibrate(&self.cycle, &mut self.tables));
            if start.elapsed().as_secs_f64() >= interval.wall * CALIBRATION_SHARE {
                break;
            }
        }
        (r, interval)
    }

    /// Runs `f` without calibrating after it: for intervals too short to
    /// be followed by a calibration each.
    pub fn time_short<R>(&mut self, f: impl FnOnce() -> R) -> (R, Interval) {
        let start = Stamp::now();
        let r = f();
        (r, start.to(&Stamp::now()))
    }
}

impl Default for HostClock {
    fn default() -> Self {
        HostClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn busy_intervals_scale_with_the_host() {
        // Two CPUs busy for a whole second on a host half as fast as
        // nominal: one second of compute is half a second at nominal.
        let busy = Interval {
            wall: 1.0,
            cpu: 2.0,
            steal: 0.0,
        };
        assert!(close(busy.normalise(2.0, 2.0), 0.5));
        assert!(close(busy.normalise(2.0, 1.0), 1.0));
    }

    #[test]
    fn waiting_does_not_scale_and_steal_is_dropped() {
        // Ten seconds waiting on a timeout with a little compute.
        let idle = Interval {
            wall: 10.0,
            cpu: 0.2,
            steal: 0.0,
        };
        assert!(close(idle.normalise(2.0, 2.0), 9.9 + 0.05));
        // A busy second of which 0.2 s per CPU was stolen.
        let stolen = Interval {
            wall: 1.2,
            cpu: 2.0,
            steal: 0.4,
        };
        assert!(close(stolen.normalise(2.0, 1.0), 1.0));
    }

    #[test]
    fn the_chase_is_one_cycle_through_every_entry() {
        let cycle = chase_cycle(1000);
        let (mut i, mut seen) = (0usize, vec![false; 1000]);
        for _ in 0..1000 {
            assert!(!seen[i]);
            seen[i] = true;
            i = cycle[i] as usize;
        }
        assert_eq!(i, 0);
    }

    #[test]
    fn repetitions_share_an_interval() {
        let block = Interval {
            wall: 0.03,
            cpu: 0.03,
            steal: 0.0,
        };
        assert!(close(
            block.per(3).normalise(2.0, 1.5),
            block.normalise(2.0, 1.5) / 3.0
        ));
    }

    #[test]
    fn compute_never_exceeds_the_wall_time() {
        let odd = Interval {
            wall: 1.0,
            cpu: 3.0,
            steal: 0.0,
        };
        assert!(close(odd.normalise(2.0, 1.0), 1.0));
    }

    #[test]
    fn calibration_measures_cpu_time() {
        let cycle = chase_cycle(1 << 12);
        let c = calibrate(&cycle, &mut [CacheTables::new()]);
        assert!(c.cache > 0.0 && c.cache < 5.0, "{c:?}");
        assert!(c.chase > 0.0 && c.chase < 5.0, "{c:?}");
        let mut clock = HostClock::new();
        let ((), slept) = clock.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(slept.wall >= 0.02);
        // Other tests' threads count into the process's CPU time, so only
        // the wall time is pinned here; the model is tested above.
        assert!(clock.seconds(&slept) > 0.0);
        assert!(clock.factors().len() >= 2);
    }
}
