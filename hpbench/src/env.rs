//! The run's surroundings: provenance fingerprint, peak memory, scratch
//! directories, repeated set-ups, loopback servers, sweep records, seeded
//! shuffles and the FNV digest.

use std::path::{Path, PathBuf};
use std::process::Command;

use heteropipe_serve::ServerConfig;
use heteropipe_sim::SplitMix64;

use crate::clock::{HostClock, Interval};
use crate::trace::json_string;

/// Where a run keeps its caches and writes its trace, relative to the
/// directory it is started from (the checkout root).
pub const WORK_DIR: &str = ".bench_work";

/// What produced a result. Two results are comparable only when their
/// `fingerprint`s match.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Logical cores available to the process.
    pub cores: usize,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on the path.
    pub rustc: String,
    /// Git revision of the working directory, or `none`.
    pub git_rev: String,
    /// Whether the working tree has uncommitted changes (`unknown` outside
    /// a git checkout).
    pub git_dirty: String,
    /// The engine's default worker count.
    pub engine_workers: usize,
    /// 1-minute load average when the run started.
    pub load_before: f64,
    /// The workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Samples the machine and toolchain now.
    pub fn sample(seed: u64) -> Provenance {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git_rev =
            command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into());
        let git_dirty = match command_output("git", &["status", "--porcelain"]) {
            Some(s) => (!s.is_empty()).to_string(),
            None if git_rev == "none" => "unknown".into(),
            None => "false".into(),
        };
        Provenance {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            git_rev,
            git_dirty,
            engine_workers: heteropipe::exec::default_parallelism(),
            load_before: load_average(),
            seed,
        }
    }

    /// Hash of what must match for two results to be compared: machine
    /// shape, toolchain and engine worker count (not the seed, the
    /// revision or the load).
    pub fn fingerprint(&self) -> String {
        let key = format!(
            "{}|{}|{}|{}",
            self.cores, self.cpu_model, self.rustc, self.engine_workers
        );
        format!("{:016x}", fnv1a64(key.as_bytes()))
    }

    /// The provenance as one JSON object; `load_after` is sampled by the
    /// caller when the measurement ends.
    pub fn json(&self, load_after: f64) -> String {
        format!(
            "{{\"fingerprint\":{},\"cores\":{},\"cpu_model\":{},\"rustc\":{},\"git_rev\":{},\
             \"git_dirty\":{},\"engine_workers\":{},\"load_before\":{},\"load_after\":{},\"seed\":{}}}",
            json_string(&self.fingerprint()),
            self.cores,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_rev),
            json_string(&self.git_dirty),
            self.engine_workers,
            self.load_before,
            load_after,
            self.seed
        )
    }
}

/// Trimmed stdout of a command that exited 0; the child is always waited
/// for.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The 1-minute load average (0 when unavailable).
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), less the
/// memory `clock` holds resident for its whole life.
pub fn peak_rss_mib(clock: &HostClock) -> f64 {
    let peak = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0);
    peak - clock.resident_mib()
}

/// A fresh, empty scratch directory `WORK_DIR/<pid>/<tag>`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = Path::new(WORK_DIR)
        .join(std::process::id().to_string())
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory under the working directory");
    dir
}

/// Removes this process's scratch directories.
pub fn clean_scratch() {
    let _ = std::fs::remove_dir_all(Path::new(WORK_DIR).join(std::process::id().to_string()));
}

/// Set-ups a server workload times before its measurement; it measures
/// the last one.
pub const SETUPS_BEFORE: usize = 3;
/// Set-ups a server workload times after its measurement, so the set-ups
/// sample both ends of the run.
pub const SETUPS_AFTER: usize = 2;

/// Sets up `reps` times (at least once), stopping each set-up before the
/// next starts, and returns the last one with every set-up's interval.
pub fn repeat_setup<T>(
    clock: &mut HostClock,
    reps: usize,
    mut set_up: impl FnMut(usize) -> T,
    mut stop: impl FnMut(T),
) -> (T, Vec<Interval>) {
    let mut times = Vec::with_capacity(reps);
    let mut current = None;
    for rep in 0..reps.max(1) {
        if let Some(old) = current.take() {
            stop(old);
        }
        let (it, time) = clock.time(|| set_up(rep));
        current = Some(it);
        times.push(time);
    }
    (current.expect("one set-up"), times)
}

/// The default `ServerConfig` on an ephemeral loopback port.
pub fn loopback_server() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    }
}

/// The record lines of an NDJSON sweep body, sorted: the summary line is
/// dropped, and records stream in completion order, which may differ
/// between repeats.
pub fn sweep_records(body: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = body
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"{\"index\":"))
        .collect();
    lines.sort_unstable();
    lines
}

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix64) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..50).collect();
        let run = |seed| {
            let mut v = base.clone();
            shuffle(&mut v, &mut SplitMix64::new(seed));
            v
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
        let mut sorted = run(3);
        sorted.sort();
        assert_eq!(sorted, base);
    }

    #[test]
    fn sweep_records_drop_the_summary_and_ignore_completion_order() {
        let a = b"{\"index\":1,\"b\":2}\n{\"index\":0,\"a\":1}\n{\"sweep\":{\"wall_ms\":3}}\n";
        let b = b"{\"index\":0,\"a\":1}\n{\"index\":1,\"b\":2}\n{\"sweep\":{\"wall_ms\":4}}\n";
        assert_eq!(sweep_records(a), sweep_records(b));
        assert_eq!(sweep_records(a).len(), 2);
        assert!(sweep_records(b"{\"sweep\":{}}\n").is_empty());
    }

    #[test]
    fn repeat_setup_stops_all_but_the_last() {
        let mut stopped = Vec::new();
        let mut clock = HostClock::new();
        let (last, times) = repeat_setup(&mut clock, 3, |rep| rep, |old| stopped.push(old));
        assert_eq!((last, stopped, times.len()), (2, vec![0, 1], 3));
    }

    #[test]
    fn fingerprint_ignores_seed_and_load() {
        let a = Provenance::sample(1);
        let mut b = a.clone();
        b.seed = 2;
        b.load_before = 9.0;
        b.git_rev = "other".into();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.cores += 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
    }
}
