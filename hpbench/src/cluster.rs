//! `cluster_sweep`: a coordinator (`serve_cluster`, default `ServerConfig`
//! and `ClusterConfig`) over two in-process workers (default
//! `ServerConfig`, separate disk caches). One client sends one 96-entry
//! sweep at a time: 48 keys seeded into the workers' caches during set-up,
//! 16 fresh keys drawn from the seed and never reused, and 32 duplicates.
//! The only workload that reaches `cluster`: peer probe, shard forward,
//! worker execute, merge.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use heteropipe_cluster::{serve_cluster, ClusterConfig, WorkerRing};
use heteropipe_engine::{run_key, Engine, RunKey};
use heteropipe_serve::api::{self, parse_job_spec};
use heteropipe_serve::{Client, Json, ServerHandle};
use heteropipe_sim::SplitMix64;
use heteropipe_workloads::registry;

use crate::clock::{HostClock, Interval};
use crate::env::{
    loopback_server, peak_rss_mib, repeat_setup, scratch_dir, shuffle, sweep_records, SETUPS_AFTER,
    SETUPS_BEFORE,
};
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::Args;

/// Scale of the seeded jobs; fresh jobs sit just above it.
const SCALE: f64 = 0.02;
/// Keys seeded into the workers' caches.
const SEEDED: usize = 48;
/// Fresh keys per sweep.
const FRESH: usize = 16;
/// Duplicate entries per sweep.
const DUPLICATES: usize = 32;
/// Client timeout: a sweep through the coordinator may stall for many
/// seconds.
const TIMEOUT: Duration = Duration::from_secs(150);

/// A job as its JSON entry plus its run key.
#[derive(Debug, Clone)]
struct Entry {
    /// The job object sent in the sweep body.
    json: Json,
    /// Its run key.
    key: RunKey,
}

fn entry(benchmark: &str, system: &str, scale: f64) -> Entry {
    let json = Json::Obj(vec![
        ("benchmark".into(), Json::str(benchmark)),
        ("system".into(), Json::str(system)),
        ("organization".into(), Json::str("serial")),
        ("scale".into(), Json::F64(scale)),
    ]);
    let key = run_key(&parse_job_spec(&json).expect("catalogue job").spec());
    Entry { json, key }
}

/// Benchmarks of the fresh-key slots, each on both systems. A run key
/// hashes the pipeline, and a pipeline changes only when the scale moves
/// one of its element counts (`Scale::n` truncates `base * scale`), so
/// these are the examined benchmarks with the largest base counts: over
/// the [`FRESH_SCALES`] grid each yields thousands of distinct pipelines
/// (a test pins the least count). (At scales this small, many benchmarks clamp their
/// inputs and have one key across the whole range, or a few hundred.)
const FRESH_BENCHMARKS: [&str; FRESH / 2] = [
    "parboil/stencil",
    "rodinia/cell",
    "rodinia/dwt",
    "rodinia/hotspot",
    "rodinia/mummer",
    "rodinia/nn",
    "rodinia/pathfinder",
    "rodinia/srad",
];

/// Candidate scales a fresh slot draws from: `SCALE * (1 + k * STEP)` for
/// `k` in `1..=FRESH_SCALES`, at most 10% above `SCALE`, so a fresh job
/// costs about what a seeded one does.
const FRESH_SCALES: u64 = 8000;
/// Relative step between candidate scales.
const FRESH_STEP: f64 = 1.25e-5;

/// The fresh job of slot `(benchmark, system)` at grid step `k`.
fn fresh_entry(benchmark: &str, system: &str, k: u64) -> Entry {
    entry(benchmark, system, SCALE * (1.0 + k as f64 * FRESH_STEP))
}

/// `(benchmark, system)` pairs of every examined benchmark, in canonical
/// order; the first 48 are the seeded keys.
fn pairs() -> Vec<(String, &'static str)> {
    registry::examined()
        .iter()
        .flat_map(|w| {
            let name = w.meta.full_name();
            [(name.clone(), "discrete"), (name, "heterogeneous")]
        })
        .collect()
}

/// The 48 seeded entries (fixed, so every seed probes the same cached
/// reports).
fn seeded_entries() -> Vec<Entry> {
    pairs()
        .iter()
        .take(SEEDED)
        .map(|(b, s)| entry(b, s, SCALE))
        .collect()
}

/// Draws fresh keys: each of the 16 fresh slots (a benchmark of
/// [`FRESH_BENCHMARKS`] on one system) runs at a scale the seed perturbs
/// just above `SCALE`. A drawn key is new to `used` (which it joins), so
/// no key repeats within a run.
struct FreshKeys {
    rng: SplitMix64,
    pairs: Vec<(String, &'static str)>,
    used: HashSet<u128>,
}

impl FreshKeys {
    /// A generator whose draws exclude `seeded`.
    fn new(seed: u64, seeded: &[Entry]) -> FreshKeys {
        FreshKeys {
            rng: SplitMix64::new(seed ^ 0xF2E5_4000),
            pairs: FRESH_BENCHMARKS
                .iter()
                .flat_map(|b| {
                    [
                        (b.to_string(), "discrete"),
                        (b.to_string(), "heterogeneous"),
                    ]
                })
                .collect(),
            used: seeded.iter().map(|e| e.key.0).collect(),
        }
    }

    /// The next sweep's 16 fresh entries.
    fn draw(&mut self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(FRESH);
        for (b, s) in &self.pairs {
            let fresh = (0..FRESH_SCALES)
                .map(|_| fresh_entry(b, s, 1 + self.rng.below(FRESH_SCALES)))
                .find(|e| self.used.insert(e.key.0))
                .unwrap_or_else(|| panic!("{b} on {s} ran out of fresh keys"));
            out.push(fresh);
        }
        out
    }
}

/// One sweep's entries: the seeded 48, the fresh 16, and duplicates of
/// the first 32 seeded entries, in a seeded order.
fn sweep(seeded: &[Entry], fresh: Vec<Entry>, rng: &mut SplitMix64) -> Vec<Entry> {
    let mut v: Vec<Entry> = seeded.to_vec();
    v.extend(fresh);
    v.extend(seeded.iter().take(DUPLICATES).cloned());
    shuffle(&mut v, rng);
    v
}

fn body(entries: &[Entry]) -> Vec<u8> {
    Json::Obj(vec![(
        "jobs".into(),
        Json::Arr(entries.iter().map(|e| e.json.clone()).collect()),
    )])
    .dump()
    .into_bytes()
}

/// Two workers and a coordinator.
struct Cluster {
    coordinator: Option<ServerHandle>,
    workers: Vec<ServerHandle>,
    ring: WorkerRing,
}

impl Cluster {
    /// Shuts the coordinator down. Dropping it closes its pooled
    /// keep-alive connections, which otherwise hold worker threads until
    /// their read timeout.
    fn stop_coordinator(&mut self) {
        if let Some(c) = self.coordinator.take() {
            c.shutdown_and_join();
        }
    }

    /// Shuts everything down, coordinator first.
    fn stop(mut self) {
        self.stop_coordinator();
        for w in &self.workers {
            w.shutdown_and_join();
        }
    }

    fn coordinator_addr(&self) -> String {
        self.coordinator
            .as_ref()
            .expect("coordinator running")
            .addr()
            .to_string()
    }
}

/// Starts the cluster and seeds every seeded key into its owner's cache
/// with one direct sweep per worker.
fn set_up(tag: &str, seeded: &[Entry], out: &mut Outcome) -> Cluster {
    let workers: Vec<ServerHandle> = (0..2)
        .map(|i| {
            let engine = Engine::new().with_cache_dir(scratch_dir(&format!("{tag}-worker{i}")));
            api::serve(loopback_server(), Arc::new(engine)).expect("bind a worker")
        })
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
    let coordinator = serve_cluster(
        loopback_server(),
        ClusterConfig {
            workers: addrs.clone(),
            ..ClusterConfig::default()
        },
    )
    .expect("bind the coordinator");
    let ring = WorkerRing::new(addrs);
    for (slot, w) in workers.iter().enumerate() {
        let owned: Vec<Entry> = seeded
            .iter()
            .filter(|e| ring.owner(e.key, &[false, false]) == Some(slot))
            .cloned()
            .collect();
        let mut client = Client::new(w.addr().to_string()).with_timeout(TIMEOUT);
        let resp = client.post_raw("/v1/sweeps", body(&owned));
        out.tally(resp.is_ok_and(|r| r.status == 200));
    }
    Cluster {
        coordinator: Some(coordinator),
        workers,
        ring,
    }
}

/// What a coordinator sweep returned.
struct Sent {
    entries: Vec<Entry>,
    time: Interval,
    status: u16,
    body: Vec<u8>,
}

fn summary(body: &[u8]) -> Option<Json> {
    let text = std::str::from_utf8(body).ok()?;
    let last = text.lines().rev().find(|l| !l.trim().is_empty())?;
    Json::parse(last)?.get("sweep").cloned()
}

fn field(s: &Json, name: &str) -> u64 {
    s.get(name).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

/// Simulated accesses carried by a sweep's records.
fn accesses(body: &[u8]) -> u64 {
    sweep_records(body)
        .iter()
        .filter_map(|l| Json::parse(std::str::from_utf8(l).ok()?))
        .filter_map(|r| {
            let a = r.get("report")?.get("accesses")?;
            Some(
                ["copy", "cpu", "gpu"]
                    .iter()
                    .filter_map(|c| a.get(c).and_then(Json::as_u64))
                    .sum::<u64>(),
            )
        })
        .sum()
}

/// Checks every sweep after timing: the summary's counts are exact, and
/// the records are byte-identical to a single node running the same
/// sweep. Tallies one operation per entry.
fn check(sent: &[Sent], out: &mut Outcome) {
    let engine = Engine::new().with_cache_dir(scratch_dir("single-node"));
    let single = api::serve(loopback_server(), Arc::new(engine)).expect("bind the single node");
    let mut client = Client::new(single.addr().to_string()).with_timeout(TIMEOUT);
    for s in sent {
        let counts_ok = s.status == 200
            && summary(&s.body).is_some_and(|m| {
                field(&m, "jobs_total") == (SEEDED + FRESH + DUPLICATES) as u64
                    && field(&m, "jobs_unique") == (SEEDED + FRESH) as u64
                    && field(&m, "duplicates") == DUPLICATES as u64
                    && field(&m, "peer_cache_hits") == SEEDED as u64
                    && field(&m, "executed") == FRESH as u64
                    && field(&m, "failed") == 0
            });
        let reference = client
            .post_raw("/v1/sweeps", body(&s.entries))
            .map(|r| r.body)
            .unwrap_or_default();
        let want = sweep_records(&reference);
        let got = sweep_records(&s.body);
        let matching = got.iter().filter(|l| want.binary_search(l).is_ok()).count();
        for i in 0..s.entries.len() {
            out.tally(counts_ok && i < matching && got.len() == want.len());
        }
    }
    drop(client);
    single.shutdown_and_join();
}

/// Sends one sweep through the coordinator.
fn send(client: &mut Client, entries: Vec<Entry>, clock: &mut HostClock) -> Sent {
    let payload = body(&entries);
    let (resp, time) = clock.time(|| client.post_raw("/v1/sweeps", payload));
    match resp {
        Ok(r) => Sent {
            entries,
            time,
            status: r.status,
            body: r.body,
        },
        Err(_) => Sent {
            entries,
            time,
            status: 0,
            body: Vec::new(),
        },
    }
}

/// Runs `cluster_sweep`.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let seeded = seeded_entries();
    let mut fresh = FreshKeys::new(args.seed, &seeded);
    let mut order = SplitMix64::new(args.seed ^ 0x0D0E_5EED);

    let mut clock = HostClock::new();
    let (mut cluster, mut setup) = repeat_setup(
        &mut clock,
        SETUPS_BEFORE,
        |rep| set_up(&format!("setup{rep}"), &seeded, &mut out),
        Cluster::stop,
    );
    let mut client = Client::new(cluster.coordinator_addr()).with_timeout(TIMEOUT);

    let mut sent = Vec::new();
    if args.trace {
        // One untraced and one traced sweep for the overhead; the counts
        // come from the untraced one.
        let u = send(
            &mut client,
            sweep(&seeded, fresh.draw(), &mut order),
            &mut clock,
        );
        let entries = sweep(&seeded, fresh.draw(), &mut order);
        let (t, _) = tracer.span("cluster.sweep", 0, 1, || {
            send(&mut client, entries, &mut clock)
        });
        out.set(
            "bench.trace_overhead_frac",
            clock.seconds(&t.time) / clock.seconds(&u.time) - 1.0,
        );
        if let Some(m) = summary(&u.body) {
            let unique = field(&m, "jobs_unique").max(1);
            out.set(
                "cluster.peer_cache_hits",
                field(&m, "peer_cache_hits") as f64,
            );
            out.set("cluster.executed", field(&m, "executed") as f64);
            out.set("cluster.coalesced", field(&m, "coalesced") as f64);
            out.set("cluster.rehashes", field(&m, "rehashes") as f64);
            out.set(
                "cluster.peer_hit_ratio",
                field(&m, "peer_cache_hits") as f64 / unique as f64,
            );
        }
        let coordinator_wall = mean(&[u.time.wall, t.time.wall]);
        sent.push(u);
        sent.push(t);
        drop(client);
        cluster.stop_coordinator();
        direct(
            &cluster,
            &seeded,
            sweep(&seeded, fresh.draw(), &mut order),
            coordinator_wall,
            tracer,
            &mut out,
        );
    } else {
        let started = Instant::now();
        while sent.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
            let entries = sweep(&seeded, fresh.draw(), &mut order);
            sent.push(send(&mut client, entries, &mut clock));
        }
        drop(client);
    }
    cluster.stop();

    check(&sent, &mut out);
    if !args.trace {
        out.set("peak_rss_mib", peak_rss_mib(&clock));
        let (last, after) = repeat_setup(
            &mut clock,
            SETUPS_AFTER,
            |rep| set_up(&format!("setup{}", SETUPS_BEFORE + rep), &seeded, &mut out),
            Cluster::stop,
        );
        last.stop();
        setup.extend(after);
        let setup: Vec<f64> = setup.iter().map(|i| clock.seconds(i)).collect();
        out.set("setup_s", median(&setup));
        let times: Vec<Interval> = sent.iter().map(|s| s.time).collect();
        let seconds: Vec<f64> = times.iter().map(|i| clock.seconds(i)).collect();
        let busy: f64 = seconds.iter().sum();
        let jobs = sent.iter().map(|s| s.entries.len()).sum::<usize>();
        let carried: u64 = sent.iter().map(|s| accesses(&s.body)).sum();
        out.set("jobs_per_s", jobs as f64 / busy);
        out.set("sim_accesses_per_s", carried as f64 / busy);
        out.set("req_per_s", sent.len() as f64 / busy);
        out.set("sweep_median_ms", median(&seconds) * 1e3);
        out.noise("sweep_s", &times, &clock);
    }
    out
}

/// The coordinator's worker calls made straight to the workers, after the
/// coordinator has been shut down: each shard probes its keys at their
/// owner one at a time, then posts its misses as a worker sweep; shards
/// run in parallel, as the coordinator runs them. Their wall time is the
/// direct-call estimate the coordinator's overhead is measured against.
fn direct(
    cluster: &Cluster,
    seeded: &[Entry],
    entries: Vec<Entry>,
    coordinator_wall: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) {
    let mut unique: Vec<Entry> = Vec::new();
    let mut seen = HashSet::new();
    for e in &entries {
        if seen.insert(e.key.0) {
            unique.push(e.clone());
        }
    }
    let seeded_keys: HashSet<u128> = seeded.iter().map(|e| e.key.0).collect();
    let root = tracer.new_id();
    let start = Instant::now();
    let shards: Vec<(Vec<f64>, f64, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cluster.workers.len())
            .map(|slot| {
                let owned: Vec<&Entry> = unique
                    .iter()
                    .filter(|e| cluster.ring.owner(e.key, &[false, false]) == Some(slot))
                    .collect();
                let addr = cluster.ring.addr(slot).to_string();
                let seeded_keys = &seeded_keys;
                s.spawn(move || {
                    let mut client = Client::new(addr).with_timeout(TIMEOUT);
                    let mut rtts = Vec::new();
                    let mut misses = Vec::new();
                    let mut ok = true;
                    for (n, e) in owned.iter().enumerate() {
                        let path = format!("/v1/runs/{}", e.key.hex());
                        let (resp, d) =
                            tracer.span("cluster.probe", root, n as u64 + 1, || client.get(&path));
                        rtts.push(d.as_secs_f64() * 1e6);
                        let hit = resp.is_ok_and(|r| r.status == 200);
                        ok &= hit == seeded_keys.contains(&e.key.0);
                        if !hit {
                            misses.push((*e).clone());
                        }
                    }
                    let (resp, d) =
                        tracer.span("cluster.shard_sweep", root, 1000 + slot as u64, || {
                            client.post_raw("/v1/sweeps", body(&misses))
                        });
                    ok &= resp.is_ok_and(|r| r.status == 200);
                    (rtts, d.as_secs_f64() * 1e3, ok)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    tracer.record_at("cluster.direct", root, 0, 0, start, Instant::now());
    let rtts = sorted(shards.iter().flat_map(|s| s.0.iter().copied()).collect());
    for s in &shards {
        out.tally(s.2);
    }
    match percentile(&rtts, 0.5) {
        Some(p50) => out.set("cluster.probe_rtt_us", p50),
        None => out.skip("cluster.probe_rtt_us", "fewer than 20 probes"),
    }
    out.set(
        "cluster.shard_sweep_ms",
        mean(&shards.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    out.set(
        "cluster.overhead_us_per_job",
        (coordinator_wall - wall) * 1e6 / entries.len() as f64,
    );
    out.set("bench.attributed_frac", wall / coordinator_wall);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct fresh keys every slot must offer. One sweep takes at least
    /// the simulation time of its 16 fresh jobs over the host's cores,
    /// about 60 ms on a 2-core host, so a 35 s run sends under 600 sweeps;
    /// 4000 keys per slot stay enough even if the simulator becomes six
    /// times faster.
    const MIN_FRESH_KEYS: usize = 4000;

    #[test]
    fn fresh_keys_follow_the_seed_and_never_repeat() {
        let seeded = seeded_entries();
        let keys = |seed| -> Vec<u128> {
            let mut f = FreshKeys::new(seed, &seeded);
            (0..3).flat_map(|_| f.draw()).map(|e| e.key.0).collect()
        };
        let a = keys(11);
        assert_eq!(a, keys(11));
        assert_ne!(a, keys(12));
        let distinct: HashSet<u128> = a.iter().copied().collect();
        assert_eq!(distinct.len(), 3 * FRESH);
        let seeded_keys: HashSet<u128> = seeded.iter().map(|e| e.key.0).collect();
        assert!(distinct.is_disjoint(&seeded_keys));
    }

    #[test]
    fn every_fresh_slot_offers_enough_distinct_keys() {
        // The key hashes the pipeline and the system's config, so a slot's
        // count is its benchmark's count of distinct pipelines on the grid.
        for b in FRESH_BENCHMARKS {
            let distinct: HashSet<u128> = (1..=FRESH_SCALES)
                .map(|k| fresh_entry(b, "discrete", k).key.0)
                .collect();
            assert!(
                distinct.len() >= MIN_FRESH_KEYS,
                "{b}: {} distinct fresh keys, want {MIN_FRESH_KEYS}",
                distinct.len()
            );
        }
    }

    #[test]
    fn a_sweep_has_64_unique_keys_and_32_duplicates() {
        let seeded = seeded_entries();
        let mut f = FreshKeys::new(5, &seeded);
        let mut rng = SplitMix64::new(5);
        let s = sweep(&seeded, f.draw(), &mut rng);
        let unique: HashSet<u128> = s.iter().map(|e| e.key.0).collect();
        assert_eq!(s.len(), 96);
        assert_eq!(unique.len(), 64);
        let again = sweep(
            &seeded,
            FreshKeys::new(5, &seeded).draw(),
            &mut SplitMix64::new(5),
        );
        let order = |v: &[Entry]| v.iter().map(|e| e.key.0).collect::<Vec<_>>();
        assert_eq!(order(&s), order(&again));
    }
}
