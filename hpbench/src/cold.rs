//! `cold_small`: a sweep that simulates every job, through
//! `Engine::execute_sweep` over a fresh on-disk cache each pass.
//!
//! Almost all time is in `core.run`; the engine only misses and persists.
//! Every report is checked against a digest pinned from the seed commit.
//! The traced run also times a few [`large`] jobs, for the cost per
//! access at scale 1.0.

use std::time::{Duration, Instant};

use heteropipe::{lower, JobSpec, Organization, RunReport, SystemConfig};
use heteropipe_engine::{codec, run_key, Engine, ResultCache};
use heteropipe_workloads::{registry, Pipeline, Scale};

use crate::clock::{HostClock, Interval};
use crate::env::{fnv1a64, peak_rss_mib, scratch_dir};
use crate::metrics::Outcome;
use crate::pins;
use crate::replay::{replay, Replay};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Args;

/// Operation ids of the scale-1.0 jobs in the trace start here, after
/// those of the workload's own jobs.
const LARGE_OPS: u64 = 1_000;
/// Least wall time of one timed block of back-to-back set-ups: a single
/// set-up takes well under a millisecond, too short to time on its own.
const SETUP_BLOCK: Duration = Duration::from_millis(25);
/// Set-up blocks timed before the first pass.
const SETUP_BLOCKS_FIRST: u32 = 5;
/// Share of each pass's wall time spent on set-up blocks after it, so the
/// blocks sample the whole run rather than its start.
const SETUP_SHARE: f64 = 0.02;

/// A set of cold jobs.
pub struct Cold {
    /// Name of the set (its pins are filed under it).
    pub name: &'static str,
    /// Input scale of every job.
    pub scale: f64,
    /// Benchmarks, each run on the discrete system (copy version) and the
    /// heterogeneous processor (limited-copy version), serial.
    pub benchmarks: Vec<String>,
    /// Canonical job indexes the traced run times.
    pub attribute: Vec<usize>,
}

/// The 92 jobs of the Fig. 6 characterize sweep at scale 0.05.
pub fn cold_small() -> Cold {
    let benchmarks: Vec<String> = registry::examined()
        .iter()
        .map(|w| w.meta.full_name())
        .collect();
    let n = benchmarks.len() * 2;
    Cold {
        name: "cold_small",
        scale: 0.05,
        benchmarks,
        attribute: (0..n).collect(),
    }
}

/// Six benchmarks at scale 1.0, on both systems: 12 jobs whose per-access
/// tables exceed the host caches. Not a workload of its own (its passes
/// move with the shared host's cache contention by more than any bound
/// the benchmark may set); the traced run of `cold_small` times one job
/// per benchmark for `core.run_ns_per_access_large`.
pub fn large() -> Cold {
    let benchmarks = [
        "pannotia/pr_spmv",
        "rodinia/kmeans",
        "rodinia/hotspot",
        "rodinia/srad",
        "rodinia/bfs",
        "rodinia/backprop",
    ]
    .map(String::from)
    .to_vec();
    Cold {
        name: "large",
        scale: 1.0,
        benchmarks,
        // One job per benchmark, alternating systems so heterogeneous
        // page touches are timed too.
        attribute: (0..6).map(|b| 2 * b + b % 2).collect(),
    }
}

/// The jobs of a cold workload, in canonical order (benchmark by
/// benchmark, discrete then heterogeneous).
pub struct JobSet {
    pipelines: Vec<Pipeline>,
    misaligned: Vec<bool>,
    configs: [SystemConfig; 2],
}

impl JobSet {
    /// Resolves every benchmark and builds its pipeline.
    pub fn build(cold: &Cold) -> JobSet {
        let mut pipelines = Vec::with_capacity(cold.benchmarks.len());
        let mut misaligned = Vec::with_capacity(cold.benchmarks.len());
        for name in &cold.benchmarks {
            let w = registry::find(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
            pipelines.push(
                w.pipeline(Scale::new(cold.scale))
                    .unwrap_or_else(|| panic!("{name} is not runnable")),
            );
            misaligned.push(w.meta.misalignment_sensitive);
        }
        JobSet {
            pipelines,
            misaligned,
            configs: [SystemConfig::discrete(), SystemConfig::heterogeneous()],
        }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.pipelines.len() * 2
    }

    /// Whether there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// Canonical job `i`.
    pub fn spec(&self, i: usize) -> JobSpec<'_> {
        JobSpec {
            pipeline: &self.pipelines[i / 2],
            config: &self.configs[i % 2],
            organization: Organization::Serial,
            misalignment_sensitive: self.misaligned[i / 2],
        }
    }
}

/// FNV-1a of a report's canonical encoding.
pub fn report_digest(r: &RunReport) -> u64 {
    fnv1a64(&codec::encode(r))
}

/// Exact counts a pass must reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `RunReport::total_accesses`.
    pub line_accesses: u64,
    /// Off-chip fetches.
    pub offchip_fetches: u64,
    /// Off-chip writebacks.
    pub offchip_writebacks: u64,
    /// Page faults.
    pub page_faults: u64,
    /// Coherent cache-to-cache transfers.
    pub remote_hits: u64,
    /// Bytes touched by any component.
    pub footprint_bytes: u64,
}

impl Counts {
    /// Adds one report's counts.
    pub fn add(&mut self, r: &RunReport) {
        self.line_accesses += r.total_accesses();
        self.offchip_fetches += r.offchip_fetches;
        self.offchip_writebacks += r.offchip_writebacks;
        self.page_faults += r.faults;
        self.remote_hits += r.remote_hits;
        self.footprint_bytes += r.total_footprint;
    }
}

/// One timed pass: a fresh engine over a fresh cache directory executes
/// the whole sweep.
struct Pass {
    time: Interval,
    reports: Vec<Option<RunReport>>,
    engine: heteropipe_engine::MetricsSnapshot,
}

fn run_pass(jobs: &JobSet, tag: &str, tracer: Option<&Tracer>, clock: &mut HostClock) -> Pass {
    let dir = scratch_dir(tag);
    let engine = Engine::new().with_cache_dir(&dir);
    let specs: Vec<JobSpec<'_>> = (0..jobs.len()).map(|i| jobs.spec(i)).collect();
    let (out, time) = clock.time(|| {
        let start = Instant::now();
        match tracer {
            None => engine.execute_sweep(&specs),
            Some(t) => {
                // One span per pass, and one per job from the pass start to
                // the moment its result arrived.
                let sweep = t.new_id();
                let sink = |rec: &heteropipe_engine::SweepRecord| {
                    let id = t.new_id();
                    let op = rec.index as u64 + 1;
                    t.record_at("engine.sweep_result", id, sweep, op, start, Instant::now());
                };
                let out = engine.execute_sweep_observed(&specs, None, &sink);
                t.record_at("engine.execute_sweep", sweep, 0, 0, start, Instant::now());
                out
            }
        }
    });
    let reports: Vec<Option<RunReport>> = out.results.into_iter().map(Result::ok).collect();
    let engine_metrics = engine.metrics();
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    Pass {
        time,
        reports,
        engine: engine_metrics,
    }
}

/// Tallies a pass: each job is correct when its report's digest matches
/// the pin; a pass whose summed counts miss the pin fails every job.
fn check_pass(cold: &Cold, pass: &Pass, out: &mut Outcome) -> Counts {
    let pinned = pins::digests(cold.name);
    let mut counts = Counts::default();
    for r in pass.reports.iter().flatten() {
        counts.add(r);
    }
    let counts_ok = counts == pins::counts(cold.name);
    for (i, r) in pass.reports.iter().enumerate() {
        let ok = counts_ok
            && r.as_ref()
                .is_some_and(|r| Some(&report_digest(r)) == pinned.get(i));
        out.tally(ok);
    }
    counts
}

/// Runs a cold workload.
pub fn run(cold: &Cold, args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: resolve the sweep's benchmarks and build their pipelines.
    // Cold inputs are the fixed sweep, submitted in canonical order: a
    // seeded order would let the two-thread schedule, not the code, set
    // the pass time.
    let jobs = JobSet::build(cold);
    if args.trace {
        traced(cold, args, tracer, &jobs, &mut out);
        return out;
    }

    let mut clock = HostClock::new();
    let mut setup = Vec::new();
    time_setup(
        cold,
        &mut clock,
        SETUP_BLOCK * SETUP_BLOCKS_FIRST,
        &mut setup,
    );
    let pass = run_pass(&jobs, "warm-up", None, &mut clock);
    check_pass(cold, &pass, &mut out);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut accesses = 0u64;
    while passes.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let pass = run_pass(&jobs, &format!("pass-{}", passes.len()), None, &mut clock);
        accesses = check_pass(cold, &pass, &mut out).line_accesses;
        passes.push(pass.time);
        let budget = Duration::from_secs_f64(pass.time.wall * SETUP_SHARE);
        time_setup(cold, &mut clock, budget, &mut setup);
    }
    // Rates from the median pass: one slow pass moves the figure less
    // than it would move a sum.
    let seconds: Vec<f64> = passes.iter().map(|i| clock.seconds(i)).collect();
    let typical = median(&seconds);
    let setup: Vec<f64> = setup.iter().map(|i| clock.seconds(i)).collect();
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mib", peak_rss_mib(&clock));
    out.set("jobs_per_s", jobs.len() as f64 / typical);
    out.set("sim_accesses_per_s", accesses as f64 / typical);
    out.set("req_per_s", 1.0 / typical);
    out.set("sweep_median_ms", typical * 1e3);
    out.noise("pass_s", &passes, &clock);
    out
}

/// Times the set-up in blocks of back-to-back builds until `budget` is
/// spent (at least one block), pushing each block's interval per set-up.
fn time_setup(cold: &Cold, clock: &mut HostClock, budget: Duration, times: &mut Vec<Interval>) {
    let start = Instant::now();
    loop {
        let (n, block) = clock.time_short(|| {
            let t = Instant::now();
            let mut n = 0u32;
            while n == 0 || t.elapsed() < SETUP_BLOCK {
                std::hint::black_box(JobSet::build(cold));
                n += 1;
            }
            n
        });
        times.push(block.per(n));
        if start.elapsed() >= budget {
            break;
        }
    }
}

/// The traced run: layer-by-layer attribution of a fixed job subset, then
/// untraced and traced passes for the counts and the tracing overhead.
fn traced(cold: &Cold, args: &Args, tracer: &Tracer, jobs: &JobSet, out: &mut Outcome) {
    let pinned = pins::digests(cold.name);
    let cache = ResultCache::on_disk(scratch_dir("attribute-cache"));
    let exec_dir = scratch_dir("attribute-engine");
    let engine = Engine::new().with_cache_dir(&exec_dir);

    let (mut pipeline_ns, mut lower_ns, mut run_ns, mut key_ns, mut persist_ns, mut exec_ns) =
        (0f64, 0f64, 0f64, 0f64, 0f64, 0f64);
    let mut run_accesses = 0u64;
    let mut unattributed_ns = 0f64;
    let mut overheads = Vec::new();
    let mut walk = Replay::default();
    let mut replay_matches = true;
    for (n, &i) in cold.attribute.iter().enumerate() {
        let op = i as u64 + 1;
        let job = tracer.new_id();
        let job_start = Instant::now();
        let spec = jobs.spec(i);
        let name = &cold.benchmarks[i / 2];
        let (_, d) = tracer.span("workloads.pipeline", job, op, || {
            registry::find(name)
                .and_then(|w| w.pipeline(Scale::new(cold.scale)))
                .expect("benchmark resolves")
        });
        pipeline_ns += d.as_nanos() as f64;
        let (_, d) = tracer.span("core.lower", job, op, || {
            lower(
                spec.pipeline,
                spec.config,
                spec.organization,
                spec.misalignment_sensitive,
            )
        });
        lower_ns += d.as_nanos() as f64;
        let direct = |tracer: &Tracer| {
            tracer.span("core.run", job, op, || {
                heteropipe::run::run(
                    spec.pipeline,
                    spec.config,
                    spec.organization,
                    spec.misalignment_sensitive,
                )
            })
        };
        let through_engine = |tracer: &Tracer| {
            tracer.span("engine.try_execute", job, op, || engine.try_execute(&spec))
        };
        // Alternate which of the two executions goes first so neither
        // always runs on warmer host caches.
        let (report, run_d, exec_d) = if n % 2 == 0 {
            let (r, d) = direct(tracer);
            let (e, ed) = through_engine(tracer);
            out.tally(e.is_ok_and(|e| report_digest(&e) == report_digest(&r)));
            (r, d, ed)
        } else {
            let (e, ed) = through_engine(tracer);
            let (r, d) = direct(tracer);
            out.tally(e.is_ok_and(|e| report_digest(&e) == report_digest(&r)));
            (r, d, ed)
        };
        out.tally(Some(&report_digest(&report)) == pinned.get(i));
        run_ns += run_d.as_nanos() as f64;
        run_accesses += report.total_accesses();
        exec_ns += exec_d.as_nanos() as f64;
        overheads.push(exec_d.as_nanos() as f64 - run_d.as_nanos() as f64);
        let (rep, _) = tracer.span("core.replay", job, op, || {
            replay(
                spec.pipeline,
                spec.config,
                spec.organization,
                spec.misalignment_sensitive,
            )
        });
        replay_matches &= rep.line_accesses == report.total_accesses()
            && rep.offchip_fetches == report.offchip_fetches
            && rep.offchip_writebacks == report.offchip_writebacks
            && rep.page_faults == report.faults
            && rep.remote_hits == report.remote_hits
            && rep.footprint_bytes == report.total_footprint;
        unattributed_ns += run_d.as_nanos() as f64 - rep.attributed_ns() as f64;
        walk.add(&rep);
        let (key, d) = tracer.span("engine.key", job, op, || run_key(&spec));
        key_ns += d.as_nanos() as f64;
        let (_, d) = tracer.span("engine.persist", job, op, || cache.put(key, &report));
        persist_ns += d.as_nanos() as f64;
        tracer.record_at("job", job, 0, op, job_start, Instant::now());
    }
    let n = cold.attribute.len().max(1) as f64;
    out.set("workloads.pipeline_us", pipeline_ns / n / 1e3);
    out.set("core.lower_us", lower_ns / n / 1e3);
    out.set("core.run_ms", run_ns / n / 1e6);
    out.set(
        "core.run_ns_per_access",
        run_ns / run_accesses.max(1) as f64,
    );
    out.set("core.run_unattributed_ms", unattributed_ns / n / 1e6);
    out.set("core.replay.line_accesses", walk.line_accesses as f64);
    per_op(
        out,
        "workloads.emit_ns_per_line",
        walk.emit_ns,
        walk.emitted_lines,
        "no pattern emitted a line",
    );
    per_op(
        out,
        "mem.hierarchy_ns_per_access",
        walk.hierarchy_ns,
        walk.hierarchy_accesses,
        "no cache access",
    );
    per_op(
        out,
        "mem.page_ns_per_touch",
        walk.page_ns,
        walk.page_touches,
        "no GPU access on the heterogeneous processor in the attributed jobs",
    );
    per_op(
        out,
        "core.footprint_ns_per_touch",
        walk.footprint_ns,
        walk.footprint_touches,
        "no footprint touch",
    );
    per_op(
        out,
        "core.classify_ns_per_fetch",
        walk.classify_ns,
        walk.classifier_events,
        "no off-chip traffic",
    );
    if !replay_matches {
        out.not_measured.insert(
            "core.replay.line_accesses",
            "measured, but the replayed counts differ from the run's report: the run no longer walks tasks in id order".into(),
        );
    }
    out.set("engine.key_us", key_ns / n / 1e3);
    out.set("engine.persist_us", persist_ns / n / 1e3);
    out.set("engine.overhead_us_per_job", median(&overheads) / 1e3);
    out.set(
        "bench.attributed_frac",
        (walk.attributed_ns() as f64 + key_ns + persist_ns) / exec_ns,
    );
    time_large(tracer, out);
    for name in ["engine.probe_ns", "engine.validate_ns", "engine.decode_us"] {
        out.skip(
            name,
            "cold passes never read a warm cache; measured on warm_serve",
        );
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&exec_dir);

    // Untraced and traced passes alternate; the counts come from the
    // first untraced pass.
    let mut clock = HostClock::new();
    let started = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut first = None;
    let mut pairs = 0;
    while pairs == 0 || started.elapsed().as_secs_f64() < args.seconds / 3.0 {
        let u = run_pass(jobs, &format!("untraced-{pairs}"), None, &mut clock);
        let counts = check_pass(cold, &u, out);
        let t = run_pass(jobs, &format!("traced-{pairs}"), Some(tracer), &mut clock);
        check_pass(cold, &t, out);
        plain.push(u.time);
        spanned.push(t.time);
        first.get_or_insert((counts, u.engine));
        pairs += 1;
    }
    let total = |xs: &[Interval]| xs.iter().map(|i| clock.seconds(i)).sum::<f64>();
    out.set(
        "bench.trace_overhead_frac",
        total(&spanned) / total(&plain) - 1.0,
    );
    let (counts, e) = first.expect("one pass pair");
    out.set("core.run.line_accesses", counts.line_accesses as f64);
    out.set("core.run.offchip_fetches", counts.offchip_fetches as f64);
    out.set(
        "core.run.offchip_writebacks",
        counts.offchip_writebacks as f64,
    );
    out.set("core.run.page_faults", counts.page_faults as f64);
    out.set("core.run.remote_hits", counts.remote_hits as f64);
    out.set("core.run.footprint_bytes", counts.footprint_bytes as f64);
    out.set("engine.executed", e.jobs_executed as f64);
    out.set("engine.memory_hits", e.memory_hits as f64);
    out.set("engine.disk_hits", e.disk_hits as f64);
    out.set("engine.deduped", e.sweep_deduped as f64);
    out.set("engine.coalesced", e.flights_coalesced as f64);
    out.set("engine.hit_ratio", e.hit_rate());
}

/// Times one scale-1.0 job per [`large`] benchmark, each checked against
/// its pinned digest, for the cost per line access at scale 1.0 beside
/// `core.run_ns_per_access` at scale 0.05 (ROADMAP item 3 asks that it
/// stay flat across scale).
fn time_large(tracer: &Tracer, out: &mut Outcome) {
    let large = large();
    let jobs = JobSet::build(&large);
    let pinned = pins::digests(large.name);
    let (mut run_ns, mut accesses) = (0f64, 0u64);
    for &i in &large.attribute {
        let op = LARGE_OPS + i as u64;
        let job = tracer.new_id();
        let start = Instant::now();
        let spec = jobs.spec(i);
        let (report, d) = tracer.span("core.run", job, op, || {
            heteropipe::run::run(
                spec.pipeline,
                spec.config,
                spec.organization,
                spec.misalignment_sensitive,
            )
        });
        out.tally(Some(&report_digest(&report)) == pinned.get(i));
        run_ns += d.as_nanos() as f64;
        accesses += report.total_accesses();
        tracer.record_at("job", job, 0, op, start, Instant::now());
    }
    out.set(
        "core.run_ns_per_access_large",
        run_ns / accesses.max(1) as f64,
    );
}

/// Sets `name` to `ns / ops`, or records why it has no operations.
fn per_op(out: &mut Outcome, name: &'static str, ns: u64, ops: u64, why: &str) {
    if ops == 0 {
        out.skip(name, why);
    } else {
        out.set(name, ns as f64 / ops as f64);
    }
}

/// Canonical per-job digests and summed counts of a cold workload, one
/// line each, in the form `pins.rs` stores them.
pub fn print_pins(cold: &Cold) {
    let jobs = JobSet::build(cold);
    let pass = run_pass(&jobs, "pins", None, &mut HostClock::new());
    let mut counts = Counts::default();
    for (i, r) in pass.reports.iter().enumerate() {
        let r = r.as_ref().expect("every pinned job succeeds");
        counts.add(r);
        println!(
            "0x{:016x}, // {} {:?}",
            report_digest(r),
            r.benchmark,
            jobs.spec(i).config.platform
        );
    }
    println!("{counts:?}");
}
