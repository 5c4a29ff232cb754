//! `warm_serve`: an in-process `api::serve` with the default
//! `ServerConfig` over a cache pre-seeded by a fig6 workflow. Two
//! keep-alive clients drive a closed loop over a seeded shuffle of a
//! fixed request mix; the simulator does no work.
//!
//! The mix takes its route shares from the repository's load generator
//! (`request_mix` in `crates/bench/src/bin/loadgen.rs`: of eight slots,
//! four `POST /v1/runs` and one each of `/healthz`, `/metrics`, sweeps and
//! workflows), restricted to the routes this workload exercises (no
//! `/healthz`). Its run slots are split evenly between `POST /v1/runs` and
//! the `GET /v1/runs/{key}` lookup the load generator predates, every
//! other lookup conditional. Per seven requests: two run posts, two
//! lookups, one sweep, one workflow, one metrics scrape.

use std::io::{BufReader, Cursor};
use std::sync::Arc;
use std::time::{Duration, Instant};

use heteropipe_engine::{codec, run_key, Engine, RunKey};
use heteropipe_flow::FlowRunner;
use heteropipe_serve::api::{self, parse_job_spec, report_json, sweep_entries};
use heteropipe_serve::{http, Client, ClientResponse, Json, ServerHandle};
use heteropipe_sim::SplitMix64;
use heteropipe_workloads::{registry, Scale};

use crate::clock::HostClock;
use crate::env::{
    loopback_server, peak_rss_mib, repeat_setup, scratch_dir, shuffle, sweep_records, SETUPS_AFTER,
    SETUPS_BEFORE,
};
use crate::metrics::Outcome;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::Args;

/// Scale of every job the mix touches (the fig6 workflow's scale).
const SCALE: f64 = 0.02;
/// Keep-alive clients.
const CLIENTS: usize = 2;
/// Distinct 8-entry sweep bodies in the mix; each is sent twice, so the
/// mix holds one sweep per two run posts, as the load generator's does.
const SWEEPS: usize = 23;
/// Workflows and metrics scrapes in the mix: as many as sweeps.
const PER_ROUTE: usize = 2 * SWEEPS;
/// Length of one timed segment of the closed loop; a calibration runs
/// between segments.
const SEGMENT_S: f64 = 2.5;
/// Repetitions of each replayed call in the attribution phase.
const REPS: usize = 200;

/// The five routes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// `POST /v1/runs`
    RunsPost,
    /// `GET /v1/runs/{key}`
    RunsGet,
    /// `POST /v1/sweeps`
    SweepsPost,
    /// `POST /v1/workflows`
    WorkflowsPost,
    /// `GET /metrics`
    MetricsGet,
}

impl Route {
    const ALL: [Route; 5] = [
        Route::RunsPost,
        Route::RunsGet,
        Route::SweepsPost,
        Route::WorkflowsPost,
        Route::MetricsGet,
    ];

    fn label(self) -> &'static str {
        match self {
            Route::RunsPost => "runs_post",
            Route::RunsGet => "runs_get",
            Route::SweepsPost => "sweeps_post",
            Route::WorkflowsPost => "workflows_post",
            Route::MetricsGet => "metrics_get",
        }
    }
}

/// One request of the mix, rendered once.
#[derive(Debug, Clone)]
struct Request {
    /// Which route.
    route: Route,
    /// Job index (runs) or sweep index (sweeps); 0 otherwise.
    index: usize,
    /// `GET /v1/runs/{key}` with `If-None-Match: "{key}"` (expects 304).
    conditional: bool,
    path: String,
    body: Option<Vec<u8>>,
}

/// The 92 jobs (46 examined benchmarks on both systems, serial) as JSON
/// job objects, in canonical order.
fn job_objects() -> Vec<Json> {
    let mut jobs = Vec::new();
    for w in registry::examined() {
        for system in ["discrete", "heterogeneous"] {
            jobs.push(Json::Obj(vec![
                ("benchmark".into(), Json::str(w.meta.full_name())),
                ("system".into(), Json::str(system)),
                ("organization".into(), Json::str("serial")),
                ("scale".into(), Json::F64(SCALE)),
            ]));
        }
    }
    jobs
}

/// Job indexes of sweep `s`: seven distinct jobs plus a duplicate of the
/// first.
fn sweep_jobs(s: usize, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..7).map(|k| (s * 7 + k) % n).collect();
    v.push(v[0]);
    v
}

/// The fixed request multiset, shuffled by `seed`: one run POST and one
/// run GET per job (every other GET conditional), each sweep twice, and
/// 46 warm fig6 workflows and 46 metrics scrapes — 322 requests in the
/// 2:2:1:1:1 shares of the module doc.
fn request_mix(keys: &[RunKey], seed: u64) -> Vec<Request> {
    let jobs = job_objects();
    let mut mix = Vec::with_capacity(2 * jobs.len() + 3 * PER_ROUTE);
    let mk = |route, index, conditional, path: String, body: Option<String>| Request {
        route,
        index,
        conditional,
        path,
        body: body.map(String::into_bytes),
    };
    for (i, job) in jobs.iter().enumerate() {
        mix.push(mk(
            Route::RunsPost,
            i,
            false,
            "/v1/runs".into(),
            Some(job.dump()),
        ));
        let path = format!("/v1/runs/{}", keys[i].hex());
        mix.push(mk(Route::RunsGet, i, i % 2 == 1, path, None));
    }
    for s in 0..SWEEPS {
        let body = sweep_body(&jobs, s);
        for _ in 0..PER_ROUTE / SWEEPS {
            mix.push(mk(
                Route::SweepsPost,
                s,
                false,
                "/v1/sweeps".into(),
                Some(body.clone()),
            ));
        }
    }
    for _ in 0..PER_ROUTE {
        mix.push(mk(
            Route::WorkflowsPost,
            0,
            false,
            "/v1/workflows".into(),
            Some(workflow_body()),
        ));
    }
    for _ in 0..PER_ROUTE {
        mix.push(mk(Route::MetricsGet, 0, false, "/metrics".into(), None));
    }
    shuffle(&mut mix, &mut SplitMix64::new(seed ^ 0x5E2F_E000));
    mix
}

fn sweep_body(jobs: &[Json], s: usize) -> String {
    let entries: Vec<Json> = sweep_jobs(s, jobs.len())
        .iter()
        .map(|&j| jobs[j].clone())
        .collect();
    Json::Obj(vec![("jobs".into(), Json::Arr(entries))]).dump()
}

fn workflow_body() -> String {
    Json::Obj(vec![
        ("workflow".into(), Json::str("fig6")),
        ("scale".into(), Json::F64(SCALE)),
    ])
    .dump()
}

/// Run keys of the canonical jobs.
fn job_keys() -> Vec<RunKey> {
    job_objects()
        .iter()
        .map(|j| run_key(&parse_job_spec(j).expect("catalogue job").spec()))
        .collect()
}

fn send(client: &mut Client, r: &Request) -> std::io::Result<ClientResponse> {
    match &r.body {
        Some(body) => client.post_raw(&r.path, body.clone()),
        None if r.conditional => {
            let etag = format!("\"{}\"", &r.path["/v1/runs/".len()..]);
            client.get_with_headers(&r.path, &[("If-None-Match", etag.as_str())])
        }
        None => client.get(&r.path),
    }
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// What the first response to each distinct request looked like, and what
/// each request delivers.
struct Reference {
    runs_post: Vec<Vec<u8>>,
    runs_get: Vec<Vec<u8>>,
    sweeps: Vec<Vec<u8>>,
    accesses: Vec<u64>,
}

impl Reference {
    /// Whether `resp` is the right answer to `r`.
    fn check(&self, r: &Request, resp: &ClientResponse) -> bool {
        match r.route {
            Route::RunsPost => resp.status == 200 && resp.body == self.runs_post[r.index],
            Route::RunsGet if r.conditional => resp.status == 304 && resp.body.is_empty(),
            Route::RunsGet => resp.status == 200 && resp.body == self.runs_get[r.index],
            Route::SweepsPost => {
                resp.status == 200
                    && sweep_records(&resp.body) == sweep_records(&self.sweeps[r.index])
                    && contains(&resp.body, b"\"executed\":0,")
                    && contains(&resp.body, b"\"failed\":0,")
            }
            Route::WorkflowsPost => {
                resp.status == 200
                    && contains(&resp.body, b"\"executed\":0,")
                    && contains(&resp.body, b"\"failed\":0,")
                    && !contains(&resp.body, b"\"cache_hit\":false")
            }
            Route::MetricsGet => resp.status == 200 && resp.json().is_some(),
        }
    }

    /// `(job results, simulated accesses)` a correct response delivers.
    fn delivers(&self, r: &Request, n: usize) -> (u64, u64) {
        match r.route {
            Route::RunsPost => (1, self.accesses[r.index]),
            Route::RunsGet if r.conditional => (0, 0),
            Route::RunsGet => (1, self.accesses[r.index]),
            Route::SweepsPost => {
                let jobs = sweep_jobs(r.index, n);
                (
                    jobs.len() as u64,
                    jobs.iter().map(|&j| self.accesses[j]).sum(),
                )
            }
            Route::WorkflowsPost | Route::MetricsGet => (0, 0),
        }
    }
}

/// A running server with its pre-seeded cache.
struct Rig {
    engine: Arc<Engine>,
    server: ServerHandle,
    reference: Reference,
}

impl Rig {
    fn stop(self) {
        self.server.shutdown_and_join();
    }
}

/// Starts a server over a fresh cache, seeds the cache with one fig6
/// workflow, and records the first response to every distinct request.
fn set_up(tag: &str, keys: &[RunKey], out: &mut Outcome) -> Rig {
    let dir = scratch_dir(tag);
    let engine = Arc::new(Engine::new().with_cache_dir(&dir));
    let server =
        api::serve(loopback_server(), Arc::clone(&engine)).expect("bind the warm_serve server");
    let mut client = Client::new(server.addr().to_string()).with_timeout(Duration::from_secs(60));
    let seeded = client
        .post_raw("/v1/workflows", workflow_body().into_bytes())
        .expect("seed the cache with fig6");
    out.tally(seeded.status == 200 && contains(&seeded.body, b"\"failed\":0,"));

    let jobs = job_objects();
    let mut reference = Reference {
        runs_post: Vec::new(),
        runs_get: Vec::new(),
        sweeps: Vec::new(),
        accesses: Vec::new(),
    };
    for (i, job) in jobs.iter().enumerate() {
        let post = client
            .post_raw("/v1/runs", job.dump().into_bytes())
            .expect("reference run");
        let get = client
            .get(&format!("/v1/runs/{}", keys[i].hex()))
            .expect("reference lookup");
        out.tally(post.status == 200 && get.status == 200);
        let accesses = engine.cached(keys[i]).map_or(0, |r| r.total_accesses());
        out.tally(accesses > 0);
        reference.accesses.push(accesses);
        reference.runs_post.push(post.body);
        reference.runs_get.push(get.body);
    }
    for s in 0..SWEEPS {
        let resp = client
            .post_raw("/v1/sweeps", sweep_body(&jobs, s).into_bytes())
            .expect("reference sweep");
        out.tally(resp.status == 200);
        reference.sweeps.push(resp.body);
    }
    Rig {
        engine,
        server,
        reference,
    }
}

/// One client's share of a closed-loop segment. Per-request latencies are
/// kept only in traced segments, so the untraced run's memory does not
/// grow with its throughput.
#[derive(Default)]
struct Tally {
    latencies: Vec<(Route, f64)>,
    /// Job results delivered by correct responses.
    results: u64,
    /// `RunReport::total_accesses` of those results.
    accesses: u64,
    /// Wall microseconds of each correct sweep request.
    sweep_us: Vec<f64>,
    requests: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, o: Tally) {
        self.latencies.extend(o.latencies);
        self.results += o.results;
        self.accesses += o.accesses;
        self.sweep_us.extend(o.sweep_us);
        self.requests += o.requests;
        self.failed += o.failed;
    }
}

/// Runs both clients over `mix` for `seconds`; client `c` sends the
/// requests at positions `c, c + CLIENTS, ...`, cycling. Returns the
/// merged tally.
fn closed_loop(
    rig: &Rig,
    mix: &[Request],
    seconds: f64,
    tracer: Option<&Tracer>,
    op_base: u64,
) -> Tally {
    let addr = rig.server.addr().to_string();
    let n_jobs = rig.reference.accesses.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::new(addr).with_timeout(Duration::from_secs(60));
                    let mut t = Tally::default();
                    let root = tracer.map(|t| t.new_id()).unwrap_or(0);
                    let mut i = c;
                    loop {
                        let r = &mix[i % mix.len()];
                        let sent = Instant::now();
                        let resp = send(&mut client, r);
                        let done = Instant::now();
                        if let Some(tr) = tracer {
                            let id = tr.new_id();
                            let op = op_base + (i as u64) * CLIENTS as u64 + c as u64;
                            tr.record_at(
                                &format!("serve.{}", r.route.label()),
                                id,
                                root,
                                op,
                                sent,
                                done,
                            );
                        }
                        let ok = resp.as_ref().is_ok_and(|resp| rig.reference.check(r, resp));
                        t.requests += 1;
                        if ok {
                            let (results, accesses) = rig.reference.delivers(r, n_jobs);
                            t.results += results;
                            t.accesses += accesses;
                            let us = (done - sent).as_secs_f64() * 1e6;
                            if r.route == Route::SweepsPost {
                                t.sweep_us.push(us);
                            }
                            if tracer.is_some() {
                                t.latencies.push((r.route, us));
                            }
                        } else {
                            t.failed += 1;
                        }
                        i += CLIENTS;
                        if done >= deadline {
                            break;
                        }
                    }
                    if let Some(tr) = tracer {
                        tr.record_at("client", root, 0, c as u64, start, Instant::now());
                    }
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Tally::default();
    for t in tallies {
        all.add(t);
    }
    all
}

/// Runs `warm_serve`.
pub fn run(args: &Args, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let keys = job_keys();
    let mix = request_mix(&keys, args.seed);

    let mut clock = HostClock::new();
    let (rig, mut setup) = repeat_setup(
        &mut clock,
        SETUPS_BEFORE,
        |rep| set_up(&format!("setup-{rep}"), &keys, &mut out),
        Rig::stop,
    );

    if args.trace {
        traced(args, tracer, &rig, &mix, &keys, &mut clock, &mut out);
        rig.stop();
        return out;
    }

    // Segments of a few seconds with a calibration after each; rates
    // are the median segment's. Sweep latencies are scaled to nominal
    // host speed by their segment's ratio of normalised to wall time.
    let started = Instant::now();
    let mut segments = Vec::new();
    while segments.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let (t, time) = clock.time(|| closed_loop(&rig, &mix, SEGMENT_S, None, 0));
        out.attempted += t.requests;
        out.failed += t.failed;
        segments.push((t, time));
    }
    out.set("peak_rss_mib", peak_rss_mib(&clock));
    rig.stop();
    let (last, after) = repeat_setup(
        &mut clock,
        SETUPS_AFTER,
        |rep| set_up(&format!("setup-{}", SETUPS_BEFORE + rep), &keys, &mut out),
        Rig::stop,
    );
    last.stop();
    setup.extend(after);
    let setup: Vec<f64> = setup.iter().map(|i| clock.seconds(i)).collect();
    out.set("setup_s", median(&setup));

    let rate = |count: fn(&Tally) -> u64| {
        let rates: Vec<f64> = segments
            .iter()
            .map(|(t, i)| count(t) as f64 / clock.seconds(i))
            .collect();
        median(&rates)
    };
    out.set("jobs_per_s", rate(|t| t.results));
    out.set("sim_accesses_per_s", rate(|t| t.accesses));
    out.set("req_per_s", rate(|t| t.requests));
    let sweep_ms: Vec<f64> = segments
        .iter()
        .flat_map(|(t, i)| {
            let scale = clock.seconds(i) / i.wall;
            t.sweep_us.iter().map(move |us| us * scale / 1e3)
        })
        .collect();
    out.set("sweep_median_ms", median(&sweep_ms));
    let times: Vec<_> = segments.iter().map(|(_, i)| *i).collect();
    out.noise("segment_s", &times, &clock);
    out
}

/// Mean microseconds of `f` over `reps` calls.
fn time_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// The request exactly as the client writes it.
fn raw_request(r: &Request, host: &str) -> Vec<u8> {
    let method = if r.body.is_some() { "POST" } else { "GET" };
    let mut head = format!("{method} {} HTTP/1.1\r\nHost: {host}\r\n", r.path);
    if r.conditional {
        head.push_str(&format!(
            "If-None-Match: \"{}\"\r\n",
            &r.path["/v1/runs/".len()..]
        ));
    }
    let body = r.body.clone().unwrap_or_default();
    if r.body.is_some() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend(body);
    bytes
}

/// The traced run: untraced and traced segments of the closed loop (for
/// the overhead and the per-route latencies), then the server-side steps
/// of every distinct request replayed from outside.
fn traced(
    args: &Args,
    tracer: &Tracer,
    rig: &Rig,
    mix: &[Request],
    keys: &[RunKey],
    clock: &mut HostClock,
    out: &mut Outcome,
) {
    // Two untraced and two traced segments, alternating.
    let slice = args.seconds / 6.0;
    let (mut plain_req, mut plain_s, mut spanned_req, mut spanned_s) = (0u64, 0f64, 0u64, 0f64);
    let mut samples: Vec<(Route, f64)> = Vec::new();
    for round in 0..2u64 {
        let (u, time) = clock.time(|| closed_loop(rig, mix, slice, None, 0));
        plain_req += u.requests;
        plain_s += clock.seconds(&time);
        out.attempted += u.requests;
        out.failed += u.failed;
        let (t, time) =
            clock.time(|| closed_loop(rig, mix, slice, Some(tracer), (round + 1) << 40));
        spanned_req += t.requests;
        spanned_s += clock.seconds(&time);
        out.attempted += t.requests;
        out.failed += t.failed;
        samples.extend(t.latencies);
    }
    out.set(
        "bench.trace_overhead_frac",
        (plain_req as f64 / plain_s) / (spanned_req as f64 / spanned_s) - 1.0,
    );
    let all = sorted(samples.iter().map(|s| s.1).collect());
    out.set("serve.req_samples", all.len() as f64);
    set_percentile(out, "serve.req_p50_us", &all, 0.50);
    set_percentile(out, "serve.req_p99_us", &all, 0.99);
    let mut rtt_mean = [0f64; 5];
    for (k, route) in Route::ALL.iter().enumerate() {
        let xs = sorted(
            samples
                .iter()
                .filter(|s| s.0 == *route)
                .map(|s| s.1)
                .collect(),
        );
        rtt_mean[k] = mean(&xs);
        let (p50, n) = match route {
            Route::RunsPost => ("serve.rtt_us.runs_post", "serve.rtt_samples.runs_post"),
            Route::RunsGet => ("serve.rtt_us.runs_get", "serve.rtt_samples.runs_get"),
            Route::SweepsPost => ("serve.rtt_us.sweeps_post", "serve.rtt_samples.sweeps_post"),
            Route::WorkflowsPost => (
                "serve.rtt_us.workflows_post",
                "serve.rtt_samples.workflows_post",
            ),
            Route::MetricsGet => ("serve.rtt_us.metrics_get", "serve.rtt_samples.metrics_get"),
        };
        out.set(n, xs.len() as f64);
        set_percentile(out, p50, &xs, 0.50);
    }

    // Status counts the server itself reports.
    let mut client = Client::new(rig.server.addr().to_string());
    let m = client.get("/metrics").ok().and_then(|r| r.json());
    let field = |path: &[&str]| {
        let mut v = m.as_ref()?;
        for p in path {
            v = v.get(p)?;
        }
        v.as_u64()
    };
    match (
        field(&["server", "responses", "4xx"]),
        field(&["server", "responses", "5xx"]),
        field(&["server", "shed_503"]),
    ) {
        (Some(c4), Some(c5), Some(shed)) => {
            out.set("serve.non2xx", (c4 + c5) as f64);
            out.set("serve.shed_503", shed as f64);
        }
        _ => out.tally(false),
    }

    // Engine counts over one round of every distinct request.
    let distinct: Vec<&Request> = {
        let mut seen = std::collections::HashSet::new();
        mix.iter()
            .filter(|r| seen.insert((r.route as u8, r.index, r.conditional)))
            .collect()
    };
    let before = rig.engine.metrics();
    for r in &distinct {
        let ok = send(&mut client, r).is_ok_and(|resp| rig.reference.check(r, &resp));
        out.tally(ok);
    }
    drop(client);
    let after = rig.engine.metrics();
    let hits = (after.memory_hits + after.disk_hits) - (before.memory_hits + before.disk_hits);
    let executed = after.jobs_executed - before.jobs_executed;
    out.set("engine.executed", executed as f64);
    out.set(
        "engine.memory_hits",
        (after.memory_hits - before.memory_hits) as f64,
    );
    out.set(
        "engine.disk_hits",
        (after.disk_hits - before.disk_hits) as f64,
    );
    out.set(
        "engine.deduped",
        (after.sweep_deduped - before.sweep_deduped) as f64,
    );
    out.set(
        "engine.coalesced",
        (after.flights_coalesced - before.flights_coalesced) as f64,
    );
    out.set(
        "engine.hit_ratio",
        hits as f64 / (hits + executed).max(1) as f64,
    );

    // Server-side steps replayed from outside, one span per step.
    let host = rig.server.addr().to_string();
    let op = 3 << 40;
    let root = tracer.new_id();
    let phase_start = Instant::now();
    let mut parse = [0f64; 5];
    let mut count = [0usize; 5];
    let (mut json_us, mut json_n, mut spec_us, mut spec_n) = (0f64, 0usize, 0f64, 0usize);
    for r in &distinct {
        let k = r.route as usize;
        let raw = raw_request(r, &host);
        let (us, _) = tracer.span("serve.http_parse", root, op, || {
            time_us(REPS, || {
                http::read_request(&mut BufReader::new(Cursor::new(&raw))).is_ok()
            })
        });
        parse[k] += us;
        count[k] += 1;
        if let Some(body) = &r.body {
            let text = std::str::from_utf8(body).expect("UTF-8 body");
            let (us, _) = tracer.span("serve.json_parse", root, op, || {
                time_us(REPS, || Json::parse(text))
            });
            json_us += us;
            json_n += 1;
            let value = Json::parse(text).expect("valid body");
            let entries = match r.route {
                Route::RunsPost => vec![value],
                Route::SweepsPost => sweep_entries(&value).expect("valid sweep"),
                _ => Vec::new(),
            };
            for e in &entries {
                let (us, _) = tracer.span("serve.spec", root, op, || {
                    time_us(REPS / 10, || parse_job_spec(e).is_ok())
                });
                spec_us += us;
                spec_n += 1;
            }
        }
    }
    let avg = |k: usize| parse[k] / count[k].max(1) as f64;
    let spec = spec_us / spec_n.max(1) as f64;
    let json = json_us / json_n.max(1) as f64;
    let http_parse =
        (0..5).map(|k| parse[k]).sum::<f64>() / count.iter().sum::<usize>().max(1) as f64;
    out.set("serve.http_parse_us", http_parse);
    out.set("serve.json_parse_us", json);
    out.set("serve.spec_us", spec);

    let specs: Vec<_> = job_objects()
        .iter()
        .map(|j| parse_job_spec(j).expect("catalogue job"))
        .collect();
    let (key_us, _) = tracer.span("engine.key", root, op, || {
        time_us(REPS, || {
            specs
                .iter()
                .map(|s| run_key(&s.spec()).0)
                .fold(0, u128::wrapping_add)
        }) / specs.len() as f64
    });
    let (probe_us, _) = tracer.span("engine.probe", root, op, || {
        time_us(REPS, || {
            keys.iter()
                .filter(|&&k| rig.engine.cached_bytes(k).is_some())
                .count()
        }) / keys.len() as f64
    });
    let bytes: Vec<_> = keys
        .iter()
        .filter_map(|&k| rig.engine.cached_bytes(k))
        .collect();
    out.tally(bytes.len() == keys.len());
    let (validate_us, _) = tracer.span("engine.validate", root, op, || {
        time_us(REPS, || bytes.iter().filter(|b| codec::validate(b)).count())
            / bytes.len().max(1) as f64
    });
    let reports: Vec<_> = bytes.iter().filter_map(|b| codec::decode(b)).collect();
    out.tally(reports.len() == bytes.len());
    let (decode_us, _) = tracer.span("engine.decode", root, op, || {
        time_us(REPS / 10, || {
            bytes.iter().filter_map(|b| codec::decode(b)).count()
        }) / bytes.len().max(1) as f64
    });
    let (render_us, _) = tracer.span("serve.render", root, op, || {
        time_us(REPS / 10, || {
            reports
                .iter()
                .map(|r| report_json(r).dump().len())
                .sum::<usize>()
        }) / reports.len().max(1) as f64
    });
    out.set("engine.key_us", key_us);
    out.set("engine.probe_ns", probe_us * 1e3);
    out.set("engine.validate_ns", validate_us * 1e3);
    out.set("engine.decode_us", decode_us);
    out.set("serve.render_us", render_us);

    // The warm fig6 workflow through a fresh runner over the same engine:
    // the first run memoizes the stages, the timed second run executes
    // none.
    let flow = FlowRunner::new(Arc::clone(&rig.engine));
    let graph = || {
        heteropipe_flow::figures::graph("fig6", Scale::new(SCALE), false)
            .expect("fig6 is a built-in workflow")
            .graph
    };
    out.tally(flow.run(&graph()).is_ok());
    let g = graph();
    let (res, d) = tracer.span("flow.run", root, op, || flow.run(&g));
    let flow_us = d.as_secs_f64() * 1e6;
    match res {
        Ok(res) => {
            out.set("flow.warm_workflow_us", flow_us);
            out.set("flow.stages_executed", res.summary.executed as f64);
            out.tally(res.summary.executed == 0);
        }
        Err(_) => out.tally(false),
    }
    tracer.record_at("attribution", root, 0, op, phase_start, Instant::now());

    // What the replayed steps explain of each route's round trip.
    let probe = probe_us + validate_us;
    let attributed = [
        avg(0) + json + spec + key_us + probe + render_us,
        avg(1) + probe,
        avg(2) + json + 8.0 * (spec + key_us + probe),
        avg(3) + json + flow_us,
        avg(4),
    ];
    // Each route weighs as much as its share of the mix.
    let weight: Vec<f64> = Route::ALL
        .iter()
        .map(|&route| mix.iter().filter(|r| r.route == route).count() as f64)
        .collect();
    let total_w: f64 = weight.iter().sum();
    let (mut unexplained, mut rtt, mut explained) = (0f64, 0f64, 0f64);
    for k in 0..5 {
        unexplained += weight[k] * (rtt_mean[k] - attributed[k]);
        rtt += weight[k] * rtt_mean[k];
        explained += weight[k] * attributed[k];
    }
    out.set("serve.unattributed_us", unexplained / total_w);
    out.set("bench.attributed_frac", explained / rtt);
}

/// Sets a nearest-rank percentile, or notes why it is withheld.
fn set_percentile(out: &mut Outcome, name: &'static str, sorted: &[f64], q: f64) {
    match percentile(sorted, q) {
        Some(v) => out.set(name, v),
        None => out.skip(
            name,
            &format!(
                "{} samples leave fewer than ten beyond the percentile",
                sorted.len()
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_keys() -> Vec<RunKey> {
        (0..92u128).map(RunKey).collect()
    }

    #[test]
    fn same_seed_same_order_different_seed_different_order() {
        let keys = fake_keys();
        let order = |seed| -> Vec<(u8, usize, bool)> {
            request_mix(&keys, seed)
                .iter()
                .map(|r| (r.route as u8, r.index, r.conditional))
                .collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let (mut a, mut b) = (order(7), order(8));
        a.sort();
        b.sort();
        assert_eq!(a, b, "the seed reorders a fixed multiset");
        assert_eq!(a.len(), 322);
    }

    #[test]
    fn the_mix_keeps_the_load_generator_shares() {
        let mix = request_mix(&fake_keys(), 1);
        let count = |route| mix.iter().filter(|r| r.route == route).count();
        let conditional = mix.iter().filter(|r| r.conditional).count();
        assert_eq!(
            Route::ALL.map(count),
            [92, 92, 46, 46, 46],
            "2:2:1:1:1 per seven requests"
        );
        assert_eq!(conditional, 46);
    }

    #[test]
    fn sweeps_hold_one_duplicate() {
        for s in 0..SWEEPS {
            let v = sweep_jobs(s, 92);
            let mut u = v.clone();
            u.sort();
            u.dedup();
            assert_eq!((v.len(), u.len()), (8, 7));
        }
    }
}
