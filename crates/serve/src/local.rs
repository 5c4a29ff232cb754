//! The single-node [`Backend`]: every job, batch and lookup is answered by
//! the [`Engine`] in this process, and workflows run on a
//! [`FlowRunner`] over the same engine.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use heteropipe::experiments::{characterize_all_with, fig3, fig456, fig78, fig9, tables};
use heteropipe::{Executor, JobSpec};
use heteropipe_engine::{Engine, EngineError, RunKey, SweepOutcome, SweepRecord};
use heteropipe_faults::Injector;
use heteropipe_flow::FlowRunner;
use heteropipe_obs::MetricRegistry;
use heteropipe_workloads::Scale;

use crate::api::{fail, report_json, OwnedJobSpec, SpecError};
use crate::backend::{Backend, Batch, Deadline, RecordSink};
use crate::error::envelope;
use crate::http::{Request, Response};
use crate::json::Json;

/// Most rendered report bodies [`LocalBackend::run_report`] memoizes
/// before the map is cleared wholesale (reports are a few KiB each, so
/// this bounds the memo near 100 MiB worst case).
const MAX_MEMOIZED_BODIES: usize = 8192;

/// The engine in this process, behind the front door.
pub struct LocalBackend {
    engine: Arc<Engine>,
    flow: Arc<FlowRunner>,
    /// Rendered report-JSON bodies keyed by run key. The key is a content
    /// address and `report_json` is deterministic, so a memoized body is
    /// immutable; warm `GET /v1/runs/{key}` serves it without touching
    /// the record codec at all.
    report_bodies: Mutex<HashMap<u128, Arc<Vec<u8>>>>,
}

impl LocalBackend {
    /// A backend over `engine`, with a workflow runner on the same engine.
    pub fn new(engine: Arc<Engine>) -> LocalBackend {
        let flow = Arc::new(FlowRunner::new(Arc::clone(&engine)));
        LocalBackend {
            engine,
            flow,
            report_bodies: Mutex::new(HashMap::new()),
        }
    }
}

impl Backend for LocalBackend {
    fn run(&self, req: &Request, job: &OwnedJobSpec, key: RunKey, _: Deadline) -> Response {
        let request_id = (!req.request_id.is_empty()).then_some(req.request_id.as_str());
        match self.engine.try_execute_observed(&job.spec(), request_id) {
            Ok(report) => {
                Response::json(200, &report_json(&report)).with_header("X-Run-Key", &key.hex())
            }
            // A quarantined job will stay broken until an operator looks
            // at it: 503 + Retry-After tells well-behaved clients to back
            // off rather than hammer a poisoned key.
            Err(e @ EngineError::Quarantined { .. }) => envelope(
                503,
                "quarantined",
                &e.to_string(),
                Some(30),
                &req.request_id,
            )
            .with_header("X-Run-Key", &key.hex()),
            Err(e) => {
                fail(req, 500, "internal", &e.to_string()).with_header("X-Run-Key", &key.hex())
            }
        }
    }

    /// Executes the batch through the engine's dedup + single-flight
    /// sweep pipeline; the engine calls the sink from its worker threads
    /// the moment each record completes.
    fn sweep(
        &self,
        batch: &Batch,
        rid: Option<&str>,
        _: Deadline,
        sink: &RecordSink<'_>,
    ) -> Result<Json, SpecError> {
        let specs: Vec<JobSpec<'_>> = batch.jobs.iter().map(OwnedJobSpec::spec).collect();
        let outcome = self.engine.execute_sweep_observed(&specs, rid, &|rec| {
            sink(
                rec.index,
                &sweep_record_json(rec).dump(),
                rec.result.is_err(),
            );
        });
        Ok(sweep_summary_json(&outcome))
    }

    fn streams_records(&self) -> bool {
        true
    }

    /// The hot path is zero-decode: existence is proven by the engine's
    /// validated-bytes tier (magic + version + checksum, no field parse),
    /// the run key doubles as a strong `ETag` (it is a content address
    /// and [`report_json`] is deterministic), and a warm repeat serves
    /// the memoized rendered body — or, with a matching `If-None-Match`,
    /// an empty `304 Not Modified`. Only the first `GET` after a cold
    /// start pays the record decode. No execution, no cache-metric side
    /// effects.
    fn run_report(&self, req: &Request, key: RunKey) -> Response {
        let hex = key.hex();
        if self.engine.cached_bytes(key).is_none() {
            return fail(req, 404, "not_found", "no cached report for that run key");
        }
        let etag = format!("\"{hex}\"");
        if if_none_match(req, &etag) {
            return Response {
                status: 304,
                headers: Vec::new(),
                body: Vec::new(),
                chunked: false,
                stream: None,
            }
            .with_header("X-Run-Key", &hex)
            .with_header("ETag", &etag);
        }
        let memoized = self.report_bodies.lock().unwrap().get(&key.0).cloned();
        let body = match memoized {
            Some(body) => body,
            None => {
                let Some(report) = self.engine.cached(key) else {
                    return fail(req, 404, "not_found", "no cached report for that run key");
                };
                let body = Arc::new(report_json(&report).dump().into_bytes());
                let mut memo = self.report_bodies.lock().unwrap();
                if memo.len() >= MAX_MEMOIZED_BODIES {
                    memo.clear();
                }
                memo.insert(key.0, Arc::clone(&body));
                body
            }
        };
        Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.as_ref().clone(),
            chunked: false,
            stream: None,
        }
        .with_header("X-Run-Key", &hex)
        .with_header("ETag", &etag)
    }

    fn run_trace(&self, req: &Request, key: RunKey) -> Response {
        match self.engine.traces().render(&key.hex()) {
            Some(json) => Response {
                status: 200,
                headers: vec![("Content-Type".into(), "application/json".into())],
                body: json.into_bytes(),
                chunked: false,
                stream: None,
            },
            None => fail(req, 404, "not_found", "no trace retained for that run key"),
        }
    }

    /// A sweep's trace lives in the same store, under its sweep key.
    fn sweep_trace(&self, req: &Request, key: RunKey) -> Response {
        self.run_trace(req, key)
    }

    fn unknown_workflow(&self, req: &Request, _: RunKey) -> Response {
        fail(req, 404, "not_found", "no journaled workflow for that key")
    }

    fn builtin_workflow(&self, _: &Request, _: RunKey) -> Option<Response> {
        None
    }

    fn experiment(&self, _: &Request, id: &str, scale: Scale) -> Response {
        let exec: &dyn Executor = &*self.engine;
        let rendered = match id {
            "fig3" => fig3::render(&fig3::compute_with(exec, scale)),
            "fig4" => fig456::render_fig4(&fig456::fig4(&characterize_all_with(exec, scale))),
            "fig5" => fig456::render_fig5(&fig456::fig5(&characterize_all_with(exec, scale))),
            "fig6" => {
                let pairs = characterize_all_with(exec, scale);
                fig456::render_fig6_with_effects(&fig456::fig6(&pairs), &pairs)
            }
            "fig7" => fig78::render_fig7(&fig78::fig7(&characterize_all_with(exec, scale))),
            "fig8" => fig78::render_fig8(&fig78::fig8(&characterize_all_with(exec, scale))),
            "fig9" => fig9::render(&fig9::fig9(&characterize_all_with(exec, scale))),
            "table1" => tables::render_table1(),
            "table2" => tables::render_table2(),
            _ => unreachable!("experiment ids are checked against the catalogue"),
        };
        Response::json(
            200,
            &Json::Obj(vec![
                ("experiment".into(), Json::str(id)),
                ("scale".into(), Json::F64(scale.factor())),
                ("rendered".into(), Json::str(rendered)),
            ]),
        )
        .into_chunked()
    }

    fn flow(&self) -> &Arc<FlowRunner> {
        &self.flow
    }

    fn faults(&self) -> &Injector {
        self.engine.faults()
    }

    fn readiness(&self) -> (Vec<(String, Json)>, Option<&'static str>) {
        (Vec::new(), None)
    }

    fn metrics_json(&self) -> Vec<(String, Json)> {
        let e = self.engine.metrics();
        let engine = Json::Obj(vec![
            ("jobs_total".into(), Json::U64(e.jobs_total())),
            ("jobs_executed".into(), Json::U64(e.jobs_executed)),
            ("memory_hits".into(), Json::U64(e.memory_hits)),
            ("disk_hits".into(), Json::U64(e.disk_hits)),
            ("misses".into(), Json::U64(e.misses)),
            ("failures".into(), Json::U64(e.failures)),
            ("hit_rate".into(), Json::F64(e.hit_rate())),
            ("simulated_ps".into(), Json::U64(e.simulated_ps)),
            ("wall_ns".into(), Json::U64(e.wall_ns)),
            (
                "sweeps".into(),
                Json::Obj(vec![
                    ("count".into(), Json::U64(e.sweeps)),
                    ("jobs".into(), Json::U64(e.sweep_jobs)),
                    ("deduped".into(), Json::U64(e.sweep_deduped)),
                    ("flights_coalesced".into(), Json::U64(e.flights_coalesced)),
                ]),
            ),
            (
                "resilience".into(),
                Json::Obj(vec![
                    ("exec_retries".into(), Json::U64(e.exec_retries)),
                    ("jobs_quarantined".into(), Json::U64(e.jobs_quarantined)),
                    ("watchdog_fired".into(), Json::U64(e.watchdog_fired)),
                    ("cache_tmp_swept".into(), Json::U64(e.cache.tmp_swept)),
                    (
                        "cache_records_quarantined".into(),
                        Json::U64(e.cache.records_quarantined),
                    ),
                    ("cache_read_errors".into(), Json::U64(e.cache.read_errors)),
                    (
                        "cache_persist_retries".into(),
                        Json::U64(e.cache.persist_retries),
                    ),
                    (
                        "cache_persist_failures".into(),
                        Json::U64(e.cache.persist_failures),
                    ),
                ]),
            ),
        ]);
        let f = self.flow.metrics();
        let workflows = Json::Obj(vec![
            ("count".into(), Json::U64(f.workflows)),
            ("stages".into(), Json::U64(f.stages)),
            ("stage_cache_hits".into(), Json::U64(f.stage_cache_hits)),
            ("stage_failures".into(), Json::U64(f.stage_failures)),
        ]);
        vec![("engine".into(), engine), ("workflows".into(), workflows)]
    }

    fn metrics_prometheus(&self, r: &MetricRegistry) {
        let e = self.engine.metrics();
        let set = |name: &str, help: &str, v: u64| r.counter(name, help).set(v);
        set(
            "heteropipe_engine_jobs_executed_total",
            "Jobs actually simulated (cache misses and uncached runs).",
            e.jobs_executed,
        );
        for (tier, v) in [("memory", e.memory_hits), ("disk", e.disk_hits)] {
            r.counter_with(
                "heteropipe_engine_cache_hits_total",
                "Cache hits by tier.",
                &[("tier", tier)],
            )
            .set(v);
        }
        set(
            "heteropipe_engine_cache_misses_total",
            "Cache lookups that found nothing.",
            e.misses,
        );
        set(
            "heteropipe_engine_job_failures_total",
            "Jobs that panicked inside a batch.",
            e.failures,
        );
        set(
            "heteropipe_engine_simulated_picoseconds_total",
            "Total simulated time across executed jobs.",
            e.simulated_ps,
        );
        set(
            "heteropipe_engine_wall_nanoseconds_total",
            "Total wall-clock time spent simulating.",
            e.wall_ns,
        );
        set(
            "heteropipe_engine_sweeps_total",
            "Sweeps executed through the batch pipeline.",
            e.sweeps,
        );
        set(
            "heteropipe_engine_sweep_jobs_total",
            "Entries submitted across all sweeps.",
            e.sweep_jobs,
        );
        set(
            "heteropipe_engine_sweep_deduped_total",
            "Sweep entries deduplicated onto an in-batch leader.",
            e.sweep_deduped,
        );
        set(
            "heteropipe_engine_flights_coalesced_total",
            "Jobs coalesced onto a concurrent identical execution.",
            e.flights_coalesced,
        );
        r.gauge(
            "heteropipe_engine_traces_retained",
            "Job traces currently held by the trace store.",
        )
        .set(self.engine.traces().len() as f64);

        // Workflow counters (docs/workflows.md): graphs executed through
        // the DAG runner and their per-stage memoization activity.
        let f = self.flow.metrics();
        set(
            "heteropipe_workflows_total",
            "Workflows executed through the DAG runner.",
            f.workflows,
        );
        set(
            "heteropipe_workflow_stages_total",
            "Stage slots processed across all workflows.",
            f.stages,
        );
        set(
            "heteropipe_workflow_stage_cache_hits_total",
            "Workflow stages served from the stage memo without executing.",
            f.stage_cache_hits,
        );
        set(
            "heteropipe_workflow_stage_failures_total",
            "Workflow stages whose body failed.",
            f.stage_failures,
        );

        // Resilience counters (docs/robustness.md): retries, quarantines,
        // watchdog overruns, and cache self-healing activity.
        set(
            "heteropipe_engine_exec_retries_total",
            "Execution attempts retried after a panic.",
            e.exec_retries,
        );
        set(
            "heteropipe_engine_jobs_quarantined_total",
            "Jobs quarantined after exhausting their retry budget.",
            e.jobs_quarantined,
        );
        set(
            "heteropipe_engine_watchdog_fired_total",
            "Jobs whose execution overran the watchdog deadline.",
            e.watchdog_fired,
        );
        set(
            "heteropipe_cache_tmp_swept_total",
            "Stale cache temp files swept at open.",
            e.cache.tmp_swept,
        );
        set(
            "heteropipe_cache_records_quarantined_total",
            "Corrupt cache records moved to quarantine.",
            e.cache.records_quarantined,
        );
        set(
            "heteropipe_cache_read_errors_total",
            "Cache disk reads failed with an I/O error (served as misses).",
            e.cache.read_errors,
        );
        set(
            "heteropipe_cache_persist_retries_total",
            "Cache persist attempts retried after a transient failure.",
            e.cache.persist_retries,
        );
        set(
            "heteropipe_cache_persist_failures_total",
            "Cache persists abandoned after the retry budget.",
            e.cache.persist_failures,
        );
    }
}

/// Whether a request's `If-None-Match` header matches `etag` (a quoted
/// entity tag). Strong comparison over a comma-separated candidate list,
/// tolerating a `W/` weakness prefix, the bare unquoted tag (clients
/// often echo the `X-Run-Key` value directly), and `*`.
fn if_none_match(req: &Request, etag: &str) -> bool {
    let Some(raw) = req.header("if-none-match") else {
        return false;
    };
    let bare = etag.trim_matches('"');
    raw.split(',').map(str::trim).any(|cand| {
        let cand = cand.strip_prefix("W/").unwrap_or(cand);
        cand == "*" || cand == etag || cand == bare
    })
}

/// The stable per-entry error code in sweep NDJSON records.
fn engine_error_code(e: &EngineError) -> &'static str {
    match e {
        EngineError::Quarantined { .. } => "quarantined",
        _ => "execution_failed",
    }
}

/// One NDJSON line of a sweep stream. Deliberately free of timing and
/// cache-disposition fields, so a warm repeat of the same sweep emits
/// byte-identical records (only the trailing summary line varies).
fn sweep_record_json(rec: &SweepRecord) -> Json {
    let mut obj = vec![
        ("index".to_string(), Json::U64(rec.index as u64)),
        ("key".to_string(), Json::str(rec.key_hex.clone())),
    ];
    match &rec.result {
        Ok(report) => {
            obj.push(("status".to_string(), Json::str("ok")));
            obj.push(("deduped".to_string(), Json::Bool(rec.deduped)));
            obj.push(("report".to_string(), report_json(report)));
        }
        Err(e) => {
            obj.push(("status".to_string(), Json::str("error")));
            obj.push(("deduped".to_string(), Json::Bool(rec.deduped)));
            obj.push((
                "error".to_string(),
                Json::Obj(vec![
                    ("code".into(), Json::str(engine_error_code(e))),
                    ("message".into(), Json::str(e.to_string())),
                ]),
            ));
        }
    }
    Json::Obj(obj)
}

/// The trailing NDJSON summary line of a sweep stream (the one line that
/// carries timing, excluded from byte-identity guarantees).
fn sweep_summary_json(outcome: &SweepOutcome) -> Json {
    let s = &outcome.summary;
    Json::Obj(vec![(
        "sweep".to_string(),
        Json::Obj(vec![
            ("key".into(), Json::str(outcome.key_hex.clone())),
            ("jobs_total".into(), Json::U64(s.jobs_total)),
            ("jobs_unique".into(), Json::U64(s.jobs_unique)),
            ("duplicates".into(), Json::U64(s.duplicates)),
            ("cache_hits".into(), Json::U64(s.cache_hits)),
            ("executed".into(), Json::U64(s.executed)),
            ("coalesced".into(), Json::U64(s.coalesced)),
            ("failed".into(), Json::U64(s.failed)),
            ("wall_ms".into(), Json::U64(s.wall_ns / 1_000_000)),
            ("speedup_vs_serial".into(), Json::F64(s.speedup_vs_serial())),
        ]),
    )])
}
