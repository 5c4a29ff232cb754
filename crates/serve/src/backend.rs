//! The seam behind the one front door. [`crate::api::Api`] owns
//! everything a client can observe the same way on any deployment: the
//! route table, admission (tenant gate and deadline), the `?async=1`
//! lifecycle and journal resume, async status and record lookups,
//! readiness, and the shared `/metrics` families. A [`Backend`] carries
//! only what differs between deployments: where one job or one batch
//! runs, the lookups a node answers from its own engine but a cluster
//! coordinator proxies or stitches, and its own readiness fields and
//! metric sections.
//!
//! [`crate::local::LocalBackend`] is the single node (the engine in this
//! process); `heteropipe_cluster::ClusterBackend` places the same work on
//! remote workers and splices their record bytes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use heteropipe_engine::{run_key, sweep_key, RunKey};
use heteropipe_faults::Injector;
use heteropipe_flow::FlowRunner;
use heteropipe_obs::MetricRegistry;

use crate::api::{parse_job_spec, OwnedJobSpec, SpecError};
use crate::http::{Request, Response};
use crate::json::Json;

/// The experiment scale [`Backend::experiment`] receives, re-exported so
/// a backend crate needs no dependency on the workload catalogue.
pub use heteropipe_workloads::Scale;

/// Receives one sweep record: its submission index, the NDJSON record
/// line (no trailing newline), and whether the entry failed.
pub type RecordSink<'a> = dyn Fn(usize, &str, bool) + Sync + 'a;

/// Everything that differs between a single node and a cluster
/// coordinator. Every method is called by [`crate::api::Api`] after
/// routing and admission, with keys already validated.
pub trait Backend: Send + Sync + 'static {
    /// `POST /v1/runs`: answers one validated job whose content address
    /// is `key`.
    fn run(&self, req: &Request, job: &OwnedJobSpec, key: RunKey, deadline: Deadline) -> Response;

    /// Resolves a whole batch — a synchronous `POST /v1/sweeps`, an async
    /// sweep driver, or an inline workflow stage — calling `sink` once
    /// per entry, and returns the trailing summary object. An `Err`
    /// (a deadline abort) means no record was delivered.
    fn sweep(
        &self,
        batch: &Batch,
        rid: Option<&str>,
        deadline: Deadline,
        sink: &RecordSink<'_>,
    ) -> Result<Json, SpecError>;

    /// Whether [`Backend::sweep`] delivers each record as it completes
    /// (a node streams them) or only once the whole batch resolved (a
    /// coordinator, which must still be able to answer a deadline abort
    /// with an envelope before any byte is streamed).
    fn streams_records(&self) -> bool;

    /// `GET /v1/runs/{key}`: the cached report.
    fn run_report(&self, req: &Request, key: RunKey) -> Response;

    /// `GET /v1/runs/{key}/trace`: the run's retained Chrome trace.
    fn run_trace(&self, req: &Request, key: RunKey) -> Response;

    /// `GET /v1/sweeps/{key}/trace`: the sweep's retained Chrome trace.
    fn sweep_trace(&self, req: &Request, key: RunKey) -> Response;

    /// `GET /v1/workflows/{key}` for a key that neither the workflow
    /// runner, the async registry nor the journal knows.
    fn unknown_workflow(&self, req: &Request, key: RunKey) -> Response;

    /// `POST /v1/workflows` naming a built-in graph whose workflow key is
    /// `key`: `Some` answers it elsewhere, `None` runs it on
    /// [`Backend::flow`] here.
    fn builtin_workflow(&self, req: &Request, key: RunKey) -> Option<Response>;

    /// `POST /v1/experiments/{id}` for a catalogued `id` and a validated
    /// `scale`.
    fn experiment(&self, req: &Request, id: &str, scale: Scale) -> Response;

    /// The runner that executes workflow graphs and memoizes their
    /// stages; inline sweep stages call back into [`Backend::sweep`].
    fn flow(&self) -> &Arc<FlowRunner>;

    /// The injector whose fired faults `/metrics` reports next to the
    /// server's own.
    fn faults(&self) -> &Injector;

    /// Readiness fields this backend adds to the probe body, and the
    /// reason it cannot take traffic (`None` when it can).
    fn readiness(&self) -> (Vec<(String, Json)>, Option<&'static str>);

    /// The backend's own top-level sections of the JSON `/metrics` body.
    fn metrics_json(&self) -> Vec<(String, Json)>;

    /// Registers the backend's own Prometheus families into `r`.
    fn metrics_prometheus(&self, r: &MetricRegistry);
}

/// A validated sweep batch: the expanded entries as submitted (what a
/// journal intent records and a coordinator forwards), their parsed job
/// specs, and their content addresses.
pub struct Batch {
    /// The per-job spec objects, in submission order.
    pub entries: Vec<Json>,
    /// The parsed specs, one per entry.
    pub jobs: Vec<OwnedJobSpec>,
    /// Each entry's run key.
    pub keys: Vec<RunKey>,
    /// The sweep's content address (the `X-Sweep-Key` value).
    pub key_hex: String,
}

impl Batch {
    /// Parses every entry; the first failure is reported as `jobs[i]: …`.
    pub fn parse(entries: Vec<Json>) -> Result<Batch, SpecError> {
        let mut jobs = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            match parse_job_spec(entry) {
                Ok(job) => jobs.push(job),
                Err(e) => {
                    return Err(SpecError {
                        status: e.status,
                        code: e.code,
                        message: format!("jobs[{i}]: {}", e.message),
                    })
                }
            }
        }
        let keys: Vec<RunKey> = jobs.iter().map(|o| run_key(&o.spec())).collect();
        let key_hex = sweep_key(&keys).hex();
        Ok(Batch {
            entries,
            jobs,
            keys,
            key_hex,
        })
    }
}

/// A request's absolute deadline, derived from its `X-Deadline-Ms`
/// budget at admission. Copy so sweep shards and stage closures can
/// carry it; each coordinator→worker hop re-derives the remaining budget
/// and forwards it as the next hop's `X-Deadline-Ms`.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Option<Instant>);

/// The deadline budget is spent.
#[derive(Debug)]
pub struct Expired;

impl Deadline {
    /// No deadline: every hop proceeds, no header forwarded.
    pub fn none() -> Deadline {
        Deadline(None)
    }

    /// The deadline a request's (already validated) header implies.
    pub fn from_request(req: &Request) -> Deadline {
        Deadline(
            deadline_ms(req)
                .ok()
                .flatten()
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
        )
    }

    /// The absolute instant, when one is set.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// Whether the budget is spent.
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Milliseconds left to forward downstream: `Ok(None)` when no
    /// deadline is set, `Err(Expired)` when the budget is spent (a whole
    /// remaining millisecond is required — forwarding `0` would only
    /// make the worker refuse the call anyway).
    pub fn remaining_ms(&self) -> Result<Option<u64>, Expired> {
        match self.0 {
            None => Ok(None),
            Some(dl) => {
                let left = dl.saturating_duration_since(Instant::now()).as_millis() as u64;
                if left == 0 {
                    Err(Expired)
                } else {
                    Ok(Some(left))
                }
            }
        }
    }
}

/// Parses the `X-Deadline-Ms` header: the caller's remaining time budget
/// in milliseconds, decremented hop by hop across the cluster. Absent
/// means no deadline; a non-integer value is a 400-shaped error.
pub(crate) fn deadline_ms(req: &Request) -> Result<Option<u64>, String> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => v.trim().parse::<u64>().map(Some).map_err(|_| {
            format!("X-Deadline-Ms must be a non-negative integer of milliseconds, got {v:?}")
        }),
    }
}
