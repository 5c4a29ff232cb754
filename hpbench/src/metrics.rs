//! The benchmark's metric catalogue and the result line it prints.
//!
//! Every workload prints every end-to-end metric in an untraced run and
//! every per-layer metric in a traced run, under the names and units
//! listed here (the same names `BENCHMARK.json` declares). A per-layer
//! metric that a workload does not exercise is printed as 0 and named in a
//! `not_measured` note with the reason.

use std::collections::BTreeMap;

use crate::clock::{HostClock, Interval};
use crate::trace::json_string;

/// End-to-end metrics: `(name, unit)`. Measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("sim_accesses_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("sweep_median_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics: `(name, unit)`. Measured in the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // workloads / core.organize
    ("workloads.pipeline_us", "us"),
    ("core.lower_us", "us"),
    // core.run, opaque
    ("core.run_ms", "ms"),
    ("core.run_ns_per_access", "ns"),
    ("core.run_ns_per_access_large", "ns"),
    ("core.run.line_accesses", "count"),
    ("core.run.offchip_fetches", "count"),
    ("core.run.offchip_writebacks", "count"),
    ("core.run.page_faults", "count"),
    ("core.run.remote_hits", "count"),
    ("core.run.footprint_bytes", "B"),
    ("core.run_unattributed_ms", "ms"),
    // functional-walk replay
    ("core.replay.line_accesses", "count"),
    ("workloads.emit_ns_per_line", "ns"),
    ("mem.hierarchy_ns_per_access", "ns"),
    ("mem.page_ns_per_touch", "ns"),
    ("core.footprint_ns_per_touch", "ns"),
    ("core.classify_ns_per_fetch", "ns"),
    // engine
    ("engine.key_us", "us"),
    ("engine.persist_us", "us"),
    ("engine.overhead_us_per_job", "us"),
    ("engine.probe_ns", "ns"),
    ("engine.validate_ns", "ns"),
    ("engine.decode_us", "us"),
    ("engine.executed", "count"),
    ("engine.memory_hits", "count"),
    ("engine.disk_hits", "count"),
    ("engine.deduped", "count"),
    ("engine.coalesced", "count"),
    ("engine.hit_ratio", "frac"),
    // flow
    ("flow.warm_workflow_us", "us"),
    ("flow.stages_executed", "count"),
    // serve
    ("serve.req_p50_us", "us"),
    ("serve.req_p99_us", "us"),
    ("serve.req_samples", "count"),
    ("serve.rtt_us.runs_post", "us"),
    ("serve.rtt_us.runs_get", "us"),
    ("serve.rtt_us.sweeps_post", "us"),
    ("serve.rtt_us.workflows_post", "us"),
    ("serve.rtt_us.metrics_get", "us"),
    ("serve.rtt_samples.runs_post", "count"),
    ("serve.rtt_samples.runs_get", "count"),
    ("serve.rtt_samples.sweeps_post", "count"),
    ("serve.rtt_samples.workflows_post", "count"),
    ("serve.rtt_samples.metrics_get", "count"),
    ("serve.http_parse_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.spec_us", "us"),
    ("serve.render_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.non2xx", "count"),
    ("serve.shed_503", "count"),
    // cluster
    ("cluster.probe_rtt_us", "us"),
    ("cluster.shard_sweep_ms", "ms"),
    ("cluster.overhead_us_per_job", "us"),
    ("cluster.peer_cache_hits", "count"),
    ("cluster.executed", "count"),
    ("cluster.coalesced", "count"),
    ("cluster.rehashes", "count"),
    ("cluster.peer_hit_ratio", "frac"),
    // the benchmark itself
    ("bench.trace_overhead_frac", "frac"),
    ("bench.attributed_frac", "frac"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Everything one run measured: metric values, correctness tallies, and
/// notes on what could not be measured.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (jobs or requests, per workload).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Why each unmeasured per-layer metric is missing.
    pub not_measured: BTreeMap<&'static str, String>,
    /// The run's repeated samples (per pass, segment or sweep) and the
    /// host-speed factors they were normalised with, printed so a result
    /// shows how noisy its run and its host were.
    pub noise: Option<Noise>,
}

/// A run's repeated timings, for the noise line.
#[derive(Debug)]
pub struct Noise {
    what: &'static str,
    seconds: Vec<f64>,
    walls: Vec<f64>,
    factors: Vec<f64>,
}

impl Outcome {
    /// Records `value` for the declared metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: every printed name must be declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Marks `name` as not measured on this workload, with the reason.
    pub fn skip(&mut self, name: &'static str, why: &str) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.not_measured.insert(name, why.to_string());
    }

    /// Keeps the run's repeated timings of `what`, normalised by `clock`,
    /// and the clock's calibrations, for the noise line.
    pub fn noise(&mut self, what: &'static str, samples: &[Interval], clock: &HostClock) {
        self.noise = Some(Noise {
            what,
            seconds: samples.iter().map(|i| clock.seconds(i)).collect(),
            walls: samples.iter().map(|i| i.wall).collect(),
            factors: clock.factors(),
        });
    }

    /// The noise line: sample count, then minimum, median and maximum of
    /// the normalised seconds, of the wall seconds as measured, and of the
    /// single calibrations as factors (the run's factor is their median).
    pub fn noise_line(&self) -> Option<String> {
        let n = self.noise.as_ref()?;
        if n.seconds.is_empty() {
            return None;
        }
        let spread = |xs: Vec<f64>| {
            if xs.is_empty() {
                return "null".to_string();
            }
            let s = crate::stats::sorted(xs);
            format!(
                "{{\"min\":{},\"median\":{},\"max\":{}}}",
                number(s[0]),
                number(crate::stats::median(&s)),
                number(s[s.len() - 1])
            )
        };
        Some(format!(
            "{{\"noise\":{{\"sample\":{},\"n\":{},\"seconds\":{},\"wall\":{},\"host_factor\":{}}}}}",
            json_string(n.what),
            n.seconds.len(),
            spread(n.seconds.clone()),
            spread(n.walls.clone()),
            spread(n.factors.clone())
        ))
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The final result line for the mode: every declared metric of the
    /// mode, in catalogue order. Missing per-layer metrics print 0 and
    /// are noted; a missing end-to-end metric is a benchmark bug.
    pub fn result_line(&mut self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::with_capacity(table.len());
        for &(name, unit) in table {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ if traced => {
                    self.not_measured
                        .entry(name)
                        .or_insert_with(|| "not exercised by this workload".into());
                    0.0
                }
                _ => panic!("end-to-end metric {name} was not measured"),
            };
            parts.push(format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(name),
                number(value),
                json_string(unit)
            ));
        }
        let correct = self.failed == 0 && self.attempted > 0;
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        )
    }

    /// The `not_measured` note as one JSON line.
    pub fn note_line(&self) -> String {
        let body: Vec<String> = self
            .not_measured
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
            .collect();
        format!("{{\"not_measured\":{{{}}}}}", body.join(","))
    }
}

/// A finite number in JSON with all its digits (Rust's shortest
/// round-trip form).
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn result_line_prints_every_metric_of_the_mode() {
        let mut o = Outcome::default();
        for &(name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        o.tally(true);
        let line = o.result_line(false);
        let v = heteropipe_serve::Json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        for &(name, unit) in END_TO_END {
            let m = v.get("metrics").and_then(|m| m.get(name)).unwrap();
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        }
        let traced = o.result_line(true);
        let v = heteropipe_serve::Json::parse(&traced).unwrap();
        for &(name, _) in PER_LAYER {
            assert!(
                v.get("metrics").and_then(|m| m.get(name)).is_some(),
                "{name}"
            );
        }
        assert_eq!(o.not_measured.len(), PER_LAYER.len());
    }

    #[test]
    fn failures_make_the_result_incorrect() {
        let mut o = Outcome::default();
        o.tally(true);
        o.tally(false);
        for &(name, _) in END_TO_END {
            o.set(name, 2.0);
        }
        let v = heteropipe_serve::Json::parse(&o.result_line(false)).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(false));
        assert_eq!(v.get("failed").and_then(|c| c.as_u64()), Some(1));
    }
}
