//! The benchmark against its own declaration: `BENCHMARK.json` names
//! exactly the workloads and metrics the binary prints, and a short run
//! prints every end-to-end metric with its unit.

use std::path::Path;
use std::process::Command;

use heteropipe_hpbench::metrics::{END_TO_END, PER_LAYER};
use heteropipe_hpbench::WORKLOADS;
use heteropipe_serve::Json;

fn declaration() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{list} is an array"))
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declaration_matches_the_binary() {
    let doc = declaration();
    let workloads: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
    let per_layer: Vec<String> = names(&doc, "per_layer").into_iter().map(|m| m.0).collect();
    let declared: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(per_layer, declared);
}

#[test]
fn a_short_run_prints_every_end_to_end_metric() {
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("contract-run");
    std::fs::create_dir_all(&work).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hpbench"))
        .args([
            "--workload",
            "cold_small",
            "--seed",
            "3",
            "--seconds",
            "0.1",
            "--trace",
            "0",
        ])
        .current_dir(&work)
        .output()
        .expect("run the benchmark");
    let _ = std::fs::remove_dir_all(&work);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
    assert!(last.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    let metrics = last.get("metrics").unwrap();
    for (name, unit) in names(&declaration(), "end_to_end") {
        let m = metrics
            .get(&name)
            .unwrap_or_else(|| panic!("{name} not printed"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{name} is 0"
        );
    }
    assert!(
        stdout.contains("\"fingerprint\""),
        "provenance line printed"
    );
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--seed"],
        vec!["--workload", "cold_small", "--trace", "2"],
        vec!["--workload", "cold_small", "--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_hpbench"))
            .args(&args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
