//! `hpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the repository benchmark and prints, as its last
//! line, `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`: every
//! end-to-end metric when untraced, every per-layer metric when traced.
//! Lines before it carry the run's provenance and notes. A traced run
//! also writes its spans as Chrome-trace JSON under `.bench_work/traces/`.

use std::path::Path;

use heteropipe_hpbench::env::{clean_scratch, load_average, Provenance, WORK_DIR};
use heteropipe_hpbench::metrics::Outcome;
use heteropipe_hpbench::trace::Tracer;
use heteropipe_hpbench::{cluster, cold, warm, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--print-pins") {
        match argv.get(1).map(String::as_str) {
            Some("cold_small") => cold::print_pins(&cold::cold_small()),
            Some("large") => cold::print_pins(&cold::large()),
            _ => {
                eprintln!("usage: hpbench --print-pins cold_small|large");
                std::process::exit(2);
            }
        }
        clean_scratch();
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hpbench: {e}");
            eprintln!("usage: hpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // The servers log requests to stderr at info level; keep the run quiet.
    heteropipe_obs::log::set_level(heteropipe_obs::log::Level::Warn);

    let provenance = Provenance::sample(args.seed);
    let tracer = Tracer::new(args.trace);
    let mut out: Outcome = match args.workload.as_str() {
        "cold_small" => cold::run(&cold::cold_small(), &args, &tracer),
        "warm_serve" => warm::run(&args, &tracer),
        "cluster_sweep" => cluster::run(&args, &tracer),
        other => unreachable!("Args::parse admitted {other}"),
    };
    if !args.trace {
        out.set(
            "ok_frac",
            (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        );
    }
    let prov = provenance.json(load_average());
    println!("{{\"provenance\":{prov}}}");
    if args.trace {
        let dir = Path::new(WORK_DIR).join("traces");
        let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&prov)));
        match written {
            Ok(()) => println!(
                "{{\"trace\":{},\"spans\":{}}}",
                heteropipe_hpbench::trace::json_string(&path.display().to_string()),
                tracer.len()
            ),
            Err(e) => eprintln!("hpbench: could not write {}: {e}", path.display()),
        }
    }
    clean_scratch();
    let result = out.result_line(args.trace);
    if let Some(line) = out.noise_line() {
        println!("{line}");
    }
    if !out.not_measured.is_empty() {
        println!("{}", out.note_line());
    }
    println!("{result}");
}
