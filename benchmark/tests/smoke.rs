//! Runs the whole benchmark at smoke size through the real binary, and
//! checks that `BENCHMARK.json` names exactly what it emits.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use json::Json;

const WORKLOADS: [&str; 4] = ["point_warm", "scan_warm", "point_cold", "mixed_durable"];

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pc-benchmark"))
        .args(args)
        .output()
        .expect("start pc-benchmark")
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn last_line_json(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.trim_end().lines().last().unwrap_or_default().to_string();
    Json::parse(&line).unwrap_or_else(|e| {
        panic!("no result line ({e}); stderr:\n{}", String::from_utf8_lossy(&out.stderr))
    })
}

fn pairs(obj: &Json) -> &[(String, Json)] {
    match obj {
        Json::Obj(pairs) => pairs,
        other => panic!("expected an object, found {other}"),
    }
}

fn keys(obj: &Json) -> BTreeSet<String> {
    pairs(obj).iter().map(|(k, _)| k.clone()).collect()
}

/// Names under `section` of `BENCHMARK.json`, checked against the
/// contract's character set on the way.
fn declared(spec: &Json, section: &str) -> BTreeSet<String> {
    spec.get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("a name").to_string();
            assert!(
                !name.is_empty()
                    && name.len() <= 64
                    && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "bad name {name:?}"
            );
            name
        })
        .collect()
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn run_measures_every_workload_and_compare_agrees_with_itself() {
    let dir = scratch("run");
    let result = dir.join("result.json");
    let out = bench(&[
        "run",
        "--smoke",
        "--seconds",
        "1.2",
        "--dir",
        dir.to_str().unwrap(),
        "--out",
        result.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "run failed:\n{}", String::from_utf8_lossy(&out.stderr));

    let doc = Json::parse(&std::fs::read_to_string(&result).unwrap()).unwrap();
    let header = doc.get("header").expect("a header");
    for field in ["commit", "nproc", "page_size", "seed", "dir_fs", "conns", "workers"] {
        assert!(header.get(field).is_some(), "header lacks {field}");
    }
    let spec = benchmark_json();
    let declared_metrics: BTreeSet<String> =
        declared(&spec, "end_to_end").union(&declared(&spec, "per_layer")).cloned().collect();
    let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
    let names: Vec<&str> =
        workloads.iter().map(|w| w.get("workload").and_then(Json::as_str).unwrap()).collect();
    assert_eq!(names, WORKLOADS);
    assert_eq!(declared(&spec, "workloads"), WORKLOADS.iter().map(|w| w.to_string()).collect());
    for w in workloads {
        assert_eq!(w.get("correct"), Some(&Json::Bool(true)), "{w}");
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0));
        let e2e = w.get("end_to_end").unwrap();
        assert_eq!(keys(e2e).len(), 13);
        let emitted: BTreeSet<String> =
            keys(e2e).union(&keys(w.get("per_layer").unwrap())).cloned().collect();
        assert_eq!(emitted, declared_metrics, "BENCHMARK.json and `run` name different metrics");
        // Counted metrics and the timed ones every workload has.
        for name in ["page_reads_per_query", "space_amp", "throughput_ops_s", "query_p50_us"] {
            let v = e2e.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{name} = {v:?}");
        }
        let has_writer = w.get("workload").and_then(Json::as_str) == Some("mixed_durable");
        let updates = e2e.get("updates_per_s").unwrap().get("value").unwrap();
        assert_eq!(updates.as_f64().is_some(), has_writer);
    }
    assert!(dir.join("trace-point_warm.jsonl").exists());

    // The layers separate as designed.
    let layer = |w: usize, name: &str| {
        workloads[w].get("per_layer").unwrap().get(name).unwrap().get("value").unwrap().as_f64()
    };
    assert_eq!(layer(0, "pagestore.pool.hit_ratio"), Some(1.0));
    assert_eq!(layer(1, "pagestore.pool.hit_ratio"), Some(1.0));
    assert!(layer(2, "pagestore.pool.hit_ratio").unwrap() < 0.9);
    assert_eq!(layer(0, "pagestore.wal.fsyncs_per_update"), Some(0.0));
    assert!(layer(3, "pagestore.wal.fsyncs_per_update").unwrap() > 0.0);

    // A result agrees with itself; a doctored copy regresses.
    let same = bench(&["compare", result.to_str().unwrap(), result.to_str().unwrap()]);
    assert!(same.status.success(), "{}", String::from_utf8_lossy(&same.stdout));
    let text = String::from_utf8_lossy(&same.stdout).to_string();
    assert!(!text.contains("REGRESS") && !text.contains("unresolved"), "{text}");
    let worse = dir.join("worse.json");
    let reads = workloads[0].get("end_to_end").unwrap().get("page_reads_per_query").unwrap();
    let doctored = std::fs::read_to_string(&result).unwrap().replacen(
        &format!("\"page_reads_per_query\":{reads}"),
        "\"page_reads_per_query\":{\"value\":99.5,\"unit\":\"pages\",\"spread\":0}",
        1,
    );
    std::fs::write(&worse, doctored).unwrap();
    let regress = bench(&["compare", result.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(regress.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&regress.stdout).contains("REGRESS"));
}

#[test]
fn the_driver_line_carries_exactly_the_declared_metrics() {
    let dir = scratch("driver");
    let spec = benchmark_json();
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = bench(&[
            "--workload",
            "mixed_durable",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
            "--dir",
            dir.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let line = last_line_json(&out);
        assert_eq!(
            keys(&line),
            ["attempted", "correct", "failed", "metrics"].iter().map(|k| k.to_string()).collect()
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(keys(metrics), declared(&spec, section), "--trace {trace}");
        for (name, m) in pairs(metrics) {
            assert_eq!(keys(m), ["unit", "value"].iter().map(|k| k.to_string()).collect());
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some(), "{name} has no number");
            if trace == "0" {
                assert!(value.unwrap() > 0.0, "end-to-end metric {name} is zero");
            }
        }
    }
    // Units agree with the declaration.
    let units = |section: &str| -> Vec<(String, String)> {
        spec.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    for (_, unit) in units("end_to_end").iter().chain(&units("per_layer")) {
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
    }
}

#[test]
fn more_connections_than_hardware_threads_are_refused() {
    let dir = scratch("refused");
    let out = bench(&[
        "--workload",
        "point_warm",
        "--smoke",
        "--conns",
        "100000",
        "--dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--conns"));
    assert!(out.stdout.is_empty(), "a refused run must not print a result");
}
