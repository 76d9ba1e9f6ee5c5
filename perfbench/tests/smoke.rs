//! Tiny-size smoke runs of every workload through the built binary. Each
//! must pass its own output checks, emit every metric `BENCHMARK.json`
//! names with its unit, and fail its checks when its outputs are
//! deliberately corrupted.

use iwino_obs::Json;
use std::process::{Command, Output};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads(doc: &Json) -> Vec<String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect()
}

fn exec(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_iwino-perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

fn run(workload: &str, trace: bool, corrupt: bool) -> Json {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--size",
        "tiny",
    ];
    args.extend(["--trace", if trace { "1" } else { "0" }]);
    if corrupt {
        args.push("--corrupt-output");
    }
    let out = exec(&args);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

#[test]
fn every_workload_emits_every_named_metric_with_its_unit() {
    let doc = benchmark_json();
    for w in workloads(&doc) {
        for (trace, kind) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(&w, trace, false);
            assert_eq!(r.get("correct").and_then(Json::as_bool), Some(true), "{w} {kind}");
            assert_eq!(r.get("failed").and_then(Json::as_u64), Some(0), "{w} {kind}");
            assert!(
                r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{w} {kind}"
            );
            let metrics = r.get("metrics").and_then(Json::as_obj).expect("metrics object");
            let expected = names(&doc, kind);
            assert_eq!(metrics.len(), expected.len(), "{w} {kind}: metric count");
            for (name, unit) in expected {
                let m = r.get("metrics").and_then(|m| m.get(&name));
                let m = m.unwrap_or_else(|| panic!("{w} {kind}: missing {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()), "{w}: {name}");
                let v = m.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(v.is_finite(), "{w}: {name} = {v}");
                if kind == "end_to_end" {
                    assert!(v > 0.0, "{w}: end-to-end {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn corrupted_outputs_fail_the_checks() {
    for w in workloads(&benchmark_json()) {
        let r = run(&w, false, true);
        assert_eq!(r.get("correct").and_then(Json::as_bool), Some(false), "{w}");
        assert!(r.get("failed").and_then(Json::as_u64).unwrap_or(0) >= 1, "{w}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seconds", "1"][..],
        &["--workload", "resnet18-infer"],
    ] {
        let out = exec(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
