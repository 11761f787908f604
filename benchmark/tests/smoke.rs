//! Runs the built benchmark end to end and reads its own output back.
//! Needs the optimised build: `cargo test --release`.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use std::process::Command;

use json::Json;

/// The names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let spec = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    spec.get(key)
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn run(args: &[&str], out_dir: &str) -> (bool, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_munin-benchmark"))
        .args(args)
        .args(["--out-dir", out_dir])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let last = stdout.lines().last().expect("a result line");
    (
        output.status.success(),
        Json::parse(last).expect("the last line is JSON"),
    )
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build of the runtime is too slow: use --release"
)]
fn quick_run_reports_every_end_to_end_cell_and_writes_linked_spans() {
    let out_dir = format!("{}/smoke-quick", env!("CARGO_TARGET_TMPDIR"));
    let (ok, doc) = run(&["--quick", "--seed", "3"], &out_dir);
    assert!(ok, "the quick run exits 0");
    assert_eq!(doc.get("meta").unwrap().get("claim"), Some(&Json::Null));
    for workload in listed("workloads") {
        let w = doc.get("workloads").unwrap().get(&workload).unwrap();
        assert_eq!(w.num("failed").unwrap(), 0.0, "{workload}");
        assert!(w.num("attempted").unwrap() >= 3.0, "{workload}");
        for metric in listed("end_to_end") {
            let cell = w.get("end_to_end").unwrap().get(&metric).unwrap();
            assert!(cell.num("value").unwrap() > 0.0, "{workload}.{metric}");
            assert!(!cell.get("unit").unwrap().as_str().unwrap().is_empty());
        }
        let layers = w.get("per_layer").unwrap();
        assert!(layers.get("apps.executions").unwrap().num("value").unwrap() >= 1.0);
        assert_eq!(
            layers
                .get("obs.events_dropped")
                .unwrap()
                .num("value")
                .unwrap(),
            0.0
        );

        // Every span but the block root names a parent that is in the file.
        let text = std::fs::read_to_string(format!("{out_dir}/spans-{workload}.json")).unwrap();
        let file = Json::parse(&text).unwrap();
        let spans = file.get("spans").unwrap().as_arr().unwrap();
        let ids: Vec<f64> = spans.iter().map(|s| s.num("id").unwrap()).collect();
        assert!(spans.len() > 1, "{workload}");
        for span in &spans[1..] {
            assert!(ids.contains(&span.num("parent").unwrap()), "{workload}");
        }
        assert!(std::path::Path::new(&format!("{out_dir}/trace-{workload}.json")).exists());
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build of the runtime is too slow: use --release"
)]
fn one_workload_run_prints_the_contracted_result_line() {
    let out_dir = format!("{}/smoke-driver", env!("CARGO_TARGET_TMPDIR"));
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let (ok, line) = run(
            &[
                "--workload",
                "locks",
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
            ],
            &out_dir,
        );
        assert!(ok);
        let Json::Obj(keys) = &line else {
            panic!("the result is an object")
        };
        assert_eq!(
            keys.keys().map(String::as_str).collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let Some(Json::Obj(metrics)) = line.get("metrics") else {
            panic!("metrics is an object")
        };
        let listed = listed(list);
        assert_eq!(metrics.len(), listed.len());
        for name in listed {
            let m = &metrics[&name];
            assert!(m.num("value").is_ok(), "{name}");
            assert!(m.get("unit").unwrap().as_str().is_some(), "{name}");
        }
    }
}
