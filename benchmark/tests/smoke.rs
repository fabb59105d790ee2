//! Runs the built benchmark at `--smoke` sizes: all five workloads, untraced
//! and traced, each in its own process, as `run.sh` with no `--workload`
//! does. Every catalogued metric must be there, and nothing may fail.

use std::path::Path;
use std::process::Command;

/// Every `"name": "..."` of one of `BENCHMARK.json`'s lists. (A unit test
/// holds that file and the benchmark's catalogue together.)
fn names(benchmark_json: &str, list: &str) -> Vec<String> {
    let start = benchmark_json
        .find(&format!("\"{list}\": ["))
        .expect("list in BENCHMARK.json");
    let body = &benchmark_json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn smoke_run_reports_every_metric_and_fails_nothing() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let catalogue = std::fs::read_to_string(repo.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names(&catalogue, "workloads");
    assert_eq!(workloads.len(), 5);

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_uindex-benchmark"))
                .current_dir(&repo)
                .args(["--workload", workload, "--seed", "7", "--smoke"])
                .args(["--trace", trace])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace}: {}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.trim_end().lines().last().expect("a result line");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(
                line.contains("\"failed\": 0, \"metrics\": {"),
                "failed_frac must be 0: {line}"
            );
            let wanted = names(&catalogue, list);
            for name in &wanted {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
            assert_eq!(
                line.matches("{\"value\": ").count(),
                wanted.len(),
                "{workload} --trace {trace} reports metrics outside {list}"
            );
            if trace == "0" {
                // End-to-end metrics are never 0.
                assert!(!line.contains("{\"value\": 0,"), "{line}");
            }
        }
        let trace_file = repo.join(format!("benchmark/out/trace-{workload}.json"));
        let spans = std::fs::read_to_string(&trace_file).expect("trace file written");
        assert!(
            spans.contains("\"self_time\"") && spans.contains("\"parent\""),
            "{workload}"
        );
    }
}
