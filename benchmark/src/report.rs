//! Printing: one run's metrics and result line, and — when no workload is
//! named — every workload in a child process each, with the repeatability
//! report when asked to repeat.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::harness::{Ctx, Outcome};
use crate::host::Provenance;
use crate::metrics::{self, Better, Metric};
use crate::sut::JsonDoc;
use crate::Args;

fn provenance_lines(prov: &Provenance, seed: u64) -> String {
    let mut out = format!(
        "seed {seed} | git {} | {} | nproc {} | cpu {}\n",
        prov.git, prov.rustc, prov.nproc, prov.cpu
    );
    if prov.undersized_host() {
        out.push_str(
            "undersized_host: fewer than 2 CPUs, so one client shares a CPU with the server; \
             do not compare these numbers with a 2-CPU host's\n",
        );
    }
    out.push_str(
        "latencies are this sandbox's: reads come from the OS cache and fsync may be cheap\n",
    );
    out
}

fn end_to_end_values(outcome: &Outcome, peak_rss_mb: f64) -> Vec<(&'static Metric, f64)> {
    let s = &outcome.summary;
    metrics::END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => outcome.setup_s,
                "throughput_ops_s" => s.throughput_ops_s,
                "latency_p50_us" => s.p50_us,
                "latency_p99_us" => s.p99_us,
                "peak_rss_mb" => peak_rss_mb,
                "pages_per_op" => outcome.pages_per_op,
                "space_bytes_per_object" => outcome.space_bytes_per_object,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m, v)
        })
        .collect()
}

fn per_layer_values(outcome: &Outcome) -> Vec<(&'static Metric, f64)> {
    for name in outcome.layers.keys() {
        assert!(
            metrics::PER_LAYER.iter().any(|m| m.name == *name),
            "per-layer metric {name} is not in the catalogue"
        );
    }
    metrics::PER_LAYER
        .iter()
        .map(|m| (m, outcome.layers.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, values with all their digits.
fn result_line(outcome: &Outcome, values: &[(&'static Metric, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.tally.wrong == 0,
        outcome.tally.attempted,
        outcome.tally.failed
    );
    for (i, (m, v)) in values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Print one run: provenance, frozen sizes, every metric by name with its
/// unit, and the result line last.
pub fn print_run(ctx: &Ctx, outcome: &Outcome, peak_rss_mb: f64) {
    let s = &outcome.summary;
    let mut out = format!(
        "workload {}{}{}\n",
        ctx.workload,
        if ctx.trace { " (traced run)" } else { "" },
        if ctx.smoke { " (smoke sizes)" } else { "" }
    );
    out.push_str(&provenance_lines(&ctx.prov, ctx.seed));
    let _ = writeln!(out, "{}", outcome.sizes);
    let _ = writeln!(
        out,
        "{} identical timed rounds over {:.1} s asked, {} operations each: every operation \
         measured {} times, its typical latency the lower quartile; percentiles are over \
         the {} operations",
        s.rounds, ctx.seconds, s.ops_per_round, s.rounds, s.ops_per_round
    );
    let per_round: Vec<String> = s
        .raw
        .per_round_ops_s
        .iter()
        .map(|t| format!("{t:.1}"))
        .collect();
    let _ = writeln!(
        out,
        "raw, slow phases of the box included: pooled p50 {:.1} us, p99 {:.1} us over {} \
         samples; wall-clock ops/s per round: {}",
        s.raw.pooled_p50_us,
        s.raw.pooled_p99_us,
        s.rounds * s.ops_per_round,
        per_round.join(" ")
    );
    let e2e = end_to_end_values(outcome, peak_rss_mb);
    for (m, v) in &e2e {
        let _ = writeln!(
            out,
            "  {:<44} {:>16.4} {:<6} (bound {:.0}%)",
            m.name,
            v,
            m.unit,
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<44} {:>16.6} {:<6} ({} failed of {} attempted; any increase fails)",
        "failed_frac",
        outcome.tally.failed as f64 / outcome.tally.attempted.max(1) as f64,
        "ratio",
        outcome.tally.failed,
        outcome.tally.attempted
    );
    let layers = per_layer_values(outcome);
    if ctx.trace {
        // Only what this workload measured; the result line below carries
        // the whole catalogue, the rest as 0.
        for (m, v) in &layers {
            if outcome.layers.contains_key(m.name) {
                let _ = writeln!(out, "  {:<44} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        let _ = writeln!(
            out,
            "spans written to {}/trace-{}.json",
            ctx.out_dir.display(),
            ctx.workload
        );
    }
    out.push_str(&result_line(
        outcome,
        if ctx.trace { &layers } else { &e2e },
    ));
    println!("{out}");
}

/// Run one workload in a child process, print what it printed, and return
/// its result line's metrics. An operation that failed, a wrong answer or a
/// non-zero exit is an error.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (human, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .ok_or_else(|| format!("{workload}: no result line"))?;
    println!("{human}\n");
    let doc = JsonDoc::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let values = doc
        .keys_at(&["metrics"])
        .into_iter()
        .filter_map(|name| {
            let v = doc.f64_at(&["metrics", &name, "value"])?;
            Some((name, v))
        })
        .collect();
    let correct = doc.bool_at(&["correct"]).unwrap_or(false);
    let failed = doc.f64_at(&["failed"]).unwrap_or(f64::NAN);
    if !out.status.success() || !correct || failed != 0.0 {
        return Err(format!(
            "{workload}: {} (correct: {correct}, failed: {failed})",
            out.status
        ));
    }
    Ok(values)
}

/// (workload, metric) → value, for one pass over all workloads.
type Set = BTreeMap<(&'static str, String), f64>;

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compare two sets: end-to-end timings against their bounds, counts for
/// exact equality. Returns the table and whether every count matched.
fn repeatability(first: &Set, second: &Set) -> (String, bool) {
    let mut out = String::from(
        "repeatability: set 2 against set 1 (same code, same seed)\n\
         workload      metric                                        set 1          set 2   worse by   allowed  verdict\n",
    );
    let mut counts_match = true;
    for ((workload, name), &a) in first {
        let Some(&b) = second.get(&(*workload, name.clone())) else {
            continue;
        };
        let Some(m) = metrics::find(name) else {
            continue;
        };
        if a == 0.0 && b == 0.0 {
            continue; // a layer this workload does not exercise
        }
        let (allowed, verdict) = if m.exact {
            counts_match &= a == b;
            ("exact".to_string(), if a == b { "ok" } else { "MISMATCH" })
        } else if let Some(bound) = m.bound {
            let ok = worsening(m, a, b).abs() <= bound;
            (
                format!("{:.0}%", bound * 100.0),
                if ok { "ok" } else { "over bound" },
            )
        } else {
            continue;
        };
        let _ = writeln!(
            out,
            "{workload:<13} {name:<38} {a:>14.4} {b:>14.4} {:>9.2}% {allowed:>9}  {verdict}",
            worsening(m, a, b) * 100.0
        );
    }
    (out, counts_match)
}

/// No `--workload`: run each in a process of its own, `--repeat` times.
pub fn run_all(args: &Args) -> ExitCode {
    print!("{}", provenance_lines(&Provenance::collect(), args.seed));
    let mut sets: Vec<Set> = Vec::new();
    let mut all_ok = true;
    for rep in 0..args.repeat {
        let mut set = Set::new();
        for &(workload, why) in metrics::WORKLOADS {
            println!("--- set {} | {workload}: {why}", rep + 1);
            let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in modes {
                match run_child(args, workload, trace) {
                    Ok(values) => set.extend(values.into_iter().map(|(k, v)| ((workload, k), v))),
                    Err(e) => {
                        eprintln!("{e}");
                        all_ok = false;
                    }
                }
            }
        }
        sets.push(set);
    }
    if let [first, second, ..] = sets.as_slice() {
        let (table, counts_match) = repeatability(first, second);
        println!("{table}");
        all_ok &= counts_match;
    }
    if all_ok {
        println!("all workloads answered correctly; failed_frac = 0 everywhere");
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a workload failed or a count did not repeat exactly");
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Tally;
    use crate::stats::{summarize, Round};

    fn outcome() -> Outcome {
        Outcome {
            tally: Tally {
                attempted: 10,
                failed: 0,
                wrong: 0,
            },
            summary: summarize(&[Round {
                callers: 1,
                wall_ns: 4000,
                samples_ns: vec![900, 1000, 1100, 1000],
            }]),
            setup_s: 0.5,
            pages_per_op: 3.25,
            space_bytes_per_object: 40.0,
            layers: BTreeMap::from([("btree.seek_ns", 12.5)]),
            sizes: String::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric() {
        let o = outcome();
        let e2e = end_to_end_values(&o, 77.0);
        let doc = JsonDoc::parse(&result_line(&o, &e2e)).expect("result line is JSON");
        assert_eq!(
            doc.keys_at(&[]),
            ["correct", "attempted", "failed", "metrics"]
        );
        let names: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(doc.keys_at(&["metrics"]), names);
        assert_eq!(
            doc.f64_at(&["metrics", "pages_per_op", "value"]),
            Some(3.25)
        );
        assert_eq!(doc.str_at(&["metrics", "setup_s", "unit"]), Some("s"));
        assert_eq!(doc.f64_at(&["attempted"]), Some(10.0));

        let layers = per_layer_values(&o);
        let doc = JsonDoc::parse(&result_line(&o, &layers)).expect("result line is JSON");
        assert_eq!(doc.keys_at(&["metrics"]).len(), metrics::PER_LAYER.len());
        assert_eq!(
            doc.f64_at(&["metrics", "btree.seek_ns", "value"]),
            Some(12.5)
        );
        assert_eq!(
            doc.f64_at(&["metrics", "serve.ping_rtt_p50_us", "value"]),
            Some(0.0),
            "a layer the workload does not exercise reports 0"
        );
    }

    #[test]
    fn repeatability_checks_counts_exactly_and_timings_against_bounds() {
        let set = |tput: f64, pages: f64| -> Set {
            BTreeMap::from([
                (("scan_warm", "throughput_ops_s".to_string()), tput),
                (("scan_warm", "pages_per_op".to_string()), pages),
                (("scan_warm", "btree.seek_ns".to_string()), tput),
            ])
        };
        let (table, ok) = repeatability(&set(100.0, 7.5), &set(95.0, 7.5));
        assert!(ok);
        assert!(table.contains("5.00%"), "{table}");
        assert!(!table.contains("over bound") && !table.contains("MISMATCH"));
        assert!(
            !table.contains("btree.seek_ns"),
            "unbounded timings are left out"
        );

        let (table, ok) = repeatability(&set(100.0, 7.5), &set(70.0, 7.6));
        assert!(!ok);
        assert!(table.contains("over bound") && table.contains("MISMATCH"));
    }
}
