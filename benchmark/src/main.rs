//! The U-index stack's benchmark. See `benchmark/README.md`.
//!
//! Two ways in. With `--workload NAME` (how the benchmark driver calls it)
//! the process runs that one workload and ends its output with one JSON
//! result line. Without, it runs every workload — each in a child process
//! of its own, so that peak memory is per workload — and prints every
//! metric by name; `--repeat N` does that N times and compares the sets.

mod gen;
mod harness;
mod host;
mod metrics;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads {
    pub mod commit;
    pub mod scan;
    pub mod serve;
}

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Ctx, Outcome};
use host::Provenance;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] \
                     [--smoke] [--repeat N]";

/// Seconds of timed rounds per run; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub repeat: usize,
}

impl Args {
    pub fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                args.seconds = Some(s);
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace` alone is the flag; `--trace 0|1` is the driver's form.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(ctx: &Ctx) -> Outcome {
    use workloads::{commit, scan, serve};
    match ctx.workload {
        "scan_warm" => scan::run_warm(ctx),
        "scan_cold" => scan::run_cold(ctx),
        "serve_point" => serve::run(ctx, serve::Kind::Point),
        "serve_rows" => serve::run(ctx, serve::Kind::Rows),
        "commit_disk" => commit::run(ctx),
        other => unreachable!("workload {other} is not in the catalogue"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Scratch directories and trace files live under benchmark/out, inside
    // the checkout; run.sh starts this program from the checkout's root.
    let out_dir = PathBuf::from("benchmark/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    let Some(name) = &args.workload else {
        return report::run_all(&args);
    };
    let Some(&(workload, _)) = metrics::WORKLOADS.iter().find(|(w, _)| w == name) else {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|(w, _)| *w).collect();
        eprintln!("unknown workload {name:?}; one of {names:?}");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        smoke: args.smoke,
        out_dir,
        prov: Provenance::collect(),
    };
    let outcome = run_workload(&ctx);
    // Read last, so that it covers the whole run.
    let peak_rss_mb = host::peak_rss_mb();
    report::print_run(&ctx, &outcome, peak_rss_mb);
    if outcome.tally.wrong > 0 {
        eprintln!(
            "{workload}: {} answers differed from the truth",
            outcome.tally.wrong
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_form_and_flag_form_of_trace() {
        let a = parse("--workload scan_warm --seed 7 --seconds 10 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("scan_warm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(
            parse("--workload scan_warm --seed 7 --seconds 10 --trace 1")
                .unwrap()
                .trace
        );
        let a = parse("--trace --smoke").unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(a.seed, 42, "default seed");
        assert_eq!(a.seconds(), SMOKE_SECONDS);
        assert_eq!(parse("").unwrap().seconds(), DEFAULT_SECONDS);
        let a = parse("--trace --repeat 2").unwrap();
        assert!(a.trace);
        assert_eq!(a.repeat, 2);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--seed").is_err());
        assert!(parse("--seed x").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--bogus").is_err());
    }
}
