//! What the five workloads share: the run context, the result shape, and
//! the timing loops.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::host::Provenance;
use crate::stats::{self, Round, Summary};
use crate::trace::Recorder;

/// The fewest timed rounds a run reports on, however short `--seconds`.
pub const MIN_ROUNDS: usize = 3;

/// One invocation's settings.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// How long the timed rounds run (at least [`MIN_ROUNDS`] rounds).
    pub seconds: f64,
    /// Traced run: alternate untraced and traced rounds, then the
    /// single-layer passes; report per-layer metrics.
    pub trace: bool,
    /// Tiny sizes, for the smoke test.
    pub smoke: bool,
    /// `benchmark/out`: scratch directories and trace files.
    pub out_dir: PathBuf,
    pub prov: Provenance,
}

/// A scratch directory under `out/`, removed with everything in it when
/// dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl Ctx {
    /// A fresh scratch directory, unique to this process and `tag`.
    pub fn scratch(&self, tag: &str) -> ScratchDir {
        let dir = self.out_dir.join(format!(
            "tmp-{}-{}-{tag}",
            self.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under benchmark/out");
        ScratchDir(dir)
    }

    /// Write the traced round's spans to `out/trace-<workload>.json`.
    pub fn write_trace(&self, threads: &[Recorder]) {
        let path = self.out_dir.join(format!("trace-{}.json", self.workload));
        let json = crate::trace::to_json(self.workload, self.seed, &self.prov.to_json(), threads);
        std::fs::write(&path, json).expect("write trace file under benchmark/out");
    }
}

/// Operation counts of a run. `failed` counts every operation that
/// errored, was refused, timed out or answered wrongly; `wrong` is the
/// subset that answered wrongly and makes the run exit non-zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What a workload hands back.
pub struct Outcome {
    pub tally: Tally,
    pub summary: Summary,
    pub setup_s: f64,
    pub pages_per_op: f64,
    pub space_bytes_per_object: f64,
    /// Per-layer metrics this workload measured (traced runs only); the
    /// catalogue's other per-layer metrics are reported as 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// The frozen sizes and what set-up covers, printed with the result.
    pub sizes: String,
}

/// Run `setup` `times` times, keeping the last state, and return it with
/// the median set-up time in seconds. `setup` returns the seconds it spent
/// in product calls; the previous state is dropped before the next build
/// so that peak memory is that of one.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> (T, f64)) -> (T, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times {
        drop(state.take());
        let (s, t) = setup();
        secs.push(t);
        state = Some(s);
    }
    (state.expect("at least one set-up"), stats::median(&secs))
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Untraced and traced rounds of one run.
pub struct Rounds {
    pub untraced: Vec<Round>,
    pub traced: Vec<Round>,
}

/// Run identical rounds until `ctx.seconds` have passed (and at least
/// [`MIN_ROUNDS`]). `round(traced)` runs one. A traced run spends the time
/// on alternating untraced and traced rounds instead, so that the two
/// throughputs compare like with like.
pub fn run_rounds(ctx: &Ctx, mut round: impl FnMut(bool) -> Round) -> Rounds {
    let start = Instant::now();
    let mut rounds = Rounds {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    let enough = |r: &Rounds| {
        let min = if ctx.trace { 2 } else { MIN_ROUNDS };
        r.untraced.len() >= min && (!ctx.trace || r.traced.len() >= min)
    };
    while !enough(&rounds) || start.elapsed().as_secs_f64() < ctx.seconds {
        rounds.untraced.push(round(false));
        if ctx.trace {
            rounds.traced.push(round(true));
        }
    }
    rounds
}

/// (untraced − traced) / untraced throughput.
pub fn trace_overhead_frac(rounds: &Rounds) -> f64 {
    let untraced = stats::summarize(&rounds.untraced).throughput_ops_s;
    let traced = stats::summarize(&rounds.traced).throughput_ops_s;
    (untraced - traced) / untraced
}

/// Nanoseconds per call of `f` over `iters` calls, timed as one batch.
pub fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The telemetry single-layer pass, the same on every workload.
pub fn telemetry_layers(layers: &mut BTreeMap<&'static str, f64>, smoke: bool) {
    let iters = if smoke { 10_000 } else { 1_000_000 };
    let probe = crate::sut::telemetry_probe();
    layers.insert(
        "telemetry.counter_inc_ns",
        ns_per_call(iters, |_| std::hint::black_box(&probe).inc()),
    );
    layers.insert(
        "telemetry.histogram_record_ns",
        ns_per_call(iters, |i| std::hint::black_box(&probe).record(i)),
    );
    layers.insert(
        "telemetry.span_ns",
        ns_per_call(iters / 10, |i| {
            crate::sut::telemetry_span();
            if i % 32 == 0 {
                crate::sut::telemetry_drain_spans();
            }
        }),
    );
}
