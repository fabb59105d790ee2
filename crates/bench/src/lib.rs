//! Shared harness for the experiment binaries (`table1`, `fig5`-`fig8`,
//! `compare`).
//!
//! The experiment 2 protocol follows §5.1 of the paper: build the database
//! once per configuration, then repeat each query point `reps` times with
//! fresh random inputs (queried sets near / non-near for the U-index,
//! random for the CG-tree, random key or range) and average the distinct
//! pages read.

pub mod chaos;
pub mod wire;

use baselines::{CgConfig, CgTree, SetId, SetIndex};
use objstore::Oid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::queries::{pick_distant, pick_near, pick_range};
use workload::uniform::{generate_postings, key_space, KeyCount, UIndexSet, UniformConfig};

/// Repetitions per measured point; the paper uses 100. Override with the
/// `REPS` environment variable.
pub fn reps() -> u32 {
    std::env::var("REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100)
}

/// One built experiment configuration.
pub struct Fixture {
    /// Generation parameters.
    pub cfg: UniformConfig,
    /// The raw postings (for correctness cross-checks).
    pub postings: Vec<(Vec<u8>, SetId, Oid)>,
    /// The U-index under test.
    pub uindex: UIndexSet,
    /// The CG-tree baseline.
    pub cg: CgTree,
}

impl Fixture {
    /// Generate postings and build both structures.
    pub fn build(cfg: UniformConfig) -> Fixture {
        let postings = generate_postings(&cfg);
        let uindex = UIndexSet::build(cfg.num_sets, &postings).expect("u-index build");
        let mut sorted = postings.clone();
        let cg = CgTree::build(CgConfig::default(), &mut sorted).expect("cg build");
        Fixture {
            cfg,
            postings,
            uindex,
            cg,
        }
    }

    /// Distinct keys in this configuration.
    pub fn key_space(&self) -> u32 {
        key_space(&self.cfg)
    }
}

/// What a measured point runs.
#[derive(Debug, Clone, Copy)]
pub enum QueryKind {
    /// Exact-match on one random key (Figure 5).
    Exact,
    /// Range over this fraction of the keyspace (Figures 6-8).
    Range(f64),
}

/// Averaged page reads for one (query kind, #sets) point.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Queried set count.
    pub sets: u16,
    /// U-index, near (adjacent) sets.
    pub uindex_near: f64,
    /// U-index, non-near (dispersed) sets.
    pub uindex_far: f64,
    /// CG-tree (random sets; adjacency is irrelevant to it, §5.1).
    pub cg: f64,
}

fn random_sets(rng: &mut StdRng, num_sets: u16, k: u16) -> Vec<SetId> {
    // Random distinct sets (sorted), the paper's protocol for the CG-tree.
    let mut all: Vec<u16> = (0..num_sets).collect();
    for i in 0..k as usize {
        let j = rng.gen_range(i..all.len());
        all.swap(i, j);
    }
    let mut picked: Vec<SetId> = all[..k as usize].iter().map(|&s| SetId(s)).collect();
    picked.sort();
    picked
}

/// Measure one point, averaging `reps` random queries. The first repetition
/// also cross-checks that the U-index and CG-tree return identical results.
pub fn measure(fixture: &mut Fixture, kind: QueryKind, k: u16, reps: u32, seed: u64) -> Point {
    let mut rng = StdRng::seed_from_u64(seed);
    let keyspace = fixture.key_space();
    let (mut near_sum, mut far_sum, mut cg_sum) = (0u64, 0u64, 0u64);
    for rep in 0..reps {
        let (lo, hi) = match kind {
            QueryKind::Exact => {
                let key = workload::uniform::key_bytes(rng.gen_range(0..keyspace));
                let mut hi = key.clone();
                hi.push(0);
                (key, hi)
            }
            QueryKind::Range(f) => pick_range(&mut rng, keyspace, f),
        };
        let near = pick_near(&mut rng, fixture.cfg.num_sets, k);
        let far = pick_distant(&mut rng, fixture.cfg.num_sets, k);
        let cg_sets = random_sets(&mut rng, fixture.cfg.num_sets, k);

        let (near_hits, near_cost) = run(&mut fixture.uindex, &lo, &hi, &near, kind);
        let (_, far_cost) = run(&mut fixture.uindex, &lo, &hi, &far, kind);
        let (cg_hits, cg_cost) = run(&mut fixture.cg, &lo, &hi, &cg_sets, kind);
        near_sum += near_cost;
        far_sum += far_cost;
        cg_sum += cg_cost;

        if rep == 0 {
            // Cross-check both structures against brute force on the same
            // set selection.
            let (u_hits, _) = run(&mut fixture.uindex, &lo, &hi, &cg_sets, kind);
            assert_eq!(
                u_hits, cg_hits,
                "U-index and CG-tree disagree on {kind:?} k={k}"
            );
            let brute = brute_force(&fixture.postings, &lo, &hi, &near);
            assert_eq!(near_hits, brute, "U-index vs brute force");
        }
    }
    Point {
        sets: k,
        uindex_near: near_sum as f64 / reps as f64,
        uindex_far: far_sum as f64 / reps as f64,
        cg: cg_sum as f64 / reps as f64,
    }
}

fn run<I: SetIndex>(
    index: &mut I,
    lo: &[u8],
    hi: &[u8],
    sets: &[SetId],
    kind: QueryKind,
) -> (Vec<(SetId, Oid)>, u64) {
    match kind {
        QueryKind::Exact => {
            let (hits, cost) = index.exact(lo, sets).expect("query");
            (hits, cost.pages)
        }
        QueryKind::Range(_) => {
            let (hits, cost) = index.range(lo, hi, sets).expect("query");
            (hits, cost.pages)
        }
    }
}

/// Reference results straight from the posting list.
pub fn brute_force(
    postings: &[(Vec<u8>, SetId, Oid)],
    lo: &[u8],
    hi: &[u8],
    sets: &[SetId],
) -> Vec<(SetId, Oid)> {
    let mut out: Vec<(SetId, Oid)> = postings
        .iter()
        .filter(|(key, s, _)| {
            key.as_slice() >= lo && key.as_slice() < hi && sets.binary_search(s).is_ok()
        })
        .map(|(_, s, o)| (*s, *o))
        .collect();
    out.sort();
    out.dedup();
    out
}

/// The set-count series a panel sweeps (paper x-axes: 1..40 or 1..8).
pub fn set_counts(num_sets: u16) -> Vec<u16> {
    if num_sets == 40 {
        vec![1, 10, 20, 30, 40]
    } else {
        vec![1, 2, 4, 6, 8]
    }
}

/// Key-cardinality panels of the figures.
pub fn key_panels() -> Vec<(&'static str, KeyCount)> {
    vec![
        ("unique keys", KeyCount::Unique),
        ("100 different keys", KeyCount::Distinct(100)),
        ("1000 different keys", KeyCount::Distinct(1000)),
    ]
}

/// Print one panel as an aligned table.
pub fn print_panel(title: &str, points: &[Point]) {
    println!("\n### {title}");
    println!(
        "{:>5}  {:>14}  {:>18}  {:>9}",
        "sets", "U-index (near)", "U-index (non-near)", "CG-tree"
    );
    for p in points {
        println!(
            "{:>5}  {:>14.1}  {:>18.1}  {:>9.1}",
            p.sets, p.uindex_near, p.uindex_far, p.cg
        );
    }
}

/// Run one panel and return its points.
pub fn run_panel(
    kind: QueryKind,
    num_objects: u32,
    num_sets: u16,
    keys: KeyCount,
    seed: u64,
) -> Vec<Point> {
    let reps = reps();
    let cfg = UniformConfig {
        num_objects,
        num_sets,
        keys,
        seed,
    };
    let mut fixture = Fixture::build(cfg);
    set_counts(num_sets)
        .into_iter()
        .enumerate()
        .map(|(i, k)| measure(&mut fixture, kind, k, reps, seed ^ (i as u64 + 1)))
        .collect()
}

/// Run a full figure: every key panel x both hierarchy sizes.
pub fn run_figure(name: &str, kind: QueryKind, num_objects: u32, seed: u64) {
    println!(
        "# {name}  ({num_objects} objects, {} repetitions per point)",
        reps()
    );
    for num_sets in [40u16, 8] {
        for (panel_name, keys) in key_panels() {
            let points = run_panel(kind, num_objects, num_sets, keys, seed);
            print_panel(&format!("{num_sets} sets - {panel_name}"), &points);
        }
    }
}

/// Objects per experiment database. The paper uses 150,000; override with
/// the `OBJECTS` environment variable for quick runs.
pub fn num_objects() -> u32 {
    std::env::var("OBJECTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150_000)
}
