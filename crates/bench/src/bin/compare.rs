//! Qualitative §4.4 comparison: U-index vs CH-tree vs H-tree vs CG-tree on
//! the same multi-set workload (exact match and range, varying set counts),
//! plus storage totals.
//!
//! Usage: `cargo run --release -p bench --bin compare`

use baselines::{CgConfig, CgTree, ChTree, HTree, SetId, SetIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uindex::ScanAlgorithm;
use workload::queries::{pick_near, pick_range};
use workload::uniform::{generate_postings, key_bytes, KeyCount, UIndexSet, UniformConfig};

fn main() {
    let num_objects: u32 = std::env::var("OBJECTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50_000);
    let reps = bench::reps().min(50);
    let num_sets = 8u16;
    let cfg = UniformConfig {
        num_objects,
        num_sets,
        keys: KeyCount::Distinct(1000),
        seed: 99,
    };
    println!(
        "# Index structure comparison — {num_objects} objects, {num_sets} sets, 1000 keys, {reps} reps"
    );
    let postings = generate_postings(&cfg);

    let uindex = UIndexSet::build(num_sets, &postings).expect("build u-index");
    let ch = ChTree::build(1024, 1 << 16, &mut postings.clone()).expect("build ch");
    let h = HTree::build(1024, 1 << 16, &mut postings.clone()).expect("build h");
    let cg = CgTree::build(CgConfig::default(), &mut postings.clone()).expect("build cg");

    let mut structures: Vec<Box<dyn SetIndex>> =
        vec![Box::new(uindex), Box::new(ch), Box::new(h), Box::new(cg)];

    println!("\n## Storage (live pages)");
    for s in &structures {
        println!("{:>10}: {} pages", s.name(), s.total_pages());
    }

    for (title, kind) in [
        ("Exact match", None),
        ("Range 10% of keyspace", Some(0.10)),
        ("Range 1% of keyspace", Some(0.01)),
    ] {
        println!("\n## {title} — avg pages read");
        print!("{:>6}", "sets");
        for s in &structures {
            print!("  {:>10}", s.name());
        }
        println!();
        for k in [1u16, 2, 4, 8] {
            let mut sums = vec![0u64; structures.len()];
            let mut reference: Option<Vec<(SetId, objstore::Oid)>> = None;
            for rep in 0..reps {
                let mut rng = StdRng::seed_from_u64(1000 + rep as u64 * 7 + k as u64);
                let sets = pick_near(&mut rng, num_sets, k);
                let (lo, hi) = match kind {
                    None => {
                        let key = key_bytes(rng.gen_range(0..1000));
                        let mut hi = key.clone();
                        hi.push(0);
                        (key, hi)
                    }
                    Some(f) => pick_range(&mut rng, 1000, f),
                };
                for (i, s) in structures.iter_mut().enumerate() {
                    let (hits, cost) = match kind {
                        None => s.exact(&lo, &sets).expect("query"),
                        Some(_) => s.range(&lo, &hi, &sets).expect("query"),
                    };
                    sums[i] += cost.pages;
                    if rep == 0 {
                        // All four structures must agree.
                        let mut hits = hits;
                        hits.sort();
                        match &reference {
                            None => reference = Some(hits),
                            Some(r) => assert_eq!(&hits, r, "{} disagrees", s.name()),
                        }
                    }
                }
                reference = None;
            }
            print!("{k:>6}");
            for sum in &sums {
                print!("  {:>10.1}", *sum as f64 / reps as f64);
            }
            println!();
        }
    }
    // U-index scan-algorithm breakdown: the same skip-heavy range workload
    // under the parallel algorithm (skip-seeks re-descend from the lowest
    // retained ancestor) and the forward scan.
    println!("\n## U-index scan algorithm — range 10% of keyspace, avg per query");
    println!(
        "{:>6}  {:>12}  {:>10}  {:>10}  {:>10}",
        "sets", "algorithm", "pages", "visits", "descents"
    );
    let algos: [(ScanAlgorithm, &str); 2] = [
        (ScanAlgorithm::Parallel, "parallel"),
        (ScanAlgorithm::Forward, "forward"),
    ];
    let mut u = UIndexSet::build(num_sets, &postings).expect("build u-index");
    for k in [1u16, 2, 4, 8] {
        for (ai, (algo, name)) in algos.iter().enumerate() {
            u.use_algorithm(*algo);
            let mut sums = [0u64; 3]; // pages, visits, descents
            for rep in 0..reps {
                // Same seeds as the page-read tables above: identical queries.
                let mut rng = StdRng::seed_from_u64(1000 + rep as u64 * 7 + k as u64);
                let sets = pick_near(&mut rng, num_sets, k);
                let (lo, hi) = pick_range(&mut rng, 1000, 0.10);
                let (_, stats) = u.range_stats(&lo, &hi, &sets).expect("query");
                let counts = [stats.pages_read, stats.node_visits, stats.descents];
                for (sum, count) in sums.iter_mut().zip(counts) {
                    *sum += count;
                }
            }
            println!(
                "{:>6}  {:>12}  {:>10.1}  {:>10.1}  {:>10.1}",
                if ai == 0 {
                    k.to_string()
                } else {
                    String::new()
                },
                name,
                sums[0] as f64 / reps as f64,
                sums[1] as f64 / reps as f64,
                sums[2] as f64 / reps as f64,
            );
        }
    }

    // Whole-process U-index telemetry (both table sections feed it).
    let queries = telemetry::counter_value("uindex.query.count");
    let pages_h = telemetry::histogram("uindex.query.pages");
    println!(
        "\n## U-index telemetry registry — {queries} queries recorded, \
         {:.1} pages/query avg (histogram total {} over {} observations)",
        pages_h.sum() as f64 / pages_h.count().max(1) as f64,
        pages_h.sum(),
        pages_h.count()
    );

    println!(
        "\nExpected shapes (paper §4.4/§5): CH-tree best at exact match but pays the whole \
         key range regardless of sets; H-tree scales with queried sets only; CG-tree \
         compromises; the U-index is flat for exact match and wins ranges once most \
         sets are queried."
    );
}
