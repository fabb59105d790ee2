//! `scan_warm` and `scan_cold`: one embedded caller runs a fixed mix of
//! exact probes and ranges against a bulk-loaded U-index — in memory with
//! the pool larger than the index, or on the disk stack behind a pool of a
//! tenth of it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::gen::{scan_stream, Digest, ScanMix, ScanQuery, ScanTruth, Shape};
use crate::harness::{
    ns_per_call, repeat_setup, run_rounds, telemetry_layers, timed, trace_overhead_frac, Ctx,
    Outcome, ScratchDir, Tally,
};
use crate::stats::{self, Round};
use crate::sut::{self, PageStore, Postings, ScanIndex, TreeProbe};
use crate::trace::Recorder;

/// Frozen sizes. `mix` is queries per round per shape, in `Shape::ALL`
/// order: an eighth of the issue's starting point, so that a ten-second run
/// measures every query eight times on disk and sixteen in memory.
struct Sizes {
    postings: u32,
    mix: ScanMix,
    cold_pool_pages: usize,
    setups: usize,
}

const FULL: Sizes = Sizes {
    postings: 1_000_000,
    mix: [250, 50, 25, 25],
    cold_pool_pages: 512,
    setups: 3,
};

const SMOKE: Sizes = Sizes {
    postings: 50_000,
    mix: [40, 8, 4, 4],
    cold_pool_pages: 32,
    setups: 1,
};

pub fn run_warm(ctx: &Ctx) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    run(ctx, sizes, "MemStore, pool 131072 pages", |postings, _| {
        timed(|| (sut::build_warm(postings), None))
    })
}

pub fn run_cold(ctx: &Ctx) -> Outcome {
    let sizes = if ctx.smoke { &SMOKE } else { &FULL };
    let store = format!("disk stack, pool {} pages", sizes.cold_pool_pages);
    run(ctx, sizes, &store, |postings, attempt| {
        let dir = ctx.scratch(&format!("index{attempt}"));
        let (index, secs) = timed(|| sut::build_cold(postings, dir.path(), sizes.cold_pool_pages));
        ((index, Some(dir)), secs)
    })
}

/// A built index and, on disk, the directory that must outlive it.
type Built<P> = (ScanIndex<P>, Option<ScratchDir>);

/// The round's inputs, planned once.
struct Stream {
    queries: Vec<ScanQuery>,
    planned: Vec<sut::Query>,
    expected: Vec<Digest>,
}

fn run<P: PageStore>(
    ctx: &Ctx,
    sizes: &Sizes,
    store: &str,
    build: impl Fn(&Postings, usize) -> (Built<P>, f64),
) -> Outcome {
    let postings = Postings::generate(sizes.postings, ctx.seed);
    let truth = ScanTruth::from_postings(postings.cells());
    let mut attempt = 0;
    let ((index, _dir), setup_s) = repeat_setup(sizes.setups, || {
        attempt += 1;
        build(&postings, attempt)
    });
    drop(postings);

    let queries = scan_stream(sizes.mix, ctx.seed);
    let stream = Stream {
        planned: queries.iter().map(|q| index.plan(q)).collect(),
        expected: queries.iter().map(|q| truth.expect(q)).collect(),
        queries,
    };

    let mut tally = Tally::default();
    let mut recorder = Recorder::new(Instant::now());
    let mut next_op = 0u64;
    // Warm-up: fills the pool (as far as it goes) and the allocator.
    one_round(
        &index,
        &stream,
        &mut Tally::default(),
        &mut recorder,
        &mut next_op,
    );

    let pages_before = sut::counter("uindex.scan.pages");
    let rounds = run_rounds(ctx, |traced| {
        recorder.enabled = traced;
        one_round(&index, &stream, &mut tally, &mut recorder, &mut next_op)
    });
    let pages = sut::counter("uindex.scan.pages") - pages_before;
    let summary = stats::summarize(&rounds.untraced);

    let mut layers = BTreeMap::new();
    if ctx.trace {
        layers.insert("trace.overhead_frac", trace_overhead_frac(&rounds));
        ctx.write_trace(std::slice::from_ref(&recorder));
        shape_pass(&index, &stream, &mut layers);
        telemetry_layers(&mut layers, ctx.smoke);
    }
    let space_bytes_per_object = index.stored_bytes() as f64 / sizes.postings as f64;
    if ctx.trace {
        tree_passes(&index.into_tree(), &mut layers);
    }

    Outcome {
        tally,
        summary,
        setup_s,
        pages_per_op: pages as f64 / tally.attempted as f64,
        space_bytes_per_object,
        layers,
        sizes: format!(
            "{} postings, {} sets, {} distinct keys, 1 KiB pages, {store}; per round {:?} of \
             {:?}; 1 caller thread; set-up = bulk load (+ checkpoint, close, reopen on disk), \
             median of {}",
            sizes.postings,
            crate::gen::SETS,
            crate::gen::DISTINCT_KEYS,
            sizes.mix,
            Shape::ALL.map(Shape::name),
            sizes.setups,
        ),
    }
}

/// One pass over the stream: time each query, then check its answer. The
/// round's wall time is the time spent in queries — the caller has no
/// think time, and the checks are the benchmark's, not the caller's.
fn one_round<P: PageStore>(
    index: &ScanIndex<P>,
    stream: &Stream,
    tally: &mut Tally,
    rec: &mut Recorder,
    next_op: &mut u64,
) -> Round {
    let mut round = Round {
        callers: 1,
        wall_ns: 0,
        samples_ns: Vec::with_capacity(stream.planned.len()),
    };
    for (q, want) in stream.planned.iter().zip(&stream.expected) {
        let op = *next_op;
        *next_op += 1;
        let op_span = rec.begin("op", op);
        let query_span = rec.begin("uindex.query", op);
        let start = Instant::now();
        let answer = index.query(q);
        let ns = start.elapsed().as_nanos() as u64;
        rec.end(query_span);
        round.wall_ns += ns;
        round.samples_ns.push(ns);

        let verify_span = rec.begin("verify", op);
        tally.attempted += 1;
        match answer {
            Ok(hits) if hits.digest() == *want => {}
            Ok(_) => {
                tally.failed += 1;
                tally.wrong += 1;
            }
            Err(_) => tally.failed += 1,
        }
        rec.end(verify_span);
        rec.end(op_span);
    }
    round
}

/// The `uindex.scan.*` counters this thread has accumulated.
#[derive(Clone, Copy)]
struct ScanCounters {
    entries: u64,
    matches: u64,
    skips: u64,
    node_visits: u64,
    descents: u64,
    reseek_depth: u64,
    pool_hits: u64,
    pool_misses: u64,
    evictions: u64,
}

impl ScanCounters {
    fn read() -> ScanCounters {
        ScanCounters {
            entries: sut::counter("uindex.scan.entries_examined"),
            matches: sut::counter("uindex.scan.matches"),
            skips: sut::counter("uindex.scan.skips"),
            node_visits: sut::counter("uindex.scan.node_visits"),
            descents: sut::counter("uindex.scan.descents"),
            reseek_depth: sut::counter("uindex.scan.reseek_depth"),
            pool_hits: sut::counter("pagestore.pool.hits"),
            pool_misses: sut::counter("pagestore.pool.misses"),
            evictions: sut::counter("pagestore.pool.evictions"),
        }
    }
}

/// One more pass over the stream, reading the product's counters around
/// it and the entries-examined counter around each query: per-shape cost
/// per entry, and the exact per-operation counts of the scan, B-tree and
/// pool layers.
fn shape_pass<P: PageStore>(
    index: &ScanIndex<P>,
    stream: &Stream,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let mut ns = [0u64; 4];
    let mut entries = [0u64; 4];
    let mut samples: [Vec<u64>; 4] = Default::default();
    let before = ScanCounters::read();
    for (q, planned) in stream.queries.iter().zip(&stream.planned) {
        let shape = Shape::ALL
            .iter()
            .position(|s| *s == q.shape)
            .expect("shape");
        let entries_before = sut::counter("uindex.scan.entries_examined");
        let start = Instant::now();
        let answer = index.query(planned);
        let took = start.elapsed().as_nanos() as u64;
        drop(answer);
        ns[shape] += took;
        samples[shape].push(took);
        entries[shape] += sut::counter("uindex.scan.entries_examined") - entries_before;
    }
    let after = ScanCounters::read();
    let ops = stream.planned.len() as f64;
    let per_op = |a: u64, b: u64| (a - b) as f64 / ops;

    const NS_PER_ENTRY: [&str; 4] = [
        "uindex.scan.exact_k4.ns_per_entry",
        "uindex.scan.range1_k2.ns_per_entry",
        "uindex.scan.range10_k1.ns_per_entry",
        "uindex.scan.range10_k4.ns_per_entry",
    ];
    const P50_US: [&str; 4] = [
        "uindex.scan.exact_k4.p50_us",
        "uindex.scan.range1_k2.p50_us",
        "uindex.scan.range10_k1.p50_us",
        "uindex.scan.range10_k4.p50_us",
    ];
    for shape in 0..4 {
        layers.insert(
            NS_PER_ENTRY[shape],
            ns[shape] as f64 / entries[shape].max(1) as f64,
        );
        layers.insert(P50_US[shape], stats::p50_us(&mut samples[shape]));
    }
    layers.insert(
        "uindex.scan.entries_per_result",
        (after.entries - before.entries) as f64 / (after.matches - before.matches).max(1) as f64,
    );
    layers.insert(
        "uindex.scan.skips_per_op",
        per_op(after.skips, before.skips),
    );
    layers.insert(
        "btree.node_visits_per_op",
        per_op(after.node_visits, before.node_visits),
    );
    layers.insert(
        "btree.descents_per_op",
        per_op(after.descents, before.descents),
    );
    layers.insert(
        "btree.reseek_depth_per_op",
        per_op(after.reseek_depth, before.reseek_depth),
    );
    let hits = after.pool_hits - before.pool_hits;
    let misses = after.pool_misses - before.pool_misses;
    layers.insert(
        "pagestore.pool.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.insert("pagestore.pool.physical_reads_per_op", misses as f64 / ops);
    layers.insert(
        "pagestore.pool.evictions_per_op",
        per_op(after.evictions, before.evictions),
    );
}

/// Single-layer passes over the loaded tree: the cursor floor under any
/// scan, root-to-leaf seeks, pool fetches that hit and that miss, and
/// `Node::decode` on the real leaf bytes.
fn tree_passes<P: PageStore>(tree: &TreeProbe<P>, layers: &mut BTreeMap<&'static str, f64>) {
    let (pass, secs) = timed(|| tree.cursor_pass(997));
    layers.insert(
        "btree.cursor.ns_per_entry",
        secs * 1e9 / pass.entries.max(1) as f64,
    );
    layers.insert(
        "btree.node.entries_per_leaf",
        pass.entries as f64 / pass.leaves.len().max(1) as f64,
    );
    let keys = &pass.sample_keys;
    layers.insert(
        "btree.seek_ns",
        ns_per_call(keys.len() as u64 * 4, |i| {
            tree.seek(&keys[i as usize % keys.len()])
        }),
    );

    // Hits: a handful of leaves, fetched once to make them resident.
    let hot = &pass.leaves[..pass.leaves.len().min(16)];
    hot.iter().for_each(|&id| tree.fetch(id));
    let hit_ns = ns_per_call(200_000, |i| tree.fetch(hot[i as usize % hot.len()]));
    layers.insert("pagestore.pool.fetch_hit_ns", hit_ns);

    // Misses: every leaf in key order, twice. With the pool smaller than
    // the leaf level each fetch evicts and reads; what share really missed
    // comes from the pool's own counter, and the hits' share is taken out.
    let misses_before = sut::counter("pagestore.pool.misses");
    let fetches = pass.leaves.len() as u64 * 2;
    let mixed_ns = ns_per_call(fetches, |i| {
        tree.fetch(pass.leaves[i as usize % pass.leaves.len()])
    });
    let miss_share =
        (sut::counter("pagestore.pool.misses") - misses_before) as f64 / fetches as f64;
    let miss_ns = if miss_share > 0.0 {
        ((mixed_ns - (1.0 - miss_share) * hit_ns) / miss_share).max(0.0)
    } else {
        0.0
    };
    layers.insert("pagestore.pool.fetch_miss_ns", miss_ns);

    let pages: Vec<Vec<u8>> = pass
        .leaves
        .iter()
        .take(256)
        .map(|&id| tree.page_bytes(id))
        .collect();
    layers.insert(
        "btree.node.decode_ns",
        ns_per_call(pages.len() as u64 * 20, |i| {
            std::hint::black_box(sut::decode_node(&pages[i as usize % pages.len()]));
        }),
    );
}
