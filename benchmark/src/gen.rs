//! Seeded input generators. Everything the product is fed derives from
//! `--seed` through [`SplitMix64`]: same seed, same inputs.

/// SplitMix64: small, fast, and good enough to draw workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-32 for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The SplitMix64 finaliser; also the per-row hash of the answer checks.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An answer reduced to what the checks compare: the row count and an
/// order-independent 64-bit hash (wrapping sum of [`mix64`] over OIDs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    pub fn add(&mut self, oid: u32) {
        self.rows += 1;
        self.hash = self.hash.wrapping_add(mix64(oid as u64));
    }

    pub fn merge(&mut self, other: Digest) {
        self.rows += other.rows;
        self.hash = self.hash.wrapping_add(other.hash);
    }

    pub fn of(oids: impl IntoIterator<Item = u32>) -> Digest {
        let mut d = Digest::default();
        oids.into_iter().for_each(|o| d.add(o));
        d
    }
}

// ----- scan workloads --------------------------------------------------------

pub const SETS: u16 = 8;
pub const DISTINCT_KEYS: u32 = 1000;

/// The four query shapes of the scan mix, named as in `BENCH_disk.json`:
/// `<predicate>_k<queried sets>`; `range10` spans 10 % of the key space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    ExactK4,
    Range1K2,
    Range10K1,
    Range10K4,
}

impl Shape {
    pub const ALL: [Shape; 4] = [
        Shape::ExactK4,
        Shape::Range1K2,
        Shape::Range10K1,
        Shape::Range10K4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::ExactK4 => "exact_k4",
            Shape::Range1K2 => "range1_k2",
            Shape::Range10K1 => "range10_k1",
            Shape::Range10K4 => "range10_k4",
        }
    }

    /// (key-space span in permille, or 0 for an exact probe; queried sets).
    fn geometry(self) -> (u32, u16) {
        match self {
            Shape::ExactK4 => (0, 4),
            Shape::Range1K2 => (10, 2),
            Shape::Range10K1 => (100, 1),
            Shape::Range10K4 => (100, 4),
        }
    }
}

/// One scan query over key ordinals `lo..hi` and the listed sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanQuery {
    pub shape: Shape,
    pub lo: u32,
    pub hi: u32,
    pub sets: Vec<u16>,
}

/// How many queries of each shape one round runs, in [`Shape::ALL`] order.
pub type ScanMix = [usize; 4];

/// The round's query stream: the mix's counts per shape, seeded start keys
/// and set windows, shuffled so shapes interleave.
pub fn scan_stream(mix: ScanMix, seed: u64) -> Vec<ScanQuery> {
    let mut rng = SplitMix64::new(seed ^ 0x5CA9_0000);
    let mut out = Vec::with_capacity(mix.iter().sum());
    for (shape, &count) in Shape::ALL.iter().zip(&mix) {
        let (permille, k) = shape.geometry();
        for _ in 0..count {
            let span = (DISTINCT_KEYS * permille / 1000).max(1);
            let lo = rng.below((DISTINCT_KEYS - span + 1) as u64) as u32;
            let first = rng.below(SETS as u64) as u16;
            let mut sets: Vec<u16> = (0..k).map(|i| (first + i) % SETS).collect();
            sets.sort_unstable();
            out.push(ScanQuery {
                shape: *shape,
                lo,
                hi: lo + span,
                sets,
            });
        }
    }
    rng.shuffle(&mut out);
    out
}

/// Truth for the scan workloads, from one sweep of the raw postings: the
/// digest of every (key ordinal, set) cell. A query's expected answer is
/// the merge of the cells it covers — the engine computes none of it.
pub struct ScanTruth {
    cells: Vec<Digest>,
}

impl ScanTruth {
    pub fn from_postings(postings: impl Iterator<Item = (u32, u16, u32)>) -> ScanTruth {
        let mut cells = vec![Digest::default(); (DISTINCT_KEYS * SETS as u32) as usize];
        for (key, set, oid) in postings {
            cells[(key * SETS as u32 + set as u32) as usize].add(oid);
        }
        ScanTruth { cells }
    }

    pub fn expect(&self, q: &ScanQuery) -> Digest {
        let mut d = Digest::default();
        for key in q.lo..q.hi {
            for &set in &q.sets {
                d.merge(self.cells[(key * SETS as u32 + set as u32) as usize]);
            }
        }
        d
    }
}

// ----- serve and commit workloads -------------------------------------------

pub const COMPANIES: usize = 25;
pub const VEHICLE_CLASSES: usize = 12;
pub const COLORS: usize = 10;

/// One generated vehicle; its `Serial` is its index in the population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vehicle {
    pub class: u8,
    pub color: u8,
    pub company: u8,
}

/// The vehicle database as generated, before the product sees it. Company
/// `c`'s president has age `ages[c]`; the ages are distinct, so an `age:`
/// statement selects whole companies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Population {
    pub ages: [i64; COMPANIES],
    pub vehicles: Vec<Vehicle>,
}

pub fn population(vehicles: usize, seed: u64) -> Population {
    let mut rng = SplitMix64::new(seed ^ 0xB0B0_0000);
    let mut ages: [i64; COMPANIES] = std::array::from_fn(|i| 30 + i as i64);
    rng.shuffle(&mut ages);
    let vehicles = (0..vehicles)
        .map(|_| Vehicle {
            class: rng.below(VEHICLE_CLASSES as u64) as u8,
            color: rng.below(COLORS as u64) as u8,
            company: rng.below(COMPANIES as u64) as u8,
        })
        .collect();
    Population { ages, vehicles }
}

/// A UQL statement the serve workloads send, by what it selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Statement {
    /// `serial: Serial = k`
    SerialEq(u32),
    /// `serial: Serial between lo and hi` (inclusive)
    SerialBetween(u32, u32),
    /// `age: Age = a`
    AgeEq(i64),
}

impl Statement {
    pub fn uql(&self) -> String {
        match self {
            Statement::SerialEq(k) => format!("serial: Serial = {k}"),
            Statement::SerialBetween(lo, hi) => format!("serial: Serial between {lo} and {hi}"),
            Statement::AgeEq(a) => format!("age: Age = {a}"),
        }
    }

    /// The answer known by construction: `oids[s]` is the OID the product
    /// assigned to the vehicle with serial `s`.
    pub fn expect(&self, pop: &Population, oids: &[u32]) -> Digest {
        match *self {
            Statement::SerialEq(k) => Digest::of([oids[k as usize]]),
            Statement::SerialBetween(lo, hi) => {
                Digest::of(oids[lo as usize..=hi as usize].iter().copied())
            }
            Statement::AgeEq(a) => Digest::of(
                pop.vehicles
                    .iter()
                    .zip(oids)
                    .filter(|(v, _)| pop.ages[v.company as usize] == a)
                    .map(|(_, &oid)| oid),
            ),
        }
    }
}

/// `count` distinct values below `below`, ascending.
fn distinct_starts(rng: &mut SplitMix64, count: usize, below: u64) -> Vec<u32> {
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < count {
        seen.insert(rng.below(below) as u32);
    }
    seen.into_iter().collect()
}

/// `serve_point`'s pool: `points` distinct unique-key probes followed by
/// `ranges` distinct 10-row ranges. Drawn 4:1 by [`point_stream`].
pub fn point_pool(vehicles: usize, points: usize, ranges: usize, seed: u64) -> Vec<Statement> {
    let mut rng = SplitMix64::new(seed ^ 0x901D_0000);
    let mut pool: Vec<Statement> = distinct_starts(&mut rng, points, vehicles as u64)
        .into_iter()
        .map(Statement::SerialEq)
        .collect();
    pool.extend(
        distinct_starts(&mut rng, ranges, vehicles as u64 - 10)
            .into_iter()
            .map(|lo| Statement::SerialBetween(lo, lo + 9)),
    );
    pool
}

/// Indices into a [`point_pool`] of `points` probes then `ranges` ranges:
/// four probes for every range.
pub fn point_stream(points: usize, ranges: usize, ops: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ 0x57E4_0000);
    (0..ops)
        .map(|_| {
            if rng.below(5) < 4 {
                rng.below(points as u64) as u32
            } else {
                (points as u64 + rng.below(ranges as u64)) as u32
            }
        })
        .collect()
}

/// `serve_rows`' pool: `size` distinct statements of about
/// `vehicles / COMPANIES` rows each — serial ranges of exactly that many
/// rows, and one `age:` statement per company for the last quarter.
pub fn rows_pool(vehicles: usize, size: usize, pop: &Population, seed: u64) -> Vec<Statement> {
    let mut rng = SplitMix64::new(seed ^ 0x4075_0000);
    let rows = (vehicles / COMPANIES) as u32;
    let by_age = (size / 4).min(COMPANIES);
    let mut pool: Vec<Statement> =
        distinct_starts(&mut rng, size - by_age, (vehicles as u32 - rows) as u64)
            .into_iter()
            .map(|lo| Statement::SerialBetween(lo, lo + rows - 1))
            .collect();
    pool.extend(pop.ages[..by_age].iter().map(|&a| Statement::AgeEq(a)));
    pool
}

/// Uniform indices into a pool of `size` statements.
pub fn uniform_stream(size: usize, ops: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed ^ 0x57E5_0000);
    (0..ops).map(|_| rng.below(size as u64) as u32).collect()
}

/// A colour other than `current`.
fn other_color(current: u8, rng: &mut SplitMix64) -> u8 {
    ((current as u64 + 1 + rng.below(COLORS as u64 - 1)) % COLORS as u64) as u8
}

/// `commit_disk`'s lasting updates (warm-up, and the tail before the
/// crash): (vehicle serial, new colour), the colour always different from
/// the vehicle's current one so that every commit changes the `color`
/// index. Advances `colors` (the shadow map) as it goes.
pub fn recolor_stream(colors: &mut [u8], ops: usize, rng: &mut SplitMix64) -> Vec<(u32, u8)> {
    (0..ops)
        .map(|_| {
            let v = rng.below(colors.len() as u64) as usize;
            colors[v] = other_color(colors[v], rng);
            (v as u32, colors[v])
        })
        .collect()
}

/// `commit_disk`'s timed round, the same every time it runs: recolour
/// `ops / 2` distinct vehicles, then give each its colour back. The
/// database ends a round as it began it, so per-commit counts and the final
/// size do not depend on how many rounds fit the run.
pub fn restoring_round(colors: &[u8], ops: usize, rng: &mut SplitMix64) -> Vec<(u32, u8)> {
    let vehicles = distinct_starts(rng, ops / 2, colors.len() as u64);
    let there = vehicles
        .iter()
        .map(|&v| (v, other_color(colors[v as usize], rng)));
    let back = vehicles.iter().map(|&v| (v, colors[v as usize]));
    there.collect::<Vec<_>>().into_iter().chain(back).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: ScanMix = [50, 10, 5, 5];

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(scan_stream(MIX, 7), scan_stream(MIX, 7));
        assert_ne!(scan_stream(MIX, 7), scan_stream(MIX, 8));
        assert_eq!(population(500, 7), population(500, 7));
        assert_ne!(population(500, 7), population(500, 8));
        assert_eq!(point_pool(500, 32, 8, 7), point_pool(500, 32, 8, 7));
        assert_ne!(point_pool(500, 32, 8, 7), point_pool(500, 32, 8, 8));
        assert_eq!(point_stream(32, 8, 100, 7), point_stream(32, 8, 100, 7));
        assert_ne!(point_stream(32, 8, 100, 7), point_stream(32, 8, 100, 8));
        assert_eq!(uniform_stream(16, 100, 7), uniform_stream(16, 100, 7));
        assert_ne!(uniform_stream(16, 100, 7), uniform_stream(16, 100, 8));
        let recolor = |seed| {
            let mut colors = vec![0u8; 50];
            recolor_stream(&mut colors, 100, &mut SplitMix64::new(seed))
        };
        assert_eq!(recolor(7), recolor(7));
        assert_ne!(recolor(7), recolor(8));
    }

    #[test]
    fn scan_stream_has_the_mix_and_stays_in_the_key_space() {
        let stream = scan_stream(MIX, 1);
        for (shape, want) in Shape::ALL.iter().zip(MIX) {
            assert_eq!(stream.iter().filter(|q| q.shape == *shape).count(), want);
        }
        for q in &stream {
            assert!(q.lo < q.hi && q.hi <= DISTINCT_KEYS, "{q:?}");
            assert!(q.sets.windows(2).all(|w| w[0] < w[1]), "{q:?}");
            assert!(q.sets.iter().all(|&s| s < SETS));
        }
        assert_eq!(stream.iter().filter(|q| q.hi - q.lo == 100).count(), 10);
    }

    #[test]
    fn scan_truth_sums_the_covered_cells() {
        // oid = 1 + index; key = index % 1000; set = index % 8.
        let postings = (0..16_000u32).map(|i| (i % 1000, (i % 8) as u16, i + 1));
        let truth = ScanTruth::from_postings(postings);
        let q = ScanQuery {
            shape: Shape::Range1K2,
            lo: 8,
            hi: 10,
            sets: vec![0, 1],
        };
        // key 8 is only ever in set 0 (8 % 8), key 9 only in set 1.
        let want = Digest::of(
            (0..16_000u32)
                .filter(|i| matches!((i % 1000, i % 8), (8, 0) | (9, 1)))
                .map(|i| i + 1),
        );
        assert_eq!(truth.expect(&q), want);
        assert_eq!(want.rows, 32);
    }

    #[test]
    fn pools_are_distinct_and_sized() {
        let pop = population(5000, 3);
        let points = point_pool(5000, 64, 16, 3);
        assert_eq!(points.len(), 80);
        let texts: std::collections::BTreeSet<String> = points.iter().map(|s| s.uql()).collect();
        assert_eq!(texts.len(), 80, "statements must be distinct");
        let oids: Vec<u32> = (0..5000).map(|s| 1000 + s).collect();
        for s in &points[64..] {
            assert_eq!(s.expect(&pop, &oids).rows, 10);
        }
        let rows = rows_pool(5000, 16, &pop, 3);
        assert_eq!(rows.len(), 16);
        for s in &rows[..12] {
            assert_eq!(s.expect(&pop, &oids).rows, 200);
        }
        let by_age: u64 = rows[12..].iter().map(|s| s.expect(&pop, &oids).rows).sum();
        assert!((600..1000).contains(&by_age), "4 of 25 companies: {by_age}");
    }

    #[test]
    fn point_stream_draws_four_probes_per_range() {
        let stream = point_stream(64, 16, 10_000, 5);
        let ranges = stream.iter().filter(|&&i| i >= 64).count();
        assert!((1800..2200).contains(&ranges), "{ranges}");
        assert!(stream.iter().all(|&i| i < 80));
    }

    #[test]
    fn restoring_round_changes_then_restores() {
        let colors: Vec<u8> = (0..100).map(|i| (i % 10) as u8).collect();
        let round = restoring_round(&colors, 40, &mut SplitMix64::new(4));
        assert_eq!(round.len(), 40);
        let mut now = colors.clone();
        for (i, &(v, c)) in round.iter().enumerate() {
            assert_ne!(now[v as usize], c, "update {i} must change the colour");
            now[v as usize] = c;
        }
        assert_eq!(now, colors);
        let touched: std::collections::BTreeSet<u32> = round.iter().map(|u| u.0).collect();
        assert_eq!(touched.len(), 20);
    }

    #[test]
    fn recolor_always_changes_the_colour() {
        let mut colors = vec![3u8; 20];
        let before = colors.clone();
        let mut shadow = before.clone();
        for (v, c) in recolor_stream(&mut colors, 200, &mut SplitMix64::new(9)) {
            assert_ne!(shadow[v as usize], c);
            assert!((c as usize) < COLORS);
            shadow[v as usize] = c;
        }
        assert_eq!(shadow, colors);
    }
}
