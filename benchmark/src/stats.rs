//! Exact statistics over raw samples: nearest-rank percentiles (no
//! buckets) and the reduction of identical timed rounds to the reported
//! numbers.
//!
//! Every round replays the same operations in the same order, so operation
//! `i` is measured once per round. Its *typical latency* is the lower
//! quartile of those measurements. This box slows down by a third or more
//! for seconds at a time (a spin loop shows it with nothing else running);
//! a slow phase inflates whichever operations it overlaps, in some rounds,
//! and the lower quartile discards up to three quarters of an operation's
//! measurements before the result moves. What the operation itself costs —
//! its page misses, its checkpoint, its rows — is the same every round and
//! stays in.

/// One timed round: every operation's latency in nanoseconds, in stream
/// order (caller by caller), and the round's wall-clock time.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Closed-loop callers that shared the round's operations equally.
    pub callers: u64,
    pub wall_ns: u64,
    pub samples_ns: Vec<u64>,
}

/// The same rounds reduced the plain way, printed beside the metrics so
/// that the noise the typical latencies left out stays visible.
#[derive(Debug, Clone, PartialEq)]
pub struct Raw {
    /// Operations per wall-clock second of each round, in run order.
    pub per_round_ops_s: Vec<f64>,
    /// Percentiles over the pooled samples of all rounds.
    pub pooled_p50_us: f64,
    pub pooled_p99_us: f64,
}

/// What a set of identical timed rounds reduces to.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Closed-loop throughput at typical latency: each caller's operations
    /// divided by the sum of their typical latencies, summed over callers.
    pub throughput_ops_s: f64,
    /// Percentiles of typical latency over the round's operations.
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_round: usize,
    pub rounds: usize,
    pub raw: Raw,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` in (0, 1].
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of the samples in microseconds.
pub fn p50_us(samples_ns: &mut [u64]) -> f64 {
    samples_ns.sort_unstable();
    percentile(samples_ns, 0.50) as f64 / 1e3
}

/// Per operation, the lower quartile of its latencies across the rounds.
pub fn typical_ns(rounds: &[Round]) -> Vec<u64> {
    let ops = rounds[0].samples_ns.len();
    let mut column = Vec::with_capacity(rounds.len());
    (0..ops)
        .map(|i| {
            column.clear();
            column.extend(rounds.iter().map(|r| r.samples_ns[i]));
            column.sort_unstable();
            column[(column.len() - 1) / 4]
        })
        .collect()
}

pub fn summarize(rounds: &[Round]) -> Summary {
    assert!(!rounds.is_empty(), "no timed rounds");
    let ops = rounds[0].samples_ns.len();
    assert!(
        rounds.iter().all(|r| r.samples_ns.len() == ops),
        "rounds must be identical"
    );
    let mut typical = typical_ns(rounds);
    let busy_ns_per_caller = typical.iter().sum::<u64>() as f64 / rounds[0].callers as f64;
    typical.sort_unstable();

    let mut pooled: Vec<u64> = rounds
        .iter()
        .flat_map(|r| r.samples_ns.iter().copied())
        .collect();
    pooled.sort_unstable();
    Summary {
        throughput_ops_s: ops as f64 * 1e9 / busy_ns_per_caller,
        p50_us: percentile(&typical, 0.50) as f64 / 1e3,
        p99_us: percentile(&typical, 0.99) as f64 / 1e3,
        ops_per_round: ops,
        rounds: rounds.len(),
        raw: Raw {
            per_round_ops_s: rounds
                .iter()
                .map(|r| ops as f64 * 1e9 / r.wall_ns.max(1) as f64)
                .collect(),
            pooled_p50_us: percentile(&pooled, 0.50) as f64 / 1e3,
            pooled_p99_us: percentile(&pooled, 0.99) as f64 / 1e3,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_raw_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.001), 1);
        // No bucketing: a value between powers of two comes back exactly.
        assert_eq!(percentile(&[3, 700, 701, 1500], 0.5), 700);
        assert_eq!(percentile(&[42], 0.99), 42);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn round(callers: u64, wall_ns: u64, samples_ns: Vec<u64>) -> Round {
        Round {
            callers,
            wall_ns,
            samples_ns,
        }
    }

    #[test]
    fn typical_latency_is_the_lower_quartile_per_operation() {
        // Five rounds of three operations; a slow phase hits the second
        // round wholesale and one operation of the fourth.
        let rounds = [
            round(1, 0, vec![100, 200, 900]),
            round(1, 0, vec![150, 300, 1400]),
            round(1, 0, vec![101, 201, 901]),
            round(1, 0, vec![102, 290, 902]),
            round(1, 0, vec![103, 203, 903]),
        ];
        // Sorted columns; index (5 - 1) / 4 = 1 is the lower quartile.
        assert_eq!(typical_ns(&rounds), [101, 201, 901]);
        // Three rounds: index 0, the fastest.
        assert_eq!(typical_ns(&rounds[..3]), [100, 200, 900]);
    }

    #[test]
    fn rounds_reduce_to_typical_latency_numbers_with_the_raw_ones_beside() {
        let samples = |scale: u64| (1..=100).map(|i| i * scale).collect::<Vec<u64>>();
        // Four rounds of 100 operations by one caller; the last is twice as
        // slow throughout.
        let rounds = [
            round(1, 5_050_000, samples(1000)),
            round(1, 5_050_000, samples(1000)),
            round(1, 5_050_000, samples(1000)),
            round(1, 10_100_000, samples(2000)),
        ];
        let s = summarize(&rounds);
        // Typical latency of operation i is i µs; they sum to 5050 µs.
        assert_eq!(s.throughput_ops_s, 100.0 * 1e9 / 5_050_000.0);
        assert_eq!((s.p50_us, s.p99_us), (50.0, 99.0));
        assert_eq!((s.ops_per_round, s.rounds), (100, 4));
        // The raw view still shows the slow round.
        let fast = 100.0 * 1e9 / 5_050_000.0;
        assert_eq!(s.raw.per_round_ops_s, [fast, fast, fast, fast / 2.0]);
        assert_eq!(s.raw.pooled_p99_us, 192.0);

        // Two callers sharing the operations: each is busy for half the
        // summed latency, so throughput doubles.
        let two: Vec<Round> = rounds
            .iter()
            .map(|r| round(2, r.wall_ns, r.samples_ns.clone()))
            .collect();
        assert_eq!(summarize(&two).throughput_ops_s, 2.0 * fast);
    }
}
