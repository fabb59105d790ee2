//! Differential-oracle sweep: on seeded random schemas/databases/queries,
//! the parallel scan, the forward scan, and the brute-force oracle must
//! agree exactly, and the parallel scan must never read more pages than
//! the forward scan. See `uindex::oracle` for the trial generator.

use uindex::oracle::run_trials;

#[test]
fn differential_oracle_60_trials() {
    let sum = run_trials(0xD1FF_0AC1_u64, 60);
    assert_eq!(sum.trials, 60);
    // Coverage sanity: the sweep must actually exercise the interesting
    // paths, not vacuously pass on empty databases.
    assert!(sum.queries >= 240, "too few queries: {sum:?}");
    assert!(sum.hits > 0, "no query ever matched: {sum:?}");
    assert!(
        sum.distinct_checks > 0,
        "distinct path never exercised: {sum:?}"
    );
    assert!(
        sum.branching_trials > 0,
        "no trial had a multi-path index: {sum:?}"
    );
}

#[test]
fn differential_oracle_alternate_seed() {
    let sum = run_trials(0x5EED_CAFE_F00D_u64, 25);
    assert_eq!(sum.trials, 25);
    assert!(sum.hits > 0, "no query ever matched: {sum:?}");
}
