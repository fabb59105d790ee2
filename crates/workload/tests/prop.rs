//! Property tests over the experiment harness itself: for random posting
//! sets and random queries, the U-index adapter, the CG-tree, the CH-tree
//! and the H-tree must all return exactly the brute-force result, and the
//! parallel and forward algorithms must agree.

use baselines::{CgConfig, CgTree, ChTree, HTree, SetId, SetIndex};
use objstore::Oid;
use proptest::prelude::*;
use uindex::ScanAlgorithm;
use workload::uniform::{key_bytes, UIndexSet};

#[derive(Debug, Clone)]
struct Case {
    num_sets: u16,
    postings: Vec<(u32, u16)>, // (key ordinal, set); oid = posting index
    queries: Vec<(u32, u32, Vec<u16>)>, // (lo, width, sets)
}

fn arb_case() -> impl Strategy<Value = Case> {
    (2u16..10, 1u32..60).prop_flat_map(|(num_sets, key_space)| {
        let posting = (0..key_space, 0..num_sets);
        let query = (
            0..key_space,
            1u32..=key_space,
            proptest::collection::vec(0..num_sets, 1..=num_sets as usize),
        );
        (
            proptest::collection::vec(posting, 0..300),
            proptest::collection::vec(query, 1..8),
        )
            .prop_map(move |(postings, queries)| Case {
                num_sets,
                postings,
                queries,
            })
    })
}

fn brute(
    postings: &[(Vec<u8>, SetId, Oid)],
    lo: &[u8],
    hi: &[u8],
    sets: &[SetId],
) -> Vec<(SetId, Oid)> {
    let mut out: Vec<(SetId, Oid)> = postings
        .iter()
        .filter(|(k, s, _)| k.as_slice() >= lo && k.as_slice() < hi && sets.contains(s))
        .map(|(_, s, o)| (*s, *o))
        .collect();
    out.sort();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_structures_agree_with_brute_force(case in arb_case()) {
        let mut postings: Vec<(Vec<u8>, SetId, Oid)> = case
            .postings
            .iter()
            .enumerate()
            .map(|(i, (k, s))| (key_bytes(*k), SetId(*s), Oid(i as u32 + 1)))
            .collect();
        postings.sort();

        let mut u = UIndexSet::build(case.num_sets, &postings).unwrap();
        let mut cg = CgTree::build(
            CgConfig { page_size: 256, pool_pages: 1 << 14 },
            &mut postings.clone(),
        )
        .unwrap();
        let mut ch = ChTree::build(256, 1 << 14, &mut postings.clone()).unwrap();
        let mut h = HTree::build(256, 1 << 14, &mut postings.clone()).unwrap();
        cg.check().unwrap();
        u.verify().unwrap();

        for (lo_ord, width, sets) in &case.queries {
            let mut sets: Vec<SetId> = sets.iter().map(|&s| SetId(s)).collect();
            sets.sort();
            sets.dedup();
            let lo = key_bytes(*lo_ord);
            let hi = key_bytes(lo_ord + width);
            let want = brute(&postings, &lo, &hi, &sets);
            let (got_u, _) = u.range(&lo, &hi, &sets).unwrap();
            prop_assert_eq!(&got_u, &want, "u-index range");
            let (got_cg, _) = cg.range(&lo, &hi, &sets).unwrap();
            prop_assert_eq!(&got_cg, &want, "cg range");
            let (got_ch, _) = ch.range(&lo, &hi, &sets).unwrap();
            prop_assert_eq!(&got_ch, &want, "ch range");
            let (got_h, _) = h.range(&lo, &hi, &sets).unwrap();
            prop_assert_eq!(&got_h, &want, "h range");

            // Exact match on the low key.
            let mut point_hi = lo.clone();
            point_hi.push(0);
            let want = brute(&postings, &lo, &point_hi, &sets);
            let (got_u, _) = u.exact(&lo, &sets).unwrap();
            prop_assert_eq!(&got_u, &want, "u-index exact");
            let (got_cg, _) = cg.exact(&lo, &sets).unwrap();
            prop_assert_eq!(&got_cg, &want, "cg exact");

            // Forward scan agreement + page-cost dominance.
            u.use_algorithm(ScanAlgorithm::Forward);
            let (fwd, fwd_cost) = u.range(&lo, &hi, &sets).unwrap();
            u.use_algorithm(ScanAlgorithm::Parallel);
            let (par, par_cost) = u.range(&lo, &hi, &sets).unwrap();
            prop_assert_eq!(fwd, par, "forward vs parallel");
            prop_assert!(par_cost.pages <= fwd_cost.pages);
        }
    }

    #[test]
    fn incremental_equals_bulk(case in arb_case()) {
        let mut postings: Vec<(Vec<u8>, SetId, Oid)> = case
            .postings
            .iter()
            .enumerate()
            .map(|(i, (k, s))| (key_bytes(*k), SetId(*s), Oid(i as u32 + 1)))
            .collect();
        postings.sort();

        let mut bulk = UIndexSet::build(case.num_sets, &postings).unwrap();
        let mut incr = UIndexSet::new(case.num_sets).unwrap();
        for (k, s, o) in &postings {
            incr.insert(k, *s, *o).unwrap();
        }
        let all: Vec<SetId> = (0..case.num_sets).map(SetId).collect();
        let (a, _) = bulk.range(&key_bytes(0), &key_bytes(u32::MAX), &all).unwrap();
        let (b, _) = incr.range(&key_bytes(0), &key_bytes(u32::MAX), &all).unwrap();
        prop_assert_eq!(a, b);
        // Removing a random half leaves the other half.
        let (keep, drop): (Vec<_>, Vec<_>) =
            postings.iter().enumerate().partition(|(i, _)| i % 2 == 0);
        for (_, (k, s, o)) in drop {
            prop_assert!(incr.remove(k, *s, *o).unwrap());
        }
        let (after, _) = incr.range(&key_bytes(0), &key_bytes(u32::MAX), &all).unwrap();
        let mut want: Vec<(SetId, Oid)> =
            keep.into_iter().map(|(_, (_, s, o))| (*s, *o)).collect();
        want.sort();
        prop_assert_eq!(after, want);
    }
}
