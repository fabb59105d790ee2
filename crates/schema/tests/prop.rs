//! Property-based tests for the fractional-index components and the
//! class-code encoding: the paper's two ordering properties must hold for
//! arbitrary schemas and arbitrary evolution sequences.

use std::collections::HashSet;

use proptest::prelude::*;
use schema::{frac, AttrType, ClassId, Encoding, Schema};

// ---------- frac ------------------------------------------------------------

proptest! {
    /// Repeated insertion at random gaps keeps every component valid and
    /// the order intact.
    #[test]
    fn frac_random_insertions(positions in proptest::collection::vec(0usize..=100, 1..60)) {
        let mut comps: Vec<Vec<u8>> = Vec::new();
        for p in positions {
            let i = p % (comps.len() + 1);
            let lo = if i == 0 { None } else { Some(comps[i - 1].as_slice()) };
            let hi = comps.get(i).map(|v| v.as_slice());
            let c = frac::between(lo, hi);
            prop_assert!(frac::is_valid(&c));
            if let Some(lo) = lo {
                prop_assert!(lo < c.as_slice());
            }
            if let Some(hi) = hi {
                prop_assert!(c.as_slice() < hi);
            }
            comps.insert(i, c);
        }
        for w in comps.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}

// ---------- encoding over random schemas ------------------------------------

/// A recipe for a random schema: a forest shape plus REF edges that are
/// forced acyclic by always referencing a *lower-numbered* root.
#[derive(Debug, Clone)]
struct SchemaRecipe {
    /// parent[i] for class i: None = new root, Some(j < i) = subclass of j.
    parents: Vec<Option<usize>>,
    /// REF edges as (source class, target class) index pairs; constrained
    /// to source-root > target-root at generation.
    refs: Vec<(usize, usize)>,
}

fn arb_recipe() -> impl Strategy<Value = SchemaRecipe> {
    (2usize..25).prop_flat_map(|n| {
        let parents = (0..n)
            .map(|i| {
                if i == 0 {
                    Just(None).boxed()
                } else {
                    prop_oneof![
                        1 => Just(None),
                        3 => (0..i).prop_map(Some),
                    ]
                    .boxed()
                }
            })
            .collect::<Vec<_>>();
        (parents, proptest::collection::vec((0..n, 0..n), 0..n))
            .prop_map(|(parents, refs)| SchemaRecipe { parents, refs })
    })
}

fn build_schema(recipe: &SchemaRecipe) -> (Schema, Vec<ClassId>) {
    let mut s = Schema::new();
    let mut ids = Vec::new();
    for (i, p) in recipe.parents.iter().enumerate() {
        let id = match p {
            None => s.add_class(&format!("C{i}")).unwrap(),
            Some(j) => s.add_subclass(&format!("C{i}"), ids[*j]).unwrap(),
        };
        ids.push(id);
    }
    // Make REF edges acyclic by orienting them from the higher root index
    // to the lower (self-root edges are fine: intra-hierarchy).
    let root_index = |s: &Schema, ids: &[ClassId], c: usize| -> usize {
        let root = s.hierarchy_root(ids[c]);
        ids.iter().position(|&x| x == root).unwrap()
    };
    for (k, (a, b)) in recipe.refs.iter().enumerate() {
        let (src, tgt) = if root_index(&s, &ids, *a) >= root_index(&s, &ids, *b) {
            (*a, *b)
        } else {
            (*b, *a)
        };
        s.add_attr(ids[src], &format!("ref{k}"), AttrType::Ref(ids[tgt]))
            .unwrap();
    }
    (s, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any acyclic schema: pre-order equals code order in every
    /// hierarchy; REF targets sort before sources; sub-tree ranges isolate
    /// exactly the descendants.
    #[test]
    fn encoding_properties_hold(recipe in arb_recipe()) {
        let (s, ids) = build_schema(&recipe);
        let enc = Encoding::generate(&s).unwrap();
        enc.verify(&s, &HashSet::new()).unwrap();
        // Sub-tree ranges isolate descendants, for every class.
        for &c in &ids {
            let (lo, hi) = enc.range(c, true).unwrap();
            for &d in &ids {
                let code = enc.code(d).unwrap().as_bytes();
                let inside = code >= lo.as_slice() && code < hi.as_slice();
                prop_assert_eq!(inside, s.is_subclass_of(d, c), "{:?} in {:?}", d, c);
            }
        }
        // Codes are unique and the reverse map agrees.
        let mut seen = HashSet::new();
        for &c in &ids {
            let code = enc.code(c).unwrap().as_bytes().to_vec();
            prop_assert!(seen.insert(code.clone()));
            prop_assert_eq!(enc.class_by_code(&code), Some(c));
        }
    }

    /// Evolution: adding classes one at a time (to existing hierarchies)
    /// never changes existing codes and keeps all properties.
    #[test]
    fn evolution_preserves_codes(
        recipe in arb_recipe(),
        additions in proptest::collection::vec(0usize..20, 1..10),
    ) {
        let (mut s, mut ids) = build_schema(&recipe);
        let mut enc = Encoding::generate(&s).unwrap();
        for (step, pick) in additions.into_iter().enumerate() {
            let before: Vec<Vec<u8>> = ids
                .iter()
                .map(|&c| enc.code(c).unwrap().as_bytes().to_vec())
                .collect();
            let parent = ids[pick % ids.len()];
            let id = s.add_subclass(&format!("new{step}"), parent).unwrap();
            enc.assign_class(&s, id).unwrap();
            ids.push(id);
            // No existing code changed.
            for (i, &c) in ids[..ids.len() - 1].iter().enumerate() {
                prop_assert_eq!(enc.code(c).unwrap().as_bytes(), before[i].as_slice());
            }
            // The new code sits inside its parent's region.
            let (lo, hi) = enc.range(parent, true).unwrap();
            let code = enc.code(id).unwrap().as_bytes();
            prop_assert!(code >= lo.as_slice() && code < hi.as_slice());
            enc.verify(&s, &HashSet::new()).unwrap();
        }
    }

    /// Evolution: a new root that references an existing class, is
    /// referenced by one, or both, gets a code no other class holds — or,
    /// when the two bounds cross, `NoRoomForRoot` — and keeps all
    /// properties.
    #[test]
    fn new_roots_take_codes_of_their_own(
        recipe in arb_recipe(),
        additions in proptest::collection::vec((0usize..40, 0usize..40, 0u8..3), 1..10),
    ) {
        let (mut s, mut ids) = build_schema(&recipe);
        let mut enc = Encoding::generate(&s).unwrap();
        for (step, (target, source, sides)) in additions.into_iter().enumerate() {
            let id = s.add_class(&format!("root{step}")).unwrap();
            if sides != 1 {
                let target = ids[target % ids.len()];
                s.add_attr(id, "To", AttrType::Ref(target)).unwrap();
            }
            if sides != 0 {
                let source = ids[source % ids.len()];
                s.add_attr(source, &format!("to{step}"), AttrType::Ref(id)).unwrap();
            }
            match enc.assign_class(&s, id) {
                Ok(_) => ids.push(id),
                Err(schema::Error::NoRoomForRoot(_)) if sides == 2 => break,
                Err(e) => panic!("step {step}: {e}"),
            }
            prop_assert_eq!(enc.iter().count(), ids.len(), "one class per code");
            enc.verify(&s, &HashSet::new()).unwrap();
        }
    }
}
