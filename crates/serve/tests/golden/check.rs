//! Shared by `contract_golden.rs` here and `crates/cli/tests/top_golden.rs`
//! (via `#[path]`): reduce a JSON reply to its sorted key paths and compare
//! them with a golden file in this directory.

use std::collections::BTreeSet;
use std::path::Path;

use telemetry::json::{self, Json};

/// Sorted key paths of a JSON document: objects contribute `a.b`, arrays
/// `a[]` (all elements folded together). The registry maps under a Trace
/// reply's `delta` (`counters`/`gauges`/`histograms`) are keyed by metric
/// *name* — data, not schema: which metrics a query moves depends on the
/// query — so the walk stops at them.
fn key_paths(doc: &Json) -> BTreeSet<String> {
    fn walk(v: &Json, path: &str, out: &mut BTreeSet<String>) {
        match v {
            Json::Obj(members) => {
                for (k, child) in members {
                    let p = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    out.insert(p.clone());
                    if path != "delta" {
                        walk(child, &p, out);
                    }
                }
            }
            Json::Arr(items) => {
                let p = format!("{path}[]");
                for item in items {
                    walk(item, &p, out);
                }
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    walk(doc, "", &mut out);
    out
}

/// Assert that `doc`'s key paths are exactly the lines of `golden_dir/name`.
/// With `bless` set the file is rewritten instead.
pub fn check_golden(golden_dir: &Path, name: &str, doc: &str, bless: bool) {
    let actual: Vec<String> = key_paths(&json::parse(doc).expect("reply parses"))
        .into_iter()
        .collect();
    let path = golden_dir.join(name);
    if bless {
        std::fs::write(&path, actual.join("\n") + "\n").unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    assert_eq!(
        actual,
        golden.lines().collect::<Vec<_>>(),
        "{name}: reply key set changed (the contract is the golden file)"
    );
}
