//! How large the code is: non-blank lines of product and of test code.
//!
//! Product code is every `.rs` file under a `src/` directory of the root
//! package or a workspace crate, with each `#[cfg(test)]` item taken out;
//! test code is every `.rs` file under their `tests/` directories, with
//! those items put in. Examples and the separate `benchmark/` workspace
//! are neither. Run with `--nocapture` to see the table:
//!
//! ```text
//! cargo test -p bench --test size_count -- --nocapture
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Where a scan of Rust source stands at the end of a line.
#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    /// Inside a string literal; raw strings carry their `#` count.
    Str {
        raw: Option<usize>,
    },
    /// Inside a block comment, at this nesting depth.
    Comment(usize),
}

/// The net brace depth change of `line` and the state after it, counting
/// only braces in code: not in strings, character literals or comments.
fn braces(line: &str, mut state: State) -> (i64, State) {
    let b = line.as_bytes();
    let (mut depth, mut i) = (0, 0);
    while i < b.len() {
        match state {
            State::Comment(n) => {
                if b[i..].starts_with(b"*/") {
                    state = if n == 1 {
                        State::Code
                    } else {
                        State::Comment(n - 1)
                    };
                    i += 1;
                } else if b[i..].starts_with(b"/*") {
                    state = State::Comment(n + 1);
                    i += 1;
                }
            }
            State::Str { raw: None } => match b[i] {
                b'\\' => i += 1,
                b'"' => state = State::Code,
                _ => {}
            },
            State::Str { raw: Some(hashes) } => {
                if b[i] == b'"' && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes {
                    state = State::Code;
                    i += hashes;
                }
            }
            State::Code => match b[i] {
                b'/' if b.get(i + 1) == Some(&b'/') => break,
                b'/' if b.get(i + 1) == Some(&b'*') => {
                    state = State::Comment(1);
                    i += 1;
                }
                b'"' => state = State::Str { raw: None },
                b'r' if (i == 0 || !b[i - 1].is_ascii_alphanumeric() && b[i - 1] != b'_')
                    && matches!(b.get(i + 1), Some(b'"' | b'#')) =>
                {
                    let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                    if b.get(i + 1 + hashes) == Some(&b'"') {
                        state = State::Str { raw: Some(hashes) };
                        i += 1 + hashes;
                    }
                }
                // A character literal: `'x'` or an escape; a lifetime has
                // no closing quote two bytes on.
                b'\'' if b.get(i + 1) == Some(&b'\\') => {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                }
                b'\'' if b.get(i + 2) == Some(&b'\'') => i += 2,
                b'{' => depth += 1,
                b'}' => depth -= 1,
                _ => {}
            },
        }
        i += 1;
    }
    (depth, state)
}

/// Non-blank lines of `src`: `(outside #[cfg(test)] items, inside them)`.
fn split_test_items(src: &str) -> (usize, usize) {
    let (mut product, mut test) = (0, 0);
    let mut state = State::Code;
    // Brace depth of the test item being skipped, once it has opened.
    let mut in_item: Option<(i64, bool)> = None;
    for line in src.lines() {
        let (delta, next) = braces(line, state);
        let code = state == State::Code;
        state = next;
        if line.trim().is_empty() {
            continue;
        }
        if in_item.is_none() && code && line.trim() == "#[cfg(test)]" {
            in_item = Some((0, false));
        }
        let Some((depth, opened)) = in_item else {
            product += 1;
            continue;
        };
        test += 1;
        let depth = depth + delta;
        let opened = opened || delta != 0 || line.contains('{');
        let attribute = line.trim_start().starts_with("#[");
        // The item ends where its braces close, or at a `;` before any.
        let done = if opened {
            depth <= 0
        } else {
            !attribute && line.trim_end().ends_with(';')
        };
        in_item = (!done).then_some((depth, opened));
    }
    (product, test)
}

#[derive(Default)]
struct Size {
    product: usize,
    test: usize,
}

#[test]
fn print_product_and_test_lines() {
    let root = repo_root();
    let mut units = vec![("uindex-oodb".to_string(), root.to_path_buf())];
    let mut crates: Vec<_> = fs::read_dir(root.join("crates"))
        .unwrap()
        .flatten()
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .collect();
    crates.sort();
    units.extend(crates);

    let mut sizes: BTreeMap<String, Size> = BTreeMap::new();
    for (name, dir) in &units {
        let size = sizes.entry(name.clone()).or_default();
        for (sub, is_test) in [("src", false), ("tests", true)] {
            let mut files = Vec::new();
            rust_files(&dir.join(sub), &mut files);
            for file in files {
                let src = fs::read_to_string(&file).unwrap();
                let (outside, inside) = split_test_items(&src);
                if is_test {
                    size.test += outside + inside;
                } else {
                    size.product += outside;
                    size.test += inside;
                }
            }
        }
    }
    let total = sizes.values().fold(Size::default(), |t, s| Size {
        product: t.product + s.product,
        test: t.test + s.test,
    });
    println!("{:<14} {:>8} {:>8}", "crate", "product", "test");
    for (name, s) in &sizes {
        println!("{name:<14} {:>8} {:>8}", s.product, s.test);
    }
    println!(
        "size: {} product lines, {} test lines (non-blank; #[cfg(test)] items count as test)",
        total.product, total.test
    );
    assert!(total.product > 0 && total.test > 0, "no source found");
}

#[test]
fn cfg_test_items_count_as_test_lines() {
    let src = r#"
fn product() {
    let s = "}"; // a brace in a string
}

#[cfg(test)]
use std::fmt;

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let c = '{';
    }
}

fn after() {}
"#;
    assert_eq!(split_test_items(src), (4, 9));
}
