//! Every name the docs put in backticks names something that exists.
//!
//! README.md, DESIGN.md, EXPERIMENTS.md and `docs/*.md` cite the code by
//! name. This test reads every inline code span outside fenced blocks and
//! resolves each path-like token in it to one of:
//!
//! * an item defined in Rust source, not a word in a comment: a function,
//!   type, trait, constant, static, module, macro, enum variant or struct
//!   field. A path `a::b` must name a `b` that `a` holds: a module-level
//!   item of crate or module `a`, or an associated item or variant of type
//!   `a`. `A.b` names a field or associated item of type `A`;
//! * a repo path, whole or by its tail (`tests/drain.rs`, `node.rs`), or a
//!   string literal in a program's `src` (runtime file and metric names);
//! * a command-line flag: a `--` string literal in a program's `src`;
//! * a package, binary or example name, a `BENCHMARK.json` workload or
//!   metric name, or a file stem (a test target, a binary);
//! * an entry of [`ALLOWED`], grouped by reason.
//!
//! A span with spaces (a command, an expression) is checked only for the
//! `::` paths and `--` flags in it. So a name deleted from the code cannot
//! live on in the prose: cited again, it fails here.

use std::collections::{HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};

/// Names that resolve to nothing in this repo, by reason.
#[rustfmt::skip]
const ALLOWED: &[(&str, &[&str])] = &[
    ("the standard library, the OS and the language", &[
        "Arc", "Cell", "Display", "FileExt", "HashSet", "Mutex", "None", "Ok", "Option",
        "RwLock", "Send", "Sync", "TcpStream", "Vec", "usize", "mut", "catch_unwind",
        "copy_within", "starts_with", "sync_data", "to_vec", "accept", "malloc", "memcpy",
        "pread", "pwrite",
    ]),
    ("crates the workspace does not use, named to say so", &["crossbeam", "parking_lot", "serde"]),
    ("cargo's own flags and rustc's lints", &[
        "--all-targets", "--bin", "--check", "--example", "--exclude", "--offline", "--release",
        "--workspace", "unreachable_pub",
    ]),
    ("the paper's notation: class codes, attribute paths, functions", &[
        "C1", "C2", "C5", "C5A", "C5AA", "COD", "W.N.N", "Vehicle.Color",
        "Vehicle.Company.Employee.Age", "Vehicle/Company/Employee.Age", "ceil",
    ]),
    ("fields of the on-page leaf entry, which the codec reads into locals", &["prefix_len", "suffix_len"]),
    ("a field reached through a variable or a JSON object", &["db.reader", "leaf.next", "live.queries"]),
    ("a file of a retired on-disk format, named to say so", &["pages.db.free"]),
];

/// Source extensions that mark a token as a file name.
const FILE_EXTENSIONS: &[&str] = &["rs", "md", "txt", "json", "toml", "sh", "lock"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every file under `dir`, as a `/`-separated path relative to the repo
/// root; build output and hidden directories are skipped.
fn walk(root: &Path, rel: &str, out: &mut Vec<String>) {
    let dir = if rel.is_empty() {
        root.to_path_buf()
    } else {
        root.join(rel)
    };
    for entry in fs::read_dir(&dir).expect("read repo dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        if name.starts_with('.') || name == "target" || (rel == "benchmark" && name == "out") {
            continue;
        }
        let path = if rel.is_empty() {
            name
        } else {
            format!("{rel}/{name}")
        };
        if entry.file_type().expect("file type").is_dir() {
            out.push(format!("{path}/"));
            walk(root, &path, out);
        } else {
            out.push(path);
        }
    }
}

// ---------------------------------------------------------------- Rust

#[derive(PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
    Str(String),
}

/// Rust source as identifiers, punctuation and string literals; comments,
/// numbers, character literals and lifetimes are dropped.
fn lex(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < c.len() {
        let ch = c[i];
        if ch == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if ch == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            loop {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if ch == '"' {
            let (s, next) = string_at(&c, i + 1, None);
            out.push(Tok::Str(s));
            i = next;
        } else if ch == '\'' {
            // A character literal ('x', '\n', '\u{..}') or a lifetime.
            if c.get(i + 1) == Some(&'\\') {
                i += 2;
                while c[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if c.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                i += 1;
                while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                    i += 1;
                }
            }
        } else if ch.is_alphabetic() || ch == '_' {
            let start = i;
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            let word: String = c[start..i].iter().collect();
            // A prefixed string: `b"..."`, `r"..."`, `r#"..."#`, ...
            let hashes = c[i..].iter().take_while(|&&h| h == '#').count();
            let raw = matches!(word.as_str(), "r" | "br" | "cr");
            if matches!(word.as_str(), "b" | "c") && c.get(i) == Some(&'"') {
                let (s, next) = string_at(&c, i + 1, None);
                out.push(Tok::Str(s));
                i = next;
            } else if raw && c.get(i + hashes) == Some(&'"') {
                let (s, next) = string_at(&c, i + hashes + 1, Some(hashes));
                out.push(Tok::Str(s));
                i = next;
            } else {
                out.push(Tok::Ident(word));
            }
        } else if ch.is_ascii_digit() {
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
        } else {
            if !ch.is_whitespace() {
                out.push(Tok::Punct(ch));
            }
            i += 1;
        }
    }
    out
}

/// The string literal whose body starts at `i`: its text (escapes kept
/// as written) and the index past its closing quote. `raw` is the number
/// of `#`s of a raw string.
fn string_at(c: &[char], mut i: usize, raw: Option<usize>) -> (String, usize) {
    let start = i;
    loop {
        match (c[i], raw) {
            ('\\', None) => i += 2,
            ('"', None) => return (c[start..i].iter().collect(), i + 1),
            ('"', Some(n)) if c[i + 1..].iter().take(n).filter(|&&h| h == '#').count() == n => {
                return (c[start..i].iter().collect(), i + 1 + n)
            }
            _ => i += 1,
        }
    }
}

/// What a `{` opened.
enum Scope {
    /// `impl T` or `trait T`: its items are associated items of `T`.
    Members(String),
    /// `enum T`: its variants.
    Enum(String),
    /// `struct T` or an enum's struct variant `T`: its fields.
    Fields(String),
    /// `mod m`.
    Module(String),
    /// A macro call's braces (`thread_local! { .. }`): what they hold
    /// belongs to the scope around them.
    Macro,
    /// A function body or any other block.
    Block,
}

/// What the Rust sources define.
#[derive(Default)]
struct Defs {
    /// Every name a definition introduces.
    names: HashSet<String>,
    /// What `a::b` and `A.b` may name: the module-level items of crate or
    /// module `a`; the associated items, variants and fields of type `A`.
    holds: HashMap<String, HashSet<String>>,
    /// Every name defined in a file, by repo path.
    in_file: HashMap<String, HashSet<String>>,
    /// String literals in the programs' `src` directories, whole and word
    /// by word.
    strings: HashSet<String>,
}

impl Defs {
    fn hold(&mut self, owner: &str, name: &str) {
        self.holds
            .entry(owner.to_string())
            .or_default()
            .insert(name.to_string());
    }

    /// Record the definitions of the file at `path`. `modules` names the
    /// crate (if the file is part of a library or binary) and the file's
    /// own module.
    fn add_file(&mut self, path: &str, src: &str, modules: &[String], program: bool) {
        let toks = lex(src);
        let ident = |i: usize| match toks.get(i) {
            Some(Tok::Ident(s)) => Some(s.as_str()),
            _ => None,
        };
        let punct = |i: usize, p: char| toks.get(i) == Some(&Tok::Punct(p));
        // Each open brace with what it opened and the bracket depth inside
        // it: a variant or field sits at its scope's depth, not inside a
        // tuple variant's parentheses or an attribute.
        let mut stack: Vec<(Scope, usize)> = Vec::new();
        let mut brackets = 0usize;
        let mut pending: Option<Scope> = None;
        let mut defined = HashSet::new();
        for i in 0..toks.len() {
            let word = match &toks[i] {
                Tok::Str(s) => {
                    if program {
                        let words = s.split(|c: char| !(c.is_alphanumeric() || "_.-".contains(c)));
                        self.strings.extend(words.map(str::to_string));
                        self.strings.insert(s.clone());
                    }
                    continue;
                }
                Tok::Punct('{') => {
                    let scope = match pending.take() {
                        Some(scope) => scope,
                        None if i > 0 && toks[i - 1] == Tok::Punct('!') => Scope::Macro,
                        None => Scope::Block,
                    };
                    stack.push((scope, brackets));
                    continue;
                }
                Tok::Punct('}') => {
                    stack.pop();
                    continue;
                }
                Tok::Punct('(' | '[') => {
                    brackets += 1;
                    continue;
                }
                Tok::Punct(')' | ']') => {
                    brackets = brackets.saturating_sub(1);
                    continue;
                }
                Tok::Punct(';') => {
                    pending = None;
                    continue;
                }
                Tok::Punct(_) => continue,
                Tok::Ident(word) => word,
            };
            let name = match word.as_str() {
                "fn" | "struct" | "enum" | "trait" | "type" | "const" | "static" | "mod" => {
                    ident(i + 1).filter(|&n| n != "fn" && n != "_")
                }
                "macro_rules" if punct(i + 1, '!') => ident(i + 2),
                "impl" if pending.is_none() => {
                    pending = Some(Scope::Members(impl_type(&toks[i + 1..])));
                    None
                }
                _ => None,
            };
            let Some(name) = name else {
                // An enum variant or a struct field.
                let at_depth = stack.last().is_some_and(|&(_, depth)| depth == brackets);
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let after_sep = matches!(prev, Some(Tok::Punct('{' | ',' | ']')));
                let field =
                    punct(i + 1, ':') && !punct(i + 2, ':') && prev != Some(&Tok::Punct(':'));
                match stack.last() {
                    Some((Scope::Enum(owner), _)) if at_depth && after_sep => {
                        if matches!(
                            toks.get(i + 1),
                            Some(Tok::Punct('{' | '(' | ',' | '=' | '}'))
                        ) {
                            let owner = owner.clone();
                            if punct(i + 1, '{') {
                                pending = Some(Scope::Fields(word.clone()));
                            }
                            self.hold(&owner, word);
                            defined.insert(word.clone());
                        }
                    }
                    Some((Scope::Fields(owner), _)) if at_depth && field => {
                        let owner = owner.clone();
                        self.hold(&owner, word);
                        defined.insert(word.clone());
                    }
                    _ => {}
                }
                continue;
            };
            let name = name.to_string();
            defined.insert(name.clone());
            match stack
                .iter()
                .rev()
                .map(|(s, _)| s)
                .find(|s| !matches!(s, Scope::Module(_) | Scope::Macro))
            {
                Some(Scope::Members(owner)) => {
                    let owner = owner.clone();
                    self.hold(&owner, &name);
                }
                Some(_) => {}
                None => {
                    // A module-level item: held by the file's crate and
                    // module and by every inline module around it.
                    let inline: Vec<String> = stack
                        .iter()
                        .filter_map(|(s, _)| match s {
                            Scope::Module(m) => Some(m.clone()),
                            _ => None,
                        })
                        .collect();
                    for m in modules.iter().chain(&inline) {
                        self.hold(m, &name);
                    }
                }
            }
            pending = match word.as_str() {
                "struct" => Some(Scope::Fields(name)),
                "enum" => Some(Scope::Enum(name)),
                "trait" => Some(Scope::Members(name)),
                "mod" => Some(Scope::Module(name)),
                "fn" => Some(Scope::Block),
                _ => pending,
            };
        }
        self.names.extend(defined.iter().cloned());
        self.in_file.insert(path.to_string(), defined);
    }
}

/// The self type of the `impl` header that `toks` starts after: the last
/// path segment before its generic arguments, after `for` if there is one.
fn impl_type(toks: &[Tok]) -> String {
    let mut angle = 0i32;
    let mut ty = String::new();
    let mut skipping_generics = toks.first() == Some(&Tok::Punct('<'));
    for (i, t) in toks.iter().enumerate() {
        match t {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') if i > 0 && toks[i - 1] == Tok::Punct('-') => {}
            Tok::Punct('>') => {
                angle -= 1;
                if angle == 0 {
                    skipping_generics = false;
                }
            }
            Tok::Punct('{') => break,
            Tok::Ident(w) if angle == 0 && !skipping_generics => match w.as_str() {
                "for" => ty.clear(),
                "where" => break,
                "dyn" | "mut" => {}
                _ => ty = w.clone(),
            },
            _ => {}
        }
    }
    ty
}

// ---------------------------------------------------------------- the repo

struct Repo {
    files: Vec<String>,
    defs: Defs,
    /// Package, binary and example names, `BENCHMARK.json` names, file
    /// stems.
    other_names: HashSet<String>,
    allowed: HashSet<&'static str>,
}

impl Repo {
    fn load() -> Repo {
        let root = repo_root();
        let mut files = Vec::new();
        walk(&root, "", &mut files);
        let mut defs = Defs::default();
        let mut other_names = HashSet::new();
        for path in &files {
            let file = path.rsplit('/').next().expect("file name");
            if let Some(stem) = file.strip_suffix(".rs") {
                let src = fs::read_to_string(root.join(path)).expect("read source");
                let (krate, in_src) = crate_of(path);
                let module = match stem {
                    "mod" => path.rsplit('/').nth(1).expect("module dir").to_string(),
                    _ => stem.to_string(),
                };
                let mut modules = vec![module];
                if in_src {
                    modules.push(krate);
                }
                defs.add_file(path, &src, &modules, in_src);
            }
            if file.ends_with(".toml") {
                let src = fs::read_to_string(root.join(path)).expect("read manifest");
                for line in src.lines() {
                    if let Some(v) = line.trim().strip_prefix("name = \"") {
                        other_names.insert(v.trim_end_matches('"').to_string());
                    }
                }
            }
            if let Some((stem, _)) = file.split_once('.') {
                other_names.insert(stem.to_string());
            }
        }
        let bench = fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json");
        for part in bench.split("\"name\": \"").skip(1) {
            other_names.insert(part.split('"').next().expect("name").to_string());
        }
        let allowed = ALLOWED
            .iter()
            .flat_map(|(_, names)| names.iter().copied())
            .collect();
        Repo {
            files,
            defs,
            other_names,
            allowed,
        }
    }

    /// Whether `tail` is a whole repo path or the `/`-aligned end of one;
    /// a directory may be named with or without its trailing `/`, or as
    /// `dir/*`.
    fn has_path(&self, tail: &str) -> bool {
        let tail = tail.trim_end_matches('*');
        let dir = format!("{}/", tail.trim_end_matches('/'));
        self.files.iter().any(|f| {
            [tail, dir.as_str()]
                .iter()
                .any(|t| f == t || f.ends_with(&format!("/{t}")))
        })
    }

    fn holds(&self, owner: &str, name: &str) -> bool {
        let Some(held) = self.defs.holds.get(owner) else {
            return false;
        };
        match name.strip_suffix('*') {
            Some(prefix) => held.iter().any(|h| h.starts_with(prefix)),
            None => held.contains(name),
        }
    }

    fn is_name(&self, name: &str) -> bool {
        self.allowed.contains(name)
            || self.defs.names.contains(name)
            || self.defs.strings.contains(name)
            || self.other_names.contains(name)
    }

    /// Whether the path-like `token` resolves (see the module docs).
    fn resolves(&self, token: &str) -> bool {
        if self.allowed.contains(token) || token.starts_with("std::") {
            return true;
        }
        if token.starts_with("--") {
            return self.defs.strings.contains(token);
        }
        if let Some((file, item)) = token.split_once(".rs::") {
            let file = format!("{file}.rs");
            return self.files.iter().any(|f| {
                (f == &file || f.ends_with(&format!("/{file}")))
                    && self.defs.in_file[f].contains(item)
            });
        }
        let ext = token.rsplit_once('.').map(|(_, e)| e);
        if token.contains('/') || ext.is_some_and(|e| FILE_EXTENSIONS.contains(&e)) {
            return self.has_path(token);
        }
        if token.contains("::") {
            let segs: Vec<&str> = token.split("::").collect();
            return self.allowed.contains(segs[0])
                || (self.is_name(segs[0]) && segs.windows(2).all(|w| self.holds(w[0], w[1])));
        }
        if let Some(field) = token.strip_prefix('.') {
            return self.defs.names.contains(field)
                || self.defs.strings.iter().any(|s| s.ends_with(token));
        }
        if let Some((owner, member)) = token.split_once('.') {
            let literal = match token.strip_suffix('*') {
                Some(prefix) => self.defs.strings.iter().any(|s| s.starts_with(prefix)),
                None => self.defs.strings.contains(token) || self.other_names.contains(token),
            };
            return literal || self.holds(owner, member);
        }
        self.is_name(token)
    }
}

/// The crate a source file belongs to, and whether it is part of the
/// crate's library or binaries (its `src`) rather than a test or example.
fn crate_of(path: &str) -> (String, bool) {
    let parts: Vec<&str> = path.split('/').collect();
    let (krate, rest) = match parts.as_slice() {
        ["crates", "cli", rest @ ..] => ("uindex_cli".to_string(), rest),
        ["crates" | "vendor", name, rest @ ..] => (name.to_string(), rest),
        ["benchmark", rest @ ..] => ("uindex_benchmark".to_string(), rest),
        rest => ("uindex_oodb".to_string(), rest),
    };
    (krate, rest.first() == Some(&"src"))
}

// ---------------------------------------------------------------- the docs

/// Drop the argument list after a name: `seek(t)` is `seek`,
/// `ReadView::reseek(&mut cursor, key)` is `ReadView::reseek`.
fn strip_args(span: &str) -> String {
    let mut out = String::new();
    let mut depth = 0;
    for ch in span.chars() {
        let after_name = out
            .chars()
            .last()
            .is_some_and(|p| p.is_alphanumeric() || p == '_');
        match ch {
            '(' if depth > 0 || after_name => depth += 1,
            ')' if depth > 0 => depth -= 1,
            _ if depth > 0 => {}
            _ => out.push(ch),
        }
    }
    out
}

/// Expand one brace group: `BTree::{insert, delete}` is `BTree::insert`
/// and `BTree::delete`.
fn expand(span: &str) -> Vec<String> {
    match (span.find('{'), span.find('}')) {
        (Some(open), Some(close)) if open < close && !span[..open].ends_with(' ') => span
            [open + 1..close]
            .split(',')
            .map(|part| format!("{}{}{}", &span[..open], part.trim(), &span[close + 1..]))
            .collect(),
        _ => vec![span.to_string()],
    }
}

/// The tokens of one code span to resolve.
fn tokens(span: &str) -> Vec<String> {
    let mut out = Vec::new();
    for span in expand(&strip_args(span)) {
        let span = span.trim_matches('"');
        if span.contains(char::is_whitespace) {
            for word in span.split_whitespace() {
                let word = word.trim_matches(|c: char| ",;[]<>'".contains(c));
                if word.contains("::") || word.starts_with("--") {
                    out.extend(path_parts(word));
                }
            }
        } else {
            out.extend(path_parts(span));
        }
    }
    out
}

/// The path-like parts of a token: `Arc<Node>` is `Arc` and `Node`;
/// numbers, operators and symbols are not path-like.
fn path_parts(token: &str) -> Vec<String> {
    token
        .split(|c: char| "<>&,[]=".contains(c))
        .map(|p| p.trim_end_matches(['.', ':']))
        .filter(|p| {
            let mut chars = p.chars();
            match chars.next() {
                Some(c) if c.is_alphabetic() || c == '_' => true,
                Some('.' | '-') => p
                    .trim_start_matches(['.', '-'])
                    .starts_with(char::is_alphabetic),
                _ => false,
            }
        })
        .filter(|p| p.chars().count() > 1)
        .map(str::to_string)
        .collect()
}

/// Every inline code span outside fenced blocks, with its doc and the
/// line it opens on. A span may run over line breaks, not past the end of
/// its paragraph.
fn code_spans(doc: &str, text: &str) -> Vec<(String, usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut out = Vec::new();
    let mut rest = prose.as_str();
    while let Some(open) = rest.find('`') {
        let ticks = rest[open..].chars().take_while(|&c| c == '`').count();
        let fence = &rest[open..open + ticks];
        let body = &rest[open + ticks..];
        let line = prose[..prose.len() - rest.len() + open]
            .matches('\n')
            .count()
            + 1;
        match body.find(fence) {
            Some(close) if !body[..close].contains("\n\n") => {
                let span = body[..close].replace('\n', " ");
                out.push((doc.to_string(), line, span.trim().to_string()));
                rest = &body[close + ticks..];
            }
            _ => rest = body,
        }
    }
    out
}

fn docs(repo: &Repo) -> Vec<String> {
    let mut docs = vec![
        "README.md".to_string(),
        "DESIGN.md".to_string(),
        "EXPERIMENTS.md".to_string(),
    ];
    docs.extend(
        repo.files
            .iter()
            .filter(|f| f.starts_with("docs/") && f.ends_with(".md"))
            .cloned(),
    );
    docs
}

#[test]
fn every_backticked_name_in_the_docs_resolves() {
    let repo = Repo::load();
    let root = repo_root();
    let mut unresolved = Vec::new();
    let mut cited = HashSet::new();
    for doc in docs(&repo) {
        let text = fs::read_to_string(root.join(&doc)).expect("read doc");
        for (doc, line, span) in code_spans(&doc, &text) {
            for token in tokens(&span) {
                if !repo.resolves(&token) {
                    unresolved.push(format!("{doc}:{line}: `{token}` (in `{span}`)"));
                }
                cited.insert(token.split("::").next().expect("segment").to_string());
                cited.insert(token);
            }
        }
    }
    assert!(
        cited.len() > 400,
        "only {} names found: is the span reader broken?",
        cited.len()
    );
    let stale: Vec<_> = repo
        .allowed
        .iter()
        .filter(|a| !cited.contains(**a))
        .collect();
    assert!(stale.is_empty(), "ALLOWED names no doc cites: {stale:?}");
    assert!(
        unresolved.is_empty(),
        "{} backticked names in the docs name nothing in the repo; fix the doc, \
         or add the name to ALLOWED with its reason:\n{}",
        unresolved.len(),
        unresolved.join("\n")
    );
}

/// The resolver itself: what the docs may and may not cite.
#[test]
fn the_resolver_accepts_defined_names_and_refuses_others() {
    let repo = Repo::load();
    for ok in [
        "Database::in_memory",
        "uindex::scan::execute_traced",
        "ScanStats.pages_read",
        "ScanAlgorithm::Forward",
        "crates/uindex/tests/commit_cost.rs",
        "tests/drain.rs",
        "wal.log",
        "--shutdown-file",
        "scan_cold",
    ] {
        assert!(repo.resolves(ok), "{ok} should resolve");
    }
    for missing in [
        "Database::nope",
        "uindex::nope",
        "NoSuchName",
        "objects.bin",
        "--nope",
        "crates/nope.rs",
        "ScanStats.nope",
    ] {
        assert!(!repo.resolves(missing), "{missing} should not resolve");
    }
    // A name in a comment defines nothing.
    let mut defs = Defs::default();
    defs.add_file(
        "x.rs",
        "// fn ghost() {}\nfn real() {}",
        &["x".into()],
        true,
    );
    assert!(defs.names.contains("real") && !defs.names.contains("ghost"));
}
