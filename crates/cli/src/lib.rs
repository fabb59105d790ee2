//! `uindex-cli` — a command-line OODB built on the U-index.
//!
//! Three plain-text formats make the whole system usable without writing
//! Rust:
//!
//! * **`.uschema`** — the schema DSL ([`parse_schema`]):
//!
//!   ```text
//!   class Employee { Age: int }
//!   class Company { Name: str, President: ref Employee }
//!   class AutoCompany < Company {}
//!   class Vehicle { Color: str, MadeBy: ref Company }
//!   index color = hierarchy Vehicle Color
//!   index age   = path Vehicle.MadeBy.President Age
//!   ```
//!
//! * **`.udata`** — object files ([`load_data`]):
//!
//!   ```text
//!   e1 = Employee Age=50
//!   c1 = AutoCompany Name='Fiat' President=@e1
//!   v1 = Vehicle Color='Red' MadeBy=@c1 Owners=[@e1]
//!   ```
//!
//! * **UQL** — queries (see [`uindex::uql`]).
//!
//! The binary wires these to a [`uindex::DiskDatabase`] directory:
//! `uindex-cli new|load|query|info|...` (see `main.rs`).

use std::collections::HashMap;

use objstore::{Oid, Value};
use pagestore::PageStore;
use schema::{AttrType, ClassId, Schema};
use uindex::{Database, DiskDatabase, DiskOptions, IndexSpec};

/// Errors with a line number for every parse failure.
#[derive(Debug)]
pub struct CliError {
    /// 1-based line of the failure (0 = not line-specific).
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "line {}: {}", self.line, self.message)
        } else {
            f.write_str(&self.message)
        }
    }
}

impl std::error::Error for CliError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError {
        line,
        message: message.into(),
    })
}

/// An index directive from a `.uschema` file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDirective {
    /// Index name.
    pub name: String,
    /// `true` for `hierarchy`, `false` for `path`.
    pub hierarchy: bool,
    /// Top class, then reference-attribute chain for `path`.
    pub chain: Vec<String>,
    /// The indexed attribute.
    pub attr: String,
}

/// Parse a `.uschema` file into a [`Schema`] plus index directives.
pub fn parse_schema(input: &str) -> Result<(Schema, Vec<IndexDirective>), CliError> {
    let mut schema = Schema::new();
    let mut indexes = Vec::new();
    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix("class ") {
            // class Name [< Parent] { attr: type, ... }
            let (head, body) = match rest.split_once('{') {
                Some((h, b)) => (h.trim(), b.trim()),
                None => return err(line, "expected '{' in class declaration"),
            };
            let body = match body.strip_suffix('}') {
                Some(b) => b.trim(),
                None => return err(line, "class declaration must end with '}'"),
            };
            let (name, parent) = match head.split_once('<') {
                Some((n, p)) => (n.trim(), Some(p.trim())),
                None => (head.trim(), None),
            };
            if name.is_empty() {
                return err(line, "empty class name");
            }
            let class = match parent {
                None => schema.add_class(name).map_err(|e| CliError {
                    line,
                    message: e.to_string(),
                })?,
                Some(pname) => {
                    let parent = schema.class_by_name(pname).ok_or_else(|| CliError {
                        line,
                        message: format!("unknown parent class {pname:?}"),
                    })?;
                    schema.add_subclass(name, parent).map_err(|e| CliError {
                        line,
                        message: e.to_string(),
                    })?
                }
            };
            if !body.is_empty() {
                for decl in body.split(',') {
                    let (aname, ty) = match decl.split_once(':') {
                        Some((a, t)) => (a.trim(), t.trim()),
                        None => return err(line, format!("expected 'name: type' in {decl:?}")),
                    };
                    let ty = parse_attr_type(ty, &schema, line)?;
                    schema.add_attr(class, aname, ty).map_err(|e| CliError {
                        line,
                        message: e.to_string(),
                    })?;
                }
            }
        } else if let Some(rest) = text.strip_prefix("index ") {
            // index name = hierarchy Class Attr
            // index name = path Class.Ref.Ref Attr
            let (name, spec) = match rest.split_once('=') {
                Some((n, s)) => (n.trim().to_string(), s.trim()),
                None => return err(line, "expected '=' in index directive"),
            };
            let mut parts = spec.split_whitespace();
            let kind = parts.next().unwrap_or_default();
            let target = parts.next().unwrap_or_default();
            let attr = parts.next().unwrap_or_default().to_string();
            if attr.is_empty() || parts.next().is_some() {
                return err(line, "expected 'index name = hierarchy|path Target Attr'");
            }
            let chain: Vec<String> = target.split('.').map(str::to_string).collect();
            match kind {
                "hierarchy" if chain.len() == 1 => indexes.push(IndexDirective {
                    name,
                    hierarchy: true,
                    chain,
                    attr,
                }),
                "path" if chain.len() >= 2 => indexes.push(IndexDirective {
                    name,
                    hierarchy: false,
                    chain,
                    attr,
                }),
                "hierarchy" => return err(line, "hierarchy index takes a bare class name"),
                "path" => return err(line, "path index needs Class.Ref[.Ref...]"),
                other => return err(line, format!("unknown index kind {other:?}")),
            }
        } else {
            return err(line, format!("unrecognized directive: {text:?}"));
        }
    }
    Ok((schema, indexes))
}

fn parse_attr_type(ty: &str, schema: &Schema, line: usize) -> Result<AttrType, CliError> {
    Ok(match ty {
        "int" => AttrType::Int,
        "str" => AttrType::Str,
        "float" => AttrType::Float,
        "bool" => AttrType::Bool,
        _ => {
            if let Some(target) = ty.strip_prefix("ref ") {
                AttrType::Ref(resolve_class(schema, target.trim(), line)?)
            } else if let Some(target) = ty.strip_prefix("refset ") {
                AttrType::RefSet(resolve_class(schema, target.trim(), line)?)
            } else {
                return err(line, format!("unknown type {ty:?}"));
            }
        }
    })
}

fn resolve_class(schema: &Schema, name: &str, line: usize) -> Result<ClassId, CliError> {
    schema.class_by_name(name).ok_or_else(|| CliError {
        line,
        message: format!("unknown class {name:?}"),
    })
}

/// Apply the index directives of a parsed `.uschema` to a database.
pub fn define_indexes<P: PageStore>(
    db: &mut Database<P>,
    directives: &[IndexDirective],
) -> Result<(), CliError> {
    for d in directives {
        let target = resolve_class(db.schema(), &d.chain[0], 0)?;
        let builder = if d.hierarchy {
            IndexSpec::class_hierarchy(&d.name, target, &d.attr)
        } else {
            let refs: Vec<&str> = d.chain[1..].iter().map(String::as_str).collect();
            IndexSpec::path(&d.name, target, &refs, &d.attr)
        };
        db.define_index(builder).map_err(|e| CliError {
            line: 0,
            message: format!("index {:?}: {e}", d.name),
        })?;
    }
    Ok(())
}

/// Load a `.udata` file into the database, returning handle → OID bindings.
///
/// Each line is `handle = Class attr=value ...`; values are integers,
/// floats, `true`/`false`, `'strings'`, `@handle` references, or
/// `[@h1, @h2]` reference sets. References may point at handles defined on
/// later lines (two passes).
pub fn load_data<P: PageStore>(
    db: &mut Database<P>,
    input: &str,
) -> Result<HashMap<String, Oid>, CliError> {
    struct Pending {
        line: usize,
        oid: Oid,
        attrs: Vec<(String, RawValue)>,
    }
    enum RawValue {
        Lit(Value),
        Ref(String),
        RefSet(Vec<String>),
    }

    let mut handles: HashMap<String, Oid> = HashMap::new();
    let mut pending: Vec<Pending> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        let (handle, rest) = match text.split_once('=') {
            Some((h, r)) => (h.trim().to_string(), r.trim()),
            None => return err(line, "expected 'handle = Class attr=value ...'"),
        };
        if handles.contains_key(&handle) {
            return err(line, format!("duplicate handle {handle:?}"));
        }
        let mut toks = Tokens::new(rest, line);
        let class_name = toks.word()?;
        let class = resolve_class(db.schema(), &class_name, line)?;
        let oid = db.create_object(class).map_err(|e| CliError {
            line,
            message: e.to_string(),
        })?;
        handles.insert(handle, oid);
        let mut attrs = Vec::new();
        while !toks.done() {
            let name = toks.word_until_eq()?;
            toks.expect('=')?;
            let value = toks.value()?;
            attrs.push((name, value));
        }
        pending.push(Pending { line, oid, attrs });
    }

    // Second pass: set attributes, resolving handle references.
    for p in pending {
        for (name, raw) in p.attrs {
            let value = match raw {
                RawValue::Lit(v) => v,
                RawValue::Ref(h) => Value::Ref(*handles.get(&h).ok_or_else(|| CliError {
                    line: p.line,
                    message: format!("unknown handle @{h}"),
                })?),
                RawValue::RefSet(hs) => {
                    let mut oids = Vec::with_capacity(hs.len());
                    for h in hs {
                        oids.push(*handles.get(&h).ok_or_else(|| CliError {
                            line: p.line,
                            message: format!("unknown handle @{h}"),
                        })?);
                    }
                    Value::RefSet(oids)
                }
            };
            db.set_attr(p.oid, &name, value).map_err(|e| CliError {
                line: p.line,
                message: format!("{name}: {e}"),
            })?;
        }
    }
    return Ok(handles);

    // --- tiny tokenizer for data lines --------------------------------
    struct Tokens<'a> {
        chars: std::iter::Peekable<std::str::Chars<'a>>,
        line: usize,
    }

    impl<'a> Tokens<'a> {
        fn new(s: &'a str, line: usize) -> Self {
            Tokens {
                chars: s.chars().peekable(),
                line,
            }
        }

        fn skip_ws(&mut self) {
            while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
                self.chars.next();
            }
        }

        fn done(&mut self) -> bool {
            self.skip_ws();
            self.chars.peek().is_none()
        }

        fn word(&mut self) -> Result<String, CliError> {
            self.skip_ws();
            let mut w = String::new();
            while matches!(self.chars.peek(), Some(c) if c.is_alphanumeric() || *c == '_') {
                w.push(self.chars.next().unwrap());
            }
            if w.is_empty() {
                return err(self.line, "expected a name");
            }
            Ok(w)
        }

        fn word_until_eq(&mut self) -> Result<String, CliError> {
            self.word()
        }

        fn expect(&mut self, c: char) -> Result<(), CliError> {
            self.skip_ws();
            match self.chars.next() {
                Some(got) if got == c => Ok(()),
                got => err(self.line, format!("expected {c:?}, got {got:?}")),
            }
        }

        fn value(&mut self) -> Result<RawValue, CliError> {
            self.skip_ws();
            match self.chars.peek() {
                Some('@') => {
                    self.chars.next();
                    Ok(RawValue::Ref(self.word()?))
                }
                Some('[') => {
                    self.chars.next();
                    let mut hs = Vec::new();
                    loop {
                        self.skip_ws();
                        match self.chars.peek() {
                            Some(']') => {
                                self.chars.next();
                                break;
                            }
                            Some('@') => {
                                self.chars.next();
                                hs.push(self.word()?);
                                self.skip_ws();
                                if matches!(self.chars.peek(), Some(',')) {
                                    self.chars.next();
                                }
                            }
                            other => {
                                return err(
                                    self.line,
                                    format!("expected '@handle' or ']', got {other:?}"),
                                )
                            }
                        }
                    }
                    Ok(RawValue::RefSet(hs))
                }
                Some('\'') => {
                    self.chars.next();
                    let mut s = String::new();
                    loop {
                        match self.chars.next() {
                            Some('\'') => break,
                            Some(c) => s.push(c),
                            None => return err(self.line, "unterminated string"),
                        }
                    }
                    Ok(RawValue::Lit(Value::Str(s)))
                }
                Some(c) if c.is_ascii_digit() || *c == '-' => {
                    let mut s = String::new();
                    while matches!(self.chars.peek(), Some(c) if c.is_ascii_digit() || *c == '.' || *c == '-')
                    {
                        s.push(self.chars.next().unwrap());
                    }
                    if s.contains('.') {
                        s.parse::<f64>()
                            .map(|f| RawValue::Lit(Value::Float(f)))
                            .map_err(|_| CliError {
                                line: self.line,
                                message: format!("bad float {s:?}"),
                            })
                    } else {
                        s.parse::<i64>()
                            .map(|i| RawValue::Lit(Value::Int(i)))
                            .map_err(|_| CliError {
                                line: self.line,
                                message: format!("bad integer {s:?}"),
                            })
                    }
                }
                _ => {
                    let w = self.word()?;
                    match w.as_str() {
                        "true" => Ok(RawValue::Lit(Value::Bool(true))),
                        "false" => Ok(RawValue::Lit(Value::Bool(false))),
                        other => err(self.line, format!("bad value {other:?}")),
                    }
                }
            }
        }
    }
}

/// Build a database in `dir` from schema text and optional data text (the
/// `new` command's core). Everything is committed and checkpointed before
/// returning.
pub fn build_database(
    schema_text: &str,
    data_text: Option<&str>,
    dir: &std::path::Path,
) -> Result<DiskDatabase, CliError> {
    let internal = |e: uindex::Error| CliError {
        line: 0,
        message: e.to_string(),
    };
    let (schema, directives) = parse_schema(schema_text)?;
    let mut db = DiskDatabase::create(schema, dir, DiskOptions::default()).map_err(internal)?;
    define_indexes(&mut db, &directives)?;
    if let Some(data) = data_text {
        load_data(&mut db, data)?;
    }
    db.checkpoint().map_err(internal)?;
    Ok(db)
}

/// Split the arguments after a command's positional one into
/// `--flag VALUE` pairs and bare `--switch`es (mapped to `""`). Anything
/// outside the two accepted sets, and a valued flag with no value after
/// it, is an error: a mistyped flag must not silently run the default.
fn take_flags<'a>(
    args: &'a [String],
    valued: &[&str],
    switches: &[&str],
) -> Result<HashMap<&'a str, &'a str>, String> {
    let mut flags = HashMap::new();
    let mut args = args.iter().map(String::as_str).peekable();
    while let Some(arg) = args.next() {
        if switches.contains(&arg) {
            flags.insert(arg, "");
        } else if valued.contains(&arg) {
            let value = args
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("missing value for {arg}"))?;
            flags.insert(arg, value);
        } else {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(flags)
}

/// The value of a numeric flag, if given.
fn number<T: std::str::FromStr>(
    flags: &HashMap<&str, &str>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| v.parse().map_err(|_| format!("bad value {v:?} for {name}")))
        .transpose()
}

/// `uindex-cli serve <db-dir>`'s flags (everything after the directory):
/// the server options and the `--shutdown-file` path.
pub fn parse_serve_flags(args: &[String]) -> Result<(serve::ServeOptions, Option<String>), String> {
    let flags = take_flags(
        args,
        &[
            "--port",
            "--workers",
            "--max-inflight",
            "--shutdown-file",
            "--slow-query-us",
            "--sample-interval-ms",
            "--read-deadline-ms",
        ],
        &[],
    )?;
    let defaults = serve::ServeOptions::default();
    let millis = std::time::Duration::from_millis;
    let options = serve::ServeOptions {
        addr: format!(
            "127.0.0.1:{}",
            number::<u16>(&flags, "--port")?.unwrap_or(0)
        ),
        workers: number(&flags, "--workers")?.unwrap_or(defaults.workers),
        max_inflight: number(&flags, "--max-inflight")?.unwrap_or(defaults.max_inflight),
        slow_query_us: number(&flags, "--slow-query-us")?.unwrap_or(defaults.slow_query_us),
        sample_interval: number::<u64>(&flags, "--sample-interval-ms")?
            .map_or(defaults.sample_interval, |ms| millis(ms.max(1))),
        // 0 switches the deadline off.
        read_deadline: number::<u64>(&flags, "--read-deadline-ms")?
            .map_or(defaults.read_deadline, |ms| (ms > 0).then(|| millis(ms))),
        ..defaults
    };
    let shutdown_file = flags.get("--shutdown-file").map(|p| p.to_string());
    Ok((options, shutdown_file))
}

/// `uindex-cli top <addr>`'s flags: `(window seconds, --once, --json)`.
pub fn parse_top_flags(args: &[String]) -> Result<(u32, bool, bool), String> {
    let flags = take_flags(args, &["--window"], &["--once", "--json"])?;
    Ok((
        number(&flags, "--window")?.unwrap_or(10),
        flags.contains_key("--once"),
        flags.contains_key("--json"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uindex::distinct_oids_at;

    const SCHEMA: &str = "
        # the paper's example, as a schema file
        class Employee { Age: int }
        class Company { Name: str, President: ref Employee }
        class AutoCompany < Company {}
        class Vehicle { Color: str, MadeBy: ref Company, CoOwners: refset Employee }
        class Automobile < Vehicle {}
        index color = hierarchy Vehicle Color
        index age   = path Vehicle.MadeBy.President Age
    ";

    const DATA: &str = "
        e1 = Employee Age=50
        e2 = Employee Age=60
        c1 = AutoCompany Name='Fiat' President=@e1
        v1 = Vehicle Color='Red' MadeBy=@c1
        v2 = Automobile Color='Red' MadeBy=@c1 CoOwners=[@e1, @e2]
        v3 = Automobile Color='Blue' MadeBy=@c1
    ";

    #[test]
    fn schema_parses() {
        let (s, idx) = parse_schema(SCHEMA).unwrap();
        assert_eq!(s.num_classes(), 5);
        assert_eq!(idx.len(), 2);
        assert!(idx[0].hierarchy);
        assert_eq!(idx[1].chain, vec!["Vehicle", "MadeBy", "President"]);
        let auto = s.class_by_name("AutoCompany").unwrap();
        let company = s.class_by_name("Company").unwrap();
        assert!(s.is_subclass_of(auto, company));
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("uindex_cli_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The same answers from the database `new` builds and from its files
    /// reopened.
    #[test]
    fn end_to_end_build_and_query() {
        let dir = tmpdir("end_to_end");
        let built = build_database(SCHEMA, Some(DATA), &dir).unwrap();
        let answers = |db: &DiskDatabase| {
            let (hits, _) = db.query_uql("color: Color = 'Red'").unwrap();
            assert_eq!(hits.len(), 2);
            let (hits, _) = db
                .query_uql("color: Color = 'Red' and Vehicle in [Automobile*]")
                .unwrap();
            assert_eq!(hits.len(), 1);
            let (hits, _) = db.query_uql("age: Age = 50").unwrap();
            assert_eq!(distinct_oids_at(&hits, 2).len(), 3);
        };
        answers(&built);
        built.close().unwrap();
        let (reopened, report) = DiskDatabase::open(&dir).unwrap();
        assert!(report.clean(), "{report:?}");
        answers(&reopened);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn data_forward_references_work() {
        // v references a company defined later in the file.
        let data = "
            v1 = Vehicle Color='Red' MadeBy=@c9
            c9 = Company Name='Late' President=@e9
            e9 = Employee Age=33
        ";
        let dir = tmpdir("forward_refs");
        let db = build_database(SCHEMA, Some(data), &dir).unwrap();
        let (hits, _) = db.query_uql("age: Age = 33").unwrap();
        assert_eq!(hits.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let e = parse_schema("class A {").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_schema("class A {}\nbogus line").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_schema("class A { X: nope }").unwrap_err();
        assert_eq!(e.line, 1);
        let e = parse_schema("class A {}\nindex i = sideways A X").unwrap_err();
        assert_eq!(e.line, 2);

        let (schema_ok, _) = parse_schema(SCHEMA).unwrap();
        let mut db = Database::in_memory(schema_ok).unwrap();
        let e = load_data(&mut db, "x1 = Employee Age='old'").unwrap_err();
        assert_eq!(e.line, 1);
        let e = load_data(&mut db, "\nx1 = Employee Age=1\nx1 = Employee Age=2").unwrap_err();
        assert_eq!(e.line, 3);
        let e = load_data(&mut db, "v = Vehicle MadeBy=@nobody").unwrap_err();
        assert_eq!(e.line, 1);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn serve_flags_accept_the_documented_set_and_nothing_else() {
        let millis = std::time::Duration::from_millis;
        let (options, shutdown_file) = parse_serve_flags(&args(
            "--port 7001 --workers 3 --max-inflight 9 --shutdown-file /tmp/stop \
             --slow-query-us 250 --sample-interval-ms 0 --read-deadline-ms 40",
        ))
        .unwrap();
        assert_eq!(options.addr, "127.0.0.1:7001");
        assert_eq!((options.workers, options.max_inflight), (3, 9));
        assert_eq!(options.slow_query_us, 250);
        assert_eq!(options.sample_interval, millis(1), "clamped to 1 ms");
        assert_eq!(options.read_deadline, Some(millis(40)));
        assert_eq!(shutdown_file.as_deref(), Some("/tmp/stop"));

        let defaults = serve::ServeOptions::default();
        let (options, shutdown_file) = parse_serve_flags(&[]).unwrap();
        assert_eq!(options.addr, "127.0.0.1:0", "no --port: ephemeral");
        assert_eq!(options.workers, defaults.workers);
        assert_eq!(options.read_deadline, defaults.read_deadline);
        assert_eq!(shutdown_file, None);
        let (options, _) = parse_serve_flags(&args("--read-deadline-ms 0")).unwrap();
        assert_eq!(options.read_deadline, None, "0 = no deadline");

        for (bad, why) in [
            ("--port", "missing value for --port"),
            ("--port --workers 4", "missing value for --port"),
            ("--worker 4", "unknown argument \"--worker\""),
            ("--port 0 extra", "unknown argument \"extra\""),
            ("--once", "unknown argument \"--once\""),
            ("--workers four", "bad value \"four\" for --workers"),
            ("--port 70000", "bad value \"70000\" for --port"),
        ] {
            assert_eq!(parse_serve_flags(&args(bad)).unwrap_err(), why, "{bad}");
        }
    }

    #[test]
    fn top_flags_accept_the_documented_set_and_nothing_else() {
        assert_eq!(parse_top_flags(&[]).unwrap(), (10, false, false));
        assert_eq!(
            parse_top_flags(&args("--json --window 60 --once")).unwrap(),
            (60, true, true)
        );
        assert_eq!(
            parse_top_flags(&args("--window")).unwrap_err(),
            "missing value for --window"
        );
        assert_eq!(
            parse_top_flags(&args("--port 1")).unwrap_err(),
            "unknown argument \"--port\""
        );
    }
}
