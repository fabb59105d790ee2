//! UQL — a small textual query language over U-indexes.
//!
//! The paper writes queries in a translated form like
//! `(Color-Red, [C5A*, C5B], ?)` (§3.4). UQL is the human-facing
//! equivalent, resolved against an index's path positions by class name:
//!
//! ```text
//! color: Color = 'Red' and Vehicle in [Automobile*, Truck]
//! age:   Age between 40 and 60 and Company in [JapaneseAutoCompany*]
//!        and Vehicle.oid = 12 distinct Company forward
//! ```
//!
//! Grammar (case-insensitive keywords):
//!
//! ```text
//! query    := index ':' [clause ('and' clause)*] [modifier*]
//! clause   := attr ( '=' lit | '>=' lit | '<=' lit
//!                  | 'between' lit 'and' lit
//!                  | 'in' '(' lit (',' lit)* ')' )
//!           | class 'is' classref
//!           | class 'in' '[' classref (',' classref)* ']'
//!           | class '.oid' ( '=' int | 'in' '(' int (',' int)* ')' )
//! classref := ClassName ['*']          -- '*' = the whole sub-tree
//! modifier := 'distinct' ClassName | 'forward'
//! lit      := integer | float | 'string' | true | false
//! ```
//!
//! Position references name the *position class* (or any class inside the
//! position's sub-tree, which then also restricts the class selector).

use objstore::{Oid, Value};

use crate::error::{Error, Result};
use crate::index::Planner;
use crate::query::{ClassSel, OidSel, Query, ValuePred};

/// Parse a UQL string against a metadata view (see
/// [`crate::Database::planner`] and [`crate::DatabaseReader::planner`]).
pub fn parse(planner: Planner<'_>, input: &str) -> Result<Query> {
    Parser {
        tokens: tokenize(input)?,
        pos: 0,
        planner,
    }
    .parse_query()
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(char), // : ( ) [ ] , * = plus multi-char handled as idents
    Ge,
    Le,
}

fn tokenize(input: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            ':' | '(' | ')' | '[' | ']' | ',' | '*' | '=' => {
                out.push(Tok::Sym(c));
                chars.next();
            }
            '>' | '<' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(if c == '>' { Tok::Ge } else { Tok::Le });
                } else {
                    return Err(Error::BadQuery(format!(
                        "unsupported operator {c:?}; use >= or <="
                    )));
                }
            }
            '\'' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('\'') => break,
                        Some(ch) => s.push(ch),
                        None => return Err(Error::BadQuery("unterminated string literal".into())),
                    }
                }
                out.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                chars.next();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if s.contains('.') {
                    out.push(Tok::Float(s.parse().map_err(|_| {
                        Error::BadQuery(format!("bad float literal {s:?}"))
                    })?));
                } else {
                    out.push(Tok::Int(s.parse().map_err(|_| {
                        Error::BadQuery(format!("bad integer literal {s:?}"))
                    })?));
                }
            }
            c if c.is_alphanumeric() || c == '_' || c == '.' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_alphanumeric() || d == '_' || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(s));
            }
            other => {
                return Err(Error::BadQuery(format!("unexpected character {other:?}")));
            }
        }
    }
    Ok(out)
}

struct Parser<'a> {
    tokens: Vec<Tok>,
    pos: usize,
    planner: Planner<'a>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| Error::BadQuery("unexpected end of query".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next()? {
            Tok::Sym(s) if s == c => Ok(()),
            t => Err(Error::BadQuery(format!("expected {c:?}, got {t:?}"))),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            t => Err(Error::BadQuery(format!("expected a name, got {t:?}"))),
        }
    }

    fn literal(&mut self) -> Result<Value> {
        match self.next()? {
            Tok::Int(i) => Ok(Value::Int(i)),
            Tok::Float(f) => Ok(Value::Float(f)),
            Tok::Str(s) => Ok(Value::Str(s)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("true") => Ok(Value::Bool(true)),
            Tok::Ident(s) if s.eq_ignore_ascii_case("false") => Ok(Value::Bool(false)),
            t => Err(Error::BadQuery(format!("expected a literal, got {t:?}"))),
        }
    }

    fn parse_query(&mut self) -> Result<Query> {
        let index_name = self.ident()?;
        let id = self
            .planner
            .index_by_name(&index_name)
            .ok_or_else(|| Error::BadQuery(format!("no index named {index_name:?}")))?;
        self.expect_sym(':')?;
        let spec = self.planner.spec(id)?;
        let attr_name = self
            .planner
            .schema
            .attr_name(spec.attr.0, spec.attr.1)
            .to_string();
        let mut q = Query::on(id);
        let mut first = true;
        while self.peek().is_some() {
            if self.keyword("forward") {
                q = q.forward_scan();
                continue;
            }
            if self.keyword("distinct") {
                let name = self.ident()?;
                let pos = self.resolve_position(id, &name)?;
                q = q.distinct_through(pos);
                continue;
            }
            if !first && !self.keyword("and") {
                return Err(Error::BadQuery(format!(
                    "expected 'and', got {:?}",
                    self.peek()
                )));
            }
            first = false;
            let name = self.ident()?;
            if let Some(base) = name.strip_suffix(".oid") {
                let pos = self.resolve_position(id, base)?;
                q = q.oid_at(pos, self.parse_oid_sel()?);
            } else if name.eq_ignore_ascii_case(&attr_name) {
                let pred = self.parse_value_pred()?;
                self.check_value_kinds(id, &pred)?;
                q = q.value(pred);
            } else {
                let pos = self.resolve_position(id, &name)?;
                let sel = self.parse_class_sel()?;
                q = q.class_at(pos, sel);
            }
        }
        Ok(q)
    }

    fn resolve_position(&self, id: crate::IndexId, class_name: &str) -> Result<usize> {
        let schema = self.planner.schema;
        let class = schema
            .class_by_name(class_name)
            .ok_or_else(|| Error::BadQuery(format!("unknown class {class_name:?}")))?;
        let spec = self.planner.spec(id)?;
        spec.positions
            .iter()
            .position(|p| {
                schema.is_subclass_of(class, p.class) || schema.is_subclass_of(p.class, class)
            })
            .ok_or_else(|| {
                Error::BadQuery(format!(
                    "class {class_name:?} is not on index {:?}'s path",
                    spec.name
                ))
            })
    }

    /// Literal kinds must match the indexed attribute's declared type —
    /// otherwise the query would silently match nothing.
    fn check_value_kinds(&self, id: crate::IndexId, pred: &ValuePred) -> Result<()> {
        use schema::AttrType;
        let spec = self.planner.spec(id)?;
        let ty = self.planner.schema.attr_type(spec.attr.0, spec.attr.1);
        let ok = |v: &Value| -> bool {
            matches!(
                (ty, v),
                (AttrType::Int, Value::Int(_))
                    | (AttrType::Str, Value::Str(_))
                    | (AttrType::Float, Value::Float(_))
                    | (AttrType::Float, Value::Int(_))
                    | (AttrType::Bool, Value::Bool(_))
            )
        };
        let bad = |v: &Value| -> Result<()> {
            Err(Error::BadQuery(format!(
                "literal {v:?} does not match the indexed attribute's type {ty:?}"
            )))
        };
        match pred {
            ValuePred::Any => {}
            ValuePred::Eq(v) => {
                if !ok(v) {
                    return bad(v);
                }
            }
            ValuePred::In(vs) => {
                for v in vs {
                    if !ok(v) {
                        return bad(v);
                    }
                }
            }
            ValuePred::Range { lo, hi, .. } => {
                for v in lo.iter().chain(hi.iter()) {
                    if !ok(v) {
                        return bad(v);
                    }
                }
            }
        }
        Ok(())
    }

    fn parse_value_pred(&mut self) -> Result<ValuePred> {
        if self.keyword("between") {
            let lo = self.literal()?;
            if !self.keyword("and") {
                return Err(Error::BadQuery("expected 'and' in between".into()));
            }
            let hi = self.literal()?;
            return Ok(ValuePred::between(lo, hi));
        }
        if self.keyword("in") {
            self.expect_sym('(')?;
            let mut vals = vec![self.literal()?];
            while matches!(self.peek(), Some(Tok::Sym(','))) {
                self.pos += 1;
                vals.push(self.literal()?);
            }
            self.expect_sym(')')?;
            return Ok(ValuePred::In(vals));
        }
        match self.next()? {
            Tok::Sym('=') => Ok(ValuePred::eq(self.literal()?)),
            Tok::Ge => Ok(ValuePred::at_least(self.literal()?)),
            Tok::Le => Ok(ValuePred::at_most(self.literal()?)),
            t => Err(Error::BadQuery(format!(
                "expected a value operator, got {t:?}"
            ))),
        }
    }

    fn parse_class_sel(&mut self) -> Result<ClassSel> {
        if self.keyword("is") {
            return self.parse_classref();
        }
        if self.keyword("in") {
            self.expect_sym('[')?;
            let mut sels = vec![self.parse_classref()?];
            while matches!(self.peek(), Some(Tok::Sym(','))) {
                self.pos += 1;
                sels.push(self.parse_classref()?);
            }
            self.expect_sym(']')?;
            return Ok(ClassSel::AnyOf(sels));
        }
        Err(Error::BadQuery(format!(
            "expected 'is' or 'in [..]', got {:?}",
            self.peek()
        )))
    }

    fn parse_classref(&mut self) -> Result<ClassSel> {
        let name = self.ident()?;
        let class = self
            .planner
            .schema
            .class_by_name(&name)
            .ok_or_else(|| Error::BadQuery(format!("unknown class {name:?}")))?;
        if matches!(self.peek(), Some(Tok::Sym('*'))) {
            self.pos += 1;
            Ok(ClassSel::SubTree(class))
        } else {
            Ok(ClassSel::Exact(class))
        }
    }

    fn parse_oid_sel(&mut self) -> Result<OidSel> {
        if self.keyword("in") {
            self.expect_sym('(')?;
            let mut oids = std::collections::BTreeSet::new();
            loop {
                oids.insert(self.oid()?);
                match self.peek() {
                    Some(Tok::Sym(',')) => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            self.expect_sym(')')?;
            return Ok(OidSel::In(oids));
        }
        self.expect_sym('=')?;
        Ok(OidSel::Is(self.oid()?))
    }

    /// An OID literal: an integer in `0..=u32::MAX`.
    fn oid(&mut self) -> Result<Oid> {
        match self.next()? {
            Tok::Int(i) => u32::try_from(i)
                .map(Oid)
                .map_err(|_| Error::BadQuery(format!("oid {i} out of range"))),
            t => Err(Error::BadQuery(format!("expected an oid, got {t:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::UIndex;
    use crate::query::PosPred;
    use crate::spec::IndexSpec;
    use btree::BTreeConfig;
    use pagestore::{BufferPool, MemStore};
    use schema::{AttrType, Encoding, Schema};

    fn setup() -> (UIndex<MemStore>, Schema) {
        let mut s = Schema::new();
        let employee = s.add_class("Employee").unwrap();
        s.add_attr(employee, "Age", AttrType::Int).unwrap();
        let company = s.add_class("Company").unwrap();
        s.add_attr(company, "President", AttrType::Ref(employee))
            .unwrap();
        let jap = s.add_subclass("JapaneseAutoCompany", company).unwrap();
        let _ = jap;
        let vehicle = s.add_class("Vehicle").unwrap();
        s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
        s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
            .unwrap();
        s.add_subclass("Automobile", vehicle).unwrap();
        s.add_subclass("Truck", vehicle).unwrap();
        let enc = Encoding::generate(&s).unwrap();
        let pool = BufferPool::new(MemStore::new(1024), 256);
        let mut index = UIndex::new(pool, BTreeConfig::default(), enc).unwrap();
        index
            .define(
                &s,
                IndexSpec::class_hierarchy("color", vehicle, "Color")
                    .build(&s)
                    .unwrap(),
            )
            .unwrap();
        index
            .define(
                &s,
                IndexSpec::path("age", vehicle, &["MadeBy", "President"], "Age")
                    .build(&s)
                    .unwrap(),
            )
            .unwrap();
        (index, s)
    }

    #[test]
    fn parse_exact_match() {
        let (index, s) = setup();
        let q = parse(index.planner(&s), "color: Color = 'Red'").unwrap();
        assert_eq!(q.index, 0);
        assert_eq!(q.value, ValuePred::Eq(Value::Str("Red".into())));
        assert!(q.preds.is_empty());
    }

    #[test]
    fn parse_class_selectors() {
        let (index, s) = setup();
        let auto = s.class_by_name("Automobile").unwrap();
        let truck = s.class_by_name("Truck").unwrap();
        let q = parse(
            index.planner(&s),
            "color: Color = 'Red' and Vehicle in [Automobile*, Truck]",
        )
        .unwrap();
        assert_eq!(
            q.preds,
            vec![(
                0,
                PosPred {
                    class: ClassSel::AnyOf(vec![ClassSel::SubTree(auto), ClassSel::Exact(truck)]),
                    oid: OidSel::Any,
                }
            )]
        );
    }

    #[test]
    fn parse_path_query_with_modifiers() {
        let (index, s) = setup();
        let q = parse(
            index.planner(&s),
            "age: Age between 40 and 60 and Company in [JapaneseAutoCompany*] \
             and Vehicle.oid = 12 distinct Company forward",
        )
        .unwrap();
        assert_eq!(q.index, 1);
        assert_eq!(
            q.value,
            ValuePred::Range {
                lo: Some(Value::Int(40)),
                hi: Some(Value::Int(60)),
                hi_inclusive: true,
            }
        );
        // Positions: Employee 0, Company 1, Vehicle 2 (code order).
        assert_eq!(q.distinct_upto, Some(1));
        assert_eq!(q.algorithm, crate::ScanAlgorithm::Forward);
        let vehicle_pred = q.preds.iter().find(|(p, _)| *p == 2).unwrap();
        assert_eq!(vehicle_pred.1.oid, OidSel::Is(Oid(12)));
    }

    #[test]
    fn parse_in_and_comparisons() {
        let (index, s) = setup();
        let q = parse(index.planner(&s), "age: Age in (40, 50, 60)").unwrap();
        assert_eq!(
            q.value,
            ValuePred::In(vec![Value::Int(40), Value::Int(50), Value::Int(60)])
        );
        let q = parse(index.planner(&s), "age: Age >= 41").unwrap();
        assert!(matches!(
            q.value,
            ValuePred::Range {
                lo: Some(_),
                hi: None,
                ..
            }
        ));
        let q = parse(index.planner(&s), "age: Age <= 41").unwrap();
        assert!(matches!(
            q.value,
            ValuePred::Range {
                lo: None,
                hi: Some(_),
                ..
            }
        ));
        // A sub-class name resolves to its position.
        let q = parse(
            index.planner(&s),
            "age: JapaneseAutoCompany is JapaneseAutoCompany*",
        )
        .unwrap();
        assert_eq!(q.preds[0].0, 1);
    }

    #[test]
    fn parse_errors() {
        let (index, s) = setup();
        for bad in [
            "nope: Color = 'Red'",                           // unknown index
            "color: Colour = 'Red'",                         // unknown attr/class
            "color: Color = 'Red' Vehicle is Truck",         // missing and
            "color: Color > 'Red'",                          // bare > unsupported
            "color: Color = 'Red' and Employee is Employee", // class not on path
            "color: Color = ",                               // truncated
            "color: Color = 'unterminated",                  // bad string
            "age: Vehicle.oid = -3",                         // negative oid
            "color: Color = 9999",                           // literal/attr type mismatch
            "age: Age in (1, 'x')",                          // mixed-kind In list
            "age: Age between 1 and 'z'",                    // mixed-kind range
        ] {
            assert!(parse(index.planner(&s), bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn oid_literals_must_fit_an_oid() {
        let (index, s) = setup();
        let oid_at_vehicle = |input: &str| {
            let q = parse(index.planner(&s), input)?;
            Ok::<_, Error>(q.preds.into_iter().find(|(p, _)| *p == 2).unwrap().1.oid)
        };
        let max = u32::MAX;
        assert_eq!(
            oid_at_vehicle(&format!("age: Vehicle.oid = {max}")).unwrap(),
            OidSel::Is(Oid(max))
        );
        assert_eq!(
            oid_at_vehicle(&format!("age: Vehicle.oid in (0, {max})")).unwrap(),
            OidSel::In([Oid(0), Oid(max)].into())
        );
        let over = u64::from(max) + 1;
        for bad in [
            format!("age: Vehicle.oid = {over}"),
            format!("age: Vehicle.oid in ({over})"),
            format!("age: Vehicle.oid in (1, {over})"),
            format!("age: Vehicle.oid = {}", over + 1),
        ] {
            match oid_at_vehicle(&bad) {
                Err(Error::BadQuery(msg)) => assert!(msg.contains("out of range"), "{bad}: {msg}"),
                other => panic!("{bad} must be refused, got {other:?}"),
            }
        }
    }
}
