//! Hostile-input corpus for the UQL parser: arbitrary strings, soups of
//! grammar tokens, and every truncation and single-character deletion or
//! duplication of the valid statements the parser's tests and the serving
//! workload use — against two schemas: the parser's unit-test schema and
//! `workload::serve`'s.
//!
//! Whatever the input, parsing yields `Ok`, `Error::BadQuery` or
//! `Error::UnknownIndex`, never a panic. An accepted query also plans —
//! `Ok` or an error that is not a storage error, since planning reads no
//! pages — and runs to `Ok` or a typed error.

use objstore::Value;
use proptest::prelude::*;
use schema::{AttrType, Schema};
use uindex::{analysis, uql, Database, Error, IndexSpec};

/// The schema and indexes of the parser's unit tests (`uql.rs`), with a
/// few objects so an accepted query has something to scan.
fn unit_test_db() -> Database {
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let jap = s.add_subclass("JapaneseAutoCompany", company).unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    let auto = s.add_subclass("Automobile", vehicle).unwrap();
    let truck = s.add_subclass("Truck", vehicle).unwrap();
    let mut db = Database::in_memory(s).unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    db.define_index(IndexSpec::path(
        "age",
        vehicle,
        &["MadeBy", "President"],
        "Age",
    ))
    .unwrap();
    // Two companies, each with a president and one car and one truck.
    for (age, class) in [(45, company), (55, jap)] {
        let president = db.create_object(employee).unwrap();
        db.set_attr(president, "Age", Value::Int(age)).unwrap();
        let c = db.create_object(class).unwrap();
        db.set_attr(c, "President", Value::Ref(president)).unwrap();
        for (vclass, color) in [(auto, "Red"), (truck, "Blue")] {
            let v = db.create_object(vclass).unwrap();
            db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
            db.set_attr(v, "MadeBy", Value::Ref(c)).unwrap();
        }
    }
    db
}

/// The serving workload's schema, indexes and a small population.
fn serve_db() -> Database {
    let (schema, classes) = workload::serve::schema();
    let mut db = Database::in_memory(schema).unwrap();
    workload::serve::populate(&mut db, &classes, 7, 40).unwrap();
    db
}

/// Both databases, built once per thread.
fn with_dbs(f: impl FnOnce(&[Database; 2])) {
    thread_local! {
        static DBS: [Database; 2] = [unit_test_db(), serve_db()];
    }
    DBS.with(f);
}

/// Parse `input` against `db`; when accepted, plan and run it.
fn check(db: &Database, input: &str) {
    let q = match uql::parse(db.planner(), input) {
        Ok(q) => q,
        Err(Error::BadQuery(_) | Error::UnknownIndex(_)) => return,
        Err(e) => panic!("{input:?}: parse gave {e:?}"),
    };
    let planned = [
        analysis::class_groups(db.planner(), &q),
        analysis::value_groups(db.planner(), &q),
    ];
    for result in planned {
        if let Err(e @ (Error::Page(_) | Error::BadKey(_) | Error::NotADatabase(_))) = result {
            panic!("{input:?}: planning gave the storage error {e:?}");
        }
    }
    // Any outcome is typed; the run must only not panic.
    let _ = db.query(&q);
}

fn check_both(input: &str) {
    with_dbs(|dbs| dbs.iter().for_each(|db| check(db, input)));
}

/// Statements one of the two schemas accepts: the parser's unit tests' and
/// the serving workload's mix.
fn valid_statements() -> Vec<String> {
    let mut out: Vec<String> = [
        "color: Color = 'Red'",
        "color: Color = 'Red' and Vehicle in [Automobile*, Truck]",
        "age: Age between 40 and 60 and Company in [JapaneseAutoCompany*] \
         and Vehicle.oid = 12 distinct Company forward",
        "age: Age in (40, 50, 60)",
        "age: Age >= 41",
        "age: Age <= 41",
        "age: JapaneseAutoCompany is JapaneseAutoCompany*",
        "age: Vehicle.oid in (0, 4294967295)",
    ]
    .map(String::from)
    .to_vec();
    out.extend(
        workload::serve::uql_families()
            .into_iter()
            .map(String::from),
    );
    out
}

#[test]
fn the_valid_statements_parse() {
    with_dbs(|dbs| {
        for stmt in valid_statements() {
            assert!(
                dbs.iter().any(|db| uql::parse(db.planner(), &stmt).is_ok()),
                "{stmt:?} must parse against one of the schemas"
            );
        }
    });
}

#[test]
fn every_truncation_deletion_and_duplication_is_refused_or_planned() {
    for stmt in valid_statements() {
        let chars: Vec<(usize, char)> = stmt.char_indices().collect();
        for &(at, c) in &chars {
            let end = at + c.len_utf8();
            check_both(&stmt[..at]);
            check_both(&[&stmt[..at], &stmt[end..]].concat());
            check_both(&[&stmt[..end], &stmt[at..]].concat());
        }
    }
}

/// Characters: mostly printable ASCII, some arbitrary scalar values.
fn arb_char() -> impl Strategy<Value = char> {
    prop_oneof![
        6 => 0x20u32..0x7f,
        1 => 0u32..0x20,
        1 => 0x80u32..0x11_0000,
        1 => any::<u32>(),
    ]
    .prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}'))
}

/// Everything the grammar knows, and near misses of it.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    // Keywords and modifiers.
    "and", "AND", "between", "in", "is", "distinct", "forward", "true", "false",
    "explain", "analyze",
    // Index, class and attribute names of both schemas, and unknown ones.
    "color", "age", "nope", "Color", "Age", "Name", "MadeBy", "ManufacturedBy",
    "President", "Vehicle", "Automobile", "Truck", "Bus", "Company", "AutoCompany",
    "JapaneseAutoCompany", "TruckCompany", "Employee", "City", "Colour",
    // OID selectors.
    ".oid", "Vehicle.oid", "Company.oid", "Employee.oid", "oid", ".",
    // Symbols and operators.
    ":", "(", ")", "[", "]", ",", "*", "=", ">=", "<=", ">", "<", "!", "'", "\"",
    // String literals.
    "'Red'", "'Blue'", "''", "'unterminated", "'it''s'",
    // Signed, huge and float literals.
    "0", "-0", "1", "-1", "12", "40", "60", "4294967295", "4294967296", "-4294967296",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "99999999999999999999", "1.5", "-0.0", "1.", ".5", "1.2.3", "-", "--1", "1e5",
    "NaN", "inf",
];

/// A run of grammar tokens, each followed by a space or not, after an
/// index name and a colon two times in three.
fn token_soup() -> impl Strategy<Value = String> {
    let toks = proptest::collection::vec((0..TOKENS.len(), any::<bool>()), 0..24);
    (0..3usize, toks).prop_map(|(head, toks)| {
        let head = ["color: ", "age: ", ""][head].to_string();
        toks.into_iter().fold(head, |mut s, (t, space)| {
            s.push_str(TOKENS[t]);
            if space {
                s.push(' ');
            }
            s
        })
    })
}

/// Names a clause may start with: attributes and classes of both schemas,
/// and one of neither.
const NAMES: &[&str] = &[
    "Color",
    "Age",
    "Name",
    "Vehicle",
    "Automobile",
    "Truck",
    "Bus",
    "Company",
    "AutoCompany",
    "JapaneseAutoCompany",
    "Employee",
    "Nope",
];
/// Literals, of every kind and at the edges of `i64` and of an OID.
const LITERALS: &[&str] = &[
    "'Red'",
    "'Blue'",
    "''",
    "0",
    "-1",
    "12",
    "40",
    "60",
    "4294967295",
    "4294967296",
    "-9223372036854775808",
    "9223372036854775807",
    "1.5",
    "-0.0",
    "true",
];
/// Class references, with and without the sub-tree star.
const CLASSES: &[&str] = &[
    "Vehicle",
    "Automobile*",
    "Truck",
    "Bus*",
    "Company*",
    "JapaneseAutoCompany",
    "Employee",
    "Nope",
];

/// One clause of every shape the grammar has, over any name and literals.
fn clause() -> impl Strategy<Value = String> {
    let pick = |list: &'static [&'static str]| (0..list.len()).prop_map(move |i| list[i]);
    (
        pick(NAMES),
        0..9usize,
        (pick(LITERALS), pick(LITERALS)),
        (pick(CLASSES), pick(CLASSES)),
    )
        .prop_map(|(n, shape, (a, b), (c, d))| match shape {
            0 => format!("{n} = {a}"),
            1 => format!("{n} >= {a}"),
            2 => format!("{n} <= {a}"),
            3 => format!("{n} between {a} and {b}"),
            4 => format!("{n} in ({a}, {b})"),
            5 => format!("{n} is {c}"),
            6 => format!("{n} in [{c}, {d}]"),
            7 => format!("{n}.oid = {a}"),
            _ => format!("{n}.oid in ({a}, {b})"),
        })
}

/// Statements built from the grammar: an index, clauses joined by `and`,
/// and modifiers — well-formed, but over any names and literals.
fn grammar_statement() -> impl Strategy<Value = String> {
    let modifiers = proptest::collection::vec(0..=CLASSES.len(), 0..3);
    (
        0..3usize,
        proptest::collection::vec(clause(), 0..4),
        modifiers,
    )
        .prop_map(|(index, clauses, modifiers)| {
            let mut s = format!(
                "{}: {}",
                ["color", "age", "nope"][index],
                clauses.join(" and ")
            );
            for m in modifiers {
                match CLASSES.get(m) {
                    Some(class) => s += &format!(" distinct {}", class.trim_end_matches('*')),
                    None => s += " forward",
                }
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_strings_are_refused_or_planned(
        chars in proptest::collection::vec(arb_char(), 0..64),
    ) {
        check_both(&chars.into_iter().collect::<String>());
    }

    #[test]
    fn token_soup_is_refused_or_planned(soup in token_soup()) {
        check_both(&soup);
    }

    #[test]
    fn grammar_built_statements_are_refused_or_planned(stmt in grammar_statement()) {
        check_both(&stmt);
    }

    #[test]
    fn statements_with_a_token_spliced_in_are_refused_or_planned(
        stmt in any::<usize>(),
        at in any::<usize>(),
        soup in token_soup(),
    ) {
        let stmts = valid_statements();
        let stmt = &stmts[stmt % stmts.len()];
        let cut = stmt
            .char_indices()
            .map(|(i, _)| i)
            .nth(at % stmt.chars().count())
            .unwrap_or(0);
        check_both(&[&stmt[..cut], " ", &soup, " ", &stmt[cut..]].concat());
    }
}
