//! Serving-layer workload: the vehicle schema with UQL-addressable index
//! names, generic over the page store so the load generator and the
//! torture tests can build the *same* database on the in-memory and the
//! durable tier and cross-check answers byte-for-byte.
//!
//! The experiment-1 generator ([`crate::vehicle::generate`]) names its
//! indexes `vehicle-color` / `vehicle-company-president-age`, which UQL
//! cannot tokenize (identifiers have no hyphens). Here the same shape is
//! published as `color` and `age`, and the statement mix in
//! [`uql_families`] exercises every clause the grammar offers.

use objstore::{Oid, Value};
use pagestore::PageStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::Schema;
use uindex::{Database, IndexSpec, Result};

use crate::vehicle::{build_schema, VehicleClasses, COLORS};

/// The serve workload's schema: the vehicle schema of experiment 1.
pub fn schema() -> (Schema, VehicleClasses) {
    build_schema()
}

/// Populate `db` (already constructed over the [`schema()`]) with the
/// supporting employee/company population, two UQL-addressable indexes
/// (`color`: CH on `Vehicle.Color`; `age`: path
/// `Vehicle/ManufacturedBy/President.Age`), and `n_vehicles` vehicles.
///
/// Deterministic in `seed`: two databases built with the same seed and
/// count — on any page-store tier — index the same logical data and
/// answer every UQL statement identically.
pub fn populate<P: PageStore>(
    db: &mut Database<P>,
    classes: &VehicleClasses,
    seed: u64,
    n_vehicles: usize,
) -> Result<Vec<Oid>> {
    let mut rng = StdRng::seed_from_u64(seed);

    let n_employees = 50;
    let n_companies = 20;
    let mut employees = Vec::with_capacity(n_employees);
    for _ in 0..n_employees {
        let e = db.create_object(classes.employee)?;
        db.set_attr(e, "Age", Value::Int(rng.gen_range(20..70)))?;
        employees.push(e);
    }
    let company_classes = [
        classes.company,
        classes.auto_company,
        classes.japanese_auto_company,
        classes.truck_company,
    ];
    let mut companies = Vec::with_capacity(n_companies);
    for i in 0..n_companies {
        let class = company_classes[rng.gen_range(0..company_classes.len())];
        let c = db.create_object(class)?;
        db.set_attr(c, "Name", Value::Str(format!("Company{i}")))?;
        let pres = employees[rng.gen_range(0..employees.len())];
        db.set_attr(c, "President", Value::Ref(pres))?;
        companies.push(c);
    }

    db.define_index(IndexSpec::class_hierarchy(
        "color",
        classes.vehicle,
        "Color",
    ))?;
    db.define_index(IndexSpec::path(
        "age",
        classes.vehicle,
        &["ManufacturedBy", "President"],
        "Age",
    ))?;

    let vclasses = classes.vehicle_classes();
    let mut vehicles = Vec::with_capacity(n_vehicles);
    for _ in 0..n_vehicles {
        let class = vclasses[rng.gen_range(0..vclasses.len())];
        let v = db.create_object(class)?;
        db.set_attr(
            v,
            "Color",
            Value::Str(COLORS[rng.gen_range(0..COLORS.len())].to_string()),
        )?;
        let made_by = companies[rng.gen_range(0..companies.len())];
        db.set_attr(v, "ManufacturedBy", Value::Ref(made_by))?;
        vehicles.push(v);
    }
    Ok(vehicles)
}

/// The serving workload's statement mix: one UQL string per grammar
/// feature (point/range/set predicates, class selectors, subtree stars,
/// `distinct`, `forward`), split across both indexes. A mixed stream is
/// drawn by indexing into this list with a seeded RNG.
pub fn uql_families() -> Vec<&'static str> {
    vec![
        "color: Color = 'Red'",
        "color: Color = 'Blue'",
        "color: Color in ('Red', 'Blue', 'Green')",
        "color: Color = 'Red' and Vehicle in [Bus*, Truck]",
        "color: Vehicle in [Automobile*]",
        "color: Color = 'Blue' forward",
        "color: Color between 'Gray' and 'Orange'",
        "age: Age between 40 and 60",
        "age: Age >= 65",
        "age: Age <= 30 distinct Company",
        "age: Age <= 30 distinct Company forward",
        "age: Age between 30 and 50 and Company in [AutoCompany*]",
        "age: Age = 45 and Vehicle in [Truck*]",
    ]
}
