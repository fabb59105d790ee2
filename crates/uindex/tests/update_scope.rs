//! An update consults only the indexes its attribute feeds.
//!
//! `Database::set_attr` enumerates entries in an index only when the index
//! reads the attribute — as its indexed attribute or as the via reference
//! of a position (`IndexSpec::reads`). Every other index must keep exactly
//! its entries. This holds the narrowed maintenance to a full
//! recomputation: after every random mutation `check()` compares the whole
//! tree with the entries recomputed from the object store.
//!
//! The schema is built so that the narrowing has something to get wrong:
//! five indexes, one path whose via is declared on a superclass of its
//! position's class, an indexed attribute inherited by the classes it is
//! set through, a `RefSet` via, and attributes that no index reads.

use objstore::{Oid, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use schema::{AttrType, ClassId, Schema};
use uindex::{Database, IndexSpec};

const COLORS: [&str; 4] = ["Red", "Blue", "Green", "Black"];
const NAMES: [&str; 4] = ["Ada", "Bo", "Cy", "Di"];

struct Classes {
    person: ClassId,
    employee: ClassId,
    manager: ClassId,
    company: ClassId,
    vehicle: ClassId,
    automobile: ClassId,
    truck: ClassId,
}

fn schema() -> (Schema, Classes) {
    let mut s = Schema::new();
    let person = s.add_class("Person").unwrap();
    s.add_attr(person, "Name", AttrType::Str).unwrap();
    s.add_attr(person, "Age", AttrType::Int).unwrap();
    let employee = s.add_subclass("Employee", person).unwrap();
    s.add_attr(employee, "Salary", AttrType::Int).unwrap();
    let manager = s.add_subclass("Manager", employee).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    s.add_attr(company, "Founded", AttrType::Int).unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    s.add_attr(vehicle, "Owners", AttrType::RefSet(person))
        .unwrap();
    s.add_attr(vehicle, "Weight", AttrType::Int).unwrap();
    let automobile = s.add_subclass("Automobile", vehicle).unwrap();
    s.add_attr(automobile, "Doors", AttrType::Int).unwrap();
    let truck = s.add_subclass("Truck", vehicle).unwrap();
    let classes = Classes {
        person,
        employee,
        manager,
        company,
        vehicle,
        automobile,
        truck,
    };
    (s, classes)
}

/// The five indexes:
/// * `color` — `Vehicle.Color` over the hierarchy;
/// * `auto_age` — automobiles by their maker's president's age: the
///   automobile position's via `MadeBy` is declared on `Vehicle`, and
///   `Age` on `Person`, above the `Employee` position that owns it;
/// * `owner_name` — vehicles by their owners' names, through the `RefSet`
///   via `Owners`;
/// * `exact_age` — companies by their president's age, exact classes only
///   (a manager president is not in it);
/// * `salary` — `Employee.Salary` over the hierarchy.
fn indexes(db: &mut Database, c: &Classes) {
    db.define_index(IndexSpec::class_hierarchy("color", c.vehicle, "Color"))
        .unwrap();
    db.define_index(IndexSpec::path(
        "auto_age",
        c.automobile,
        &["MadeBy", "President"],
        "Age",
    ))
    .unwrap();
    db.define_index(IndexSpec::path(
        "owner_name",
        c.vehicle,
        &["Owners"],
        "Name",
    ))
    .unwrap();
    db.define_index(IndexSpec::path("exact_age", c.company, &["President"], "Age").exact_classes())
        .unwrap();
    db.define_index(IndexSpec::class_hierarchy("salary", c.employee, "Salary"))
        .unwrap();
}

/// Which of the five indexes read `class`'s attribute `name`.
fn readers<'a>(db: &'a Database, class: ClassId, name: &str) -> Vec<&'a str> {
    let attr = db.schema().resolve_attr(class, name).unwrap();
    db.index()
        .specs()
        .iter()
        .filter(|s| s.reads(attr))
        .map(|s| s.name.as_str())
        .collect()
}

#[test]
fn an_attribute_feeds_the_indexes_that_name_it() {
    let (s, c) = schema();
    let mut db = Database::in_memory(s).unwrap();
    indexes(&mut db, &c);
    assert_eq!(readers(&db, c.truck, "Color"), ["color"]);
    // A via declared on a superclass is found through any subclass.
    assert_eq!(readers(&db, c.automobile, "MadeBy"), ["auto_age"]);
    assert_eq!(readers(&db, c.truck, "MadeBy"), ["auto_age"]);
    assert_eq!(readers(&db, c.vehicle, "Owners"), ["owner_name"]);
    // An inherited indexed attribute, set through a subclass.
    assert_eq!(readers(&db, c.manager, "Age"), ["auto_age", "exact_age"]);
    assert_eq!(readers(&db, c.person, "Name"), ["owner_name"]);
    assert_eq!(
        readers(&db, c.company, "President"),
        ["auto_age", "exact_age"]
    );
    assert_eq!(readers(&db, c.manager, "Salary"), ["salary"]);
    for (class, name) in [
        (c.vehicle, "Weight"),
        (c.automobile, "Doors"),
        (c.company, "Founded"),
    ] {
        assert!(readers(&db, class, name).is_empty(), "{name}");
    }
}

struct World {
    db: Database,
    c: Classes,
    persons: Vec<Oid>,
    employees: Vec<Oid>,
    companies: Vec<Oid>,
    vehicles: Vec<Oid>,
}

fn pick(rng: &mut StdRng, oids: &[Oid]) -> Oid {
    oids[rng.gen_range(0..oids.len())]
}

impl World {
    fn build(rng: &mut StdRng) -> World {
        let (s, c) = schema();
        let mut w = World {
            db: Database::in_memory(s).unwrap(),
            c,
            persons: Vec::new(),
            employees: Vec::new(),
            companies: Vec::new(),
            vehicles: Vec::new(),
        };
        for i in 0..12 {
            let class = [w.c.person, w.c.employee, w.c.manager][i % 3];
            let p = w.db.create_object(class).unwrap();
            w.db.set_attr(p, "Name", Value::Str(NAMES[i % 4].into()))
                .unwrap();
            w.db.set_attr(p, "Age", Value::Int(rng.gen_range(20..70)))
                .unwrap();
            w.persons.push(p);
            if class != w.c.person {
                w.db.set_attr(p, "Salary", Value::Int(rng.gen_range(1..9)))
                    .unwrap();
                w.employees.push(p);
            }
        }
        for _ in 0..5 {
            let co = w.db.create_object(w.c.company).unwrap();
            let president = pick(rng, &w.employees);
            w.db.set_attr(co, "President", Value::Ref(president))
                .unwrap();
            w.companies.push(co);
        }
        // Persons and companies are built into the indexes, vehicles
        // inserted one entry at a time.
        indexes(&mut w.db, &w.c);
        for _ in 0..24 {
            w.create_vehicle(rng);
        }
        w
    }

    fn create_vehicle(&mut self, rng: &mut StdRng) {
        let class = [self.c.vehicle, self.c.automobile, self.c.truck][rng.gen_range(0..3)];
        let v = self.db.create_object(class).unwrap();
        let color = COLORS[rng.gen_range(0..COLORS.len())];
        self.db
            .set_attr(v, "Color", Value::Str(color.into()))
            .unwrap();
        let maker = pick(rng, &self.companies);
        self.db.set_attr(v, "MadeBy", Value::Ref(maker)).unwrap();
        let owners = self.owners(rng);
        self.db.set_attr(v, "Owners", owners).unwrap();
        self.vehicles.push(v);
    }

    /// Zero to three live persons.
    fn owners(&self, rng: &mut StdRng) -> Value {
        let live: Vec<Oid> = self
            .persons
            .iter()
            .copied()
            .filter(|&p| self.db.store().exists(p))
            .collect();
        let n = rng.gen_range(0..4).min(live.len());
        Value::RefSet((0..n).map(|_| pick(rng, &live)).collect())
    }

    fn live(&self, oids: &[Oid]) -> Vec<Oid> {
        oids.iter()
            .copied()
            .filter(|&o| self.db.store().exists(o))
            .collect()
    }

    /// One random mutation; returns what it did.
    fn mutate(&mut self, rng: &mut StdRng) -> String {
        let vehicles = self.live(&self.vehicles);
        let persons = self.live(&self.persons);
        let employees = self.live(&self.employees);
        let v = pick(rng, &vehicles);
        let p = pick(rng, &persons);
        let co = pick(rng, &self.companies);
        let class = |db: &Database, o: Oid| {
            let c = db.store().class_of(o).unwrap();
            db.schema().class_name(c).to_string()
        };
        let (oid, attr, value) = match rng.gen_range(0..12) {
            0 => {
                let color = COLORS[rng.gen_range(0..COLORS.len())];
                (v, "Color", Value::Str(color.into()))
            }
            1 => (v, "MadeBy", Value::Ref(pick(rng, &self.companies))),
            2 => (v, "Owners", self.owners(rng)),
            3 => (p, "Age", Value::Int(rng.gen_range(20..70))),
            4 => (p, "Name", Value::Str(NAMES[rng.gen_range(0..4)].into())),
            5 => {
                let e = pick(rng, &employees);
                (e, "Salary", Value::Int(rng.gen_range(1..9)))
            }
            6 => (co, "President", Value::Ref(pick(rng, &employees))),
            7 => (v, "Weight", Value::Int(rng.gen_range(500..3000))),
            8 => (co, "Founded", Value::Int(rng.gen_range(1900..2000))),
            9 => {
                let cars: Vec<Oid> = vehicles
                    .iter()
                    .copied()
                    .filter(|&o| self.db.store().class_of(o).unwrap() == self.c.automobile)
                    .collect();
                if cars.is_empty() {
                    return "no automobile to give doors".into();
                }
                (pick(rng, &cars), "Doors", Value::Int(rng.gen_range(2..6)))
            }
            10 => {
                if vehicles.len() > 8 && rng.gen_bool(0.5) {
                    self.db.delete_object(v, false).unwrap();
                    return format!("delete {v:?}");
                }
                self.create_vehicle(rng);
                return "create a vehicle".into();
            }
            _ => {
                // A person nobody presides over, deleted with its owner
                // references left dangling.
                let presidents: Vec<Oid> = self
                    .companies
                    .iter()
                    .filter_map(|&co| match self.db.store().attr(co, "President").unwrap() {
                        Some(Value::Ref(e)) => Some(*e),
                        _ => None,
                    })
                    .collect();
                if persons.len() <= 6 || presidents.contains(&p) {
                    return "no person to delete".into();
                }
                self.db.delete_object(p, true).unwrap();
                return format!("force-delete {p:?}");
            }
        };
        let what = format!("{} {oid:?}.{attr} = {value:?}", class(&self.db, oid));
        self.db.set_attr(oid, attr, value).unwrap();
        what
    }
}

#[test]
fn narrowed_maintenance_equals_a_full_recomputation() {
    for seed in 0..4 {
        let mut rng = StdRng::seed_from_u64(0x5c0e + seed);
        let mut w = World::build(&mut rng);
        assert!(w.db.check().unwrap().clean(), "seed {seed}: after the load");
        for step in 0..150 {
            let what = w.mutate(&mut rng);
            let report = w.db.check().unwrap();
            assert!(
                report.clean(),
                "seed {seed}, step {step} ({what}): {report:?}"
            );
        }
    }
}
