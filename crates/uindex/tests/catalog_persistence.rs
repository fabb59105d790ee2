//! The §4.1 extension: the schema catalog lives in the same B-tree, making
//! a persisted U-index fully self-describing — build on a file, reopen from
//! the pages alone, and query.

use btree::BTreeConfig;
use objstore::{ObjectStore, Value};
use pagestore::{BufferPool, FileStore};
use schema::{AttrType, ClassCode, ClassId, Encoding, Schema};
use uindex::{catalog_entry_count, ClassSel, IndexSpec, Query, UIndex, ValuePred};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_catalog_{}_{}", std::process::id(), name));
    p
}

fn sample_schema() -> Schema {
    let mut s = Schema::new();
    let employee = s.add_class("Employee").unwrap();
    s.add_attr(employee, "Age", AttrType::Int).unwrap();
    let company = s.add_class("Company").unwrap();
    s.add_attr(company, "President", AttrType::Ref(employee))
        .unwrap();
    let _auto_co = s.add_subclass("AutoCompany", company).unwrap();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s.add_attr(vehicle, "MadeBy", AttrType::Ref(company))
        .unwrap();
    let _auto = s.add_subclass("Automobile", vehicle).unwrap();
    s
}

#[test]
fn save_reload_roundtrip_in_memory() {
    let schema = sample_schema();
    let vehicle = schema.class_by_name("Vehicle").unwrap();
    let automobile = schema.class_by_name("Automobile").unwrap();
    let encoding = Encoding::generate(&schema).unwrap();
    let pool = BufferPool::new(pagestore::MemStore::new(1024), 1 << 14);
    let mut index = UIndex::new(pool, BTreeConfig::default(), encoding).unwrap();
    index
        .define(
            &schema,
            IndexSpec::class_hierarchy("color", vehicle, "Color")
                .build(&schema)
                .unwrap(),
        )
        .unwrap();
    index
        .define(
            &schema,
            IndexSpec::path("age", vehicle, &["MadeBy", "President"], "Age")
                .build(&schema)
                .unwrap(),
        )
        .unwrap();

    // Populate through an object store, then save the catalog.
    let mut store = ObjectStore::new(schema.clone());
    let v = store.create(automobile).unwrap();
    store
        .set_attr(v, "Color", Value::Str("Red".into()))
        .unwrap();
    index.build(&store, 0).unwrap();
    let n = index.save_catalog(&schema).unwrap();
    assert!(n >= 10, "classes + attrs + sups + specs: got {n}");
    assert_eq!(catalog_entry_count(&mut index).unwrap(), n as usize);

    // Saving twice does not duplicate.
    let n2 = index.save_catalog(&schema).unwrap();
    assert_eq!(n, n2);
    assert_eq!(catalog_entry_count(&mut index).unwrap(), n as usize);
}

#[test]
fn reopen_from_file_and_query() {
    let path = tmp("reopen");
    let schema = sample_schema();
    let vehicle = schema.class_by_name("Vehicle").unwrap();
    let automobile = schema.class_by_name("Automobile").unwrap();

    // Session 1: build, populate, save catalog, flush.
    let (root, len) = {
        let encoding = Encoding::generate(&schema).unwrap();
        let store_file = FileStore::create(&path, 1024).unwrap();
        let pool = BufferPool::new(store_file, 512);
        let mut index = UIndex::new(pool, BTreeConfig::default(), encoding).unwrap();
        index
            .define(
                &schema,
                IndexSpec::class_hierarchy("color", vehicle, "Color")
                    .build(&schema)
                    .unwrap(),
            )
            .unwrap();
        let mut store = ObjectStore::new(schema.clone());
        for (class, color) in [(vehicle, "Red"), (automobile, "Red"), (automobile, "Blue")] {
            let o = store.create(class).unwrap();
            store
                .set_attr(o, "Color", Value::Str(color.into()))
                .unwrap();
        }
        index.build(&store, 0).unwrap();
        index.save_catalog(&schema).unwrap();
        index.tree().pool().flush().unwrap();
        (index.tree().root(), index.tree().len())
    };

    // Session 2: reopen from pages alone; schema, encoding, and spec come
    // back from the catalog.
    let store_file = FileStore::open(&path).unwrap();
    let pool = BufferPool::new(store_file, 512);
    let (index, schema2) =
        UIndex::open_with_catalog(pool, BTreeConfig::default(), root, len).unwrap();
    assert_eq!(schema2.num_classes(), schema.num_classes());
    for c in schema.class_ids() {
        assert_eq!(schema2.class_name(c), schema.class_name(c));
        assert_eq!(schema2.parents(c), schema.parents(c));
    }
    assert_eq!(index.specs().len(), 1);
    assert_eq!(index.specs()[0].name, "color");

    let vehicle2 = schema2.class_by_name("Vehicle").unwrap();
    let automobile2 = schema2.class_by_name("Automobile").unwrap();
    let (hits, _) = index
        .query(
            &schema2,
            &Query::on(0)
                .value(ValuePred::eq(Value::Str("Red".into())))
                .class_at(0, ClassSel::SubTree(vehicle2)),
        )
        .unwrap();
    assert_eq!(hits.len(), 2);
    let (hits, _) = index
        .query(
            &schema2,
            &Query::on(0)
                .value(ValuePred::eq(Value::Str("Red".into())))
                .class_at(0, ClassSel::SubTree(automobile2)),
        )
        .unwrap();
    assert_eq!(hits.len(), 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn catalog_facts_cluster_by_code() {
    // The paper's point: SUP/attribute facts about one class hierarchy are
    // one contiguous key range. Check that the catalog entries for the
    // Vehicle sub-tree sit between those of other hierarchies.
    let schema = sample_schema();
    let vehicle = schema.class_by_name("Vehicle").unwrap();
    let encoding = Encoding::generate(&schema).unwrap();
    let (lo, hi) = encoding.range(vehicle, true).unwrap();
    let pool = BufferPool::new(pagestore::MemStore::new(1024), 1 << 14);
    let mut index = UIndex::new(pool, BTreeConfig::default(), encoding).unwrap();
    index.save_catalog(&schema).unwrap();

    // All class-fact entries for the Vehicle hierarchy are contiguous.
    let mut prefix = uindex::CATALOG_ID.to_be_bytes().to_vec();
    prefix.push(1); // TAG_CLASS
    let class_entries = index.tree_mut().view().prefix_scan(&prefix).unwrap();
    let in_range: Vec<bool> = class_entries
        .iter()
        .map(|(k, _)| {
            let code = &k[3..k.len() - 3];
            code >= lo.as_slice() && code < hi.as_slice()
        })
        .collect();
    assert_eq!(in_range.iter().filter(|&&b| b).count(), 2); // Vehicle + Automobile
                                                            // Contiguity: the true values form one run.
    let first = in_range.iter().position(|&b| b).unwrap();
    let last = in_range.iter().rposition(|&b| b).unwrap();
    assert!(in_range[first..=last].iter().all(|&b| b));
}

#[test]
fn a_wide_schema_round_trips_through_the_catalog() {
    let mut schema = Schema::new();
    let root = schema.add_class("Root").unwrap();
    // Four-letter sibling components: `Encoding::generate` would give the
    // last of 20 000 siblings a code of kilobytes.
    let mut encoding = Encoding::default();
    let root_code = ClassCode::root(b"N");
    encoding.set_raw(root, root_code.clone());
    for i in 0..20_000u32 {
        let class = schema.add_subclass(&format!("S{i}"), root).unwrap();
        schema
            .add_attr(class, &format!("A{i}"), AttrType::Int)
            .unwrap();
        let comp: Vec<u8> = (0..4)
            .rev()
            .map(|d| b'B' + (i / 25u32.pow(d) % 25) as u8)
            .collect();
        encoding.set_raw(class, root_code.child(&comp));
    }
    let pool = BufferPool::new(pagestore::MemStore::new(1024), 1 << 14);
    let mut index = UIndex::new(pool, BTreeConfig::default(), encoding.clone()).unwrap();
    assert_eq!(index.save_catalog(&schema).unwrap(), 60_001);
    let (root_page, len) = (index.tree().root(), index.tree().len());
    let (back, back_schema) =
        UIndex::open_with_catalog(index.into_pool(), BTreeConfig::default(), root_page, len)
            .unwrap();
    assert_eq!(back_schema.num_classes(), schema.num_classes());
    for c in (0..20_001).map(ClassId) {
        assert_eq!(back_schema.class_name(c), schema.class_name(c));
        assert_eq!(back_schema.parents(c), schema.parents(c));
        let attrs = |s: &Schema| {
            s.own_attrs(c)
                .map(|(_, n, t)| (n.to_string(), t))
                .collect::<Vec<_>>()
        };
        assert_eq!(attrs(&back_schema), attrs(&schema));
        assert_eq!(back.encoding().code(c), encoding.code(c));
    }
}
