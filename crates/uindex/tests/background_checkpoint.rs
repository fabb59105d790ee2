//! Background checkpointing: checkpoints move off the commit path onto a
//! dedicated thread, which must only ever run at commit boundaries and
//! whose races with the writer (and with crashes) must be invisible —
//! every directory snapshot taken while the thread is live has to reopen
//! to exactly the committed state.

use std::path::{Path, PathBuf};

use objstore::Value;
use schema::{AttrType, Schema};
use uindex::{DiskDatabase, DiskOptions, IndexSpec};

fn tmpdir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("uindex_bg_ckpt_{}_{}", std::process::id(), name));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn vehicle_schema() -> Schema {
    let mut s = Schema::new();
    let vehicle = s.add_class("Vehicle").unwrap();
    s.add_attr(vehicle, "Color", AttrType::Str).unwrap();
    s
}

const COLORS: [&str; 5] = ["Red", "Blue", "Green", "Black", "White"];

fn add_batch(db: &mut DiskDatabase, batch: usize, per_batch: usize) {
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    for i in 0..per_batch {
        let v = db.create_object(vehicle).unwrap();
        let color = COLORS[(batch * per_batch + i) % COLORS.len()];
        db.set_attr(v, "Color", Value::Str(color.into())).unwrap();
    }
}

/// Copy a live database directory, file by file — a crash image. The log
/// goes first: a checkpoint racing the copy may then leave the page file
/// torn or ahead of the log, which replay repairs (page writes are whole
/// images), but never behind a log it has already truncated — objects and
/// index share those pages, and no single moment of a crash looks like
/// that. Files may vanish mid-copy (`write_atomic`'s rename).
fn snapshot_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(src)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    names.sort_by_key(|name| name != "wal.log");
    for name in names {
        if name.to_string_lossy().ends_with(".tmp") {
            continue; // mid-rename scratch file; a crash can lose it too
        }
        match std::fs::copy(src.join(&name), dst.join(&name)) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => panic!("copying {name:?}: {e}"),
        }
    }
}

#[test]
fn background_checkpoints_replace_inline_ones() {
    let dir = tmpdir("off_commit_path");
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 256,
        group_commit: 1,
        checkpoint_every: 2,
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, options).unwrap();
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    db.commit().unwrap();
    db.enable_background_checkpoints();
    assert!(db.background_checkpoints_enabled());

    // Inline checkpoints are counted in this thread's telemetry registry;
    // from here on none should happen (the fallback cap is 4 intervals
    // and the background thread keeps up easily).
    let inline_before = telemetry::counter_value("pagestore.wal.checkpoints");
    for batch in 0..10 {
        add_batch(&mut db, batch, 3);
        db.commit().unwrap();
    }
    // The commit path only signals; wait for the thread to catch up.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.background_checkpoints_completed() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background thread never checkpointed (skipped {})",
            db.background_checkpoints_skipped()
        );
        std::thread::yield_now();
    }
    assert_eq!(
        telemetry::counter_value("pagestore.wal.checkpoints"),
        inline_before,
        "commits checkpointed inline despite the background thread"
    );

    db.close().unwrap();
    let (db, report) = DiskDatabase::open(&dir).unwrap();
    assert!(report.clean(), "{report:?}");
    assert_eq!(db.store().len(), 30);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_background_checkpoint_reopens_clean() {
    let dir = tmpdir("crash_mid_bg");
    let options = DiskOptions {
        page_size: 256,
        pool_pages: 256,
        group_commit: 1,
        checkpoint_every: 1, // signal the thread on *every* commit
        ..DiskOptions::default()
    };
    let mut db = DiskDatabase::create(vehicle_schema(), &dir, options).unwrap();
    let vehicle = db.schema().class_by_name("Vehicle").unwrap();
    db.define_index(IndexSpec::class_hierarchy("color", vehicle, "Color"))
        .unwrap();
    db.commit().unwrap();
    db.enable_background_checkpoints();

    // After every commit, image the directory while the background
    // checkpointer races in: each image is a crash taken at an arbitrary
    // point of a checkpoint's page-file writes.
    let per_batch = 4;
    let rounds = 8;
    let mut images = Vec::new();
    for batch in 0..rounds {
        add_batch(&mut db, batch, per_batch);
        db.commit().unwrap();
        let img = tmpdir(&format!("crash_mid_bg_img{batch}"));
        snapshot_dir(&dir, &img);
        images.push(img);
    }
    drop(db); // crash the writer too: no close, background thread killed

    for (batch, img) in images.iter().enumerate() {
        let (mut db, report) = DiskDatabase::open(img).unwrap();
        // A torn page-file image is allowed to trigger a rebuild from the
        // objects — but never a failure, and never data loss.
        assert!(
            report.tree_ok,
            "image {batch}: open did not produce a working tree: {report:?}"
        );
        assert_eq!(
            db.store().len(),
            (batch + 1) * per_batch,
            "image {batch}: committed objects lost (rebuilt={})",
            report.rebuilt
        );
        let check = db.check().unwrap();
        assert!(check.clean(), "image {batch}: {check:?}");
        std::fs::remove_dir_all(img).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}
