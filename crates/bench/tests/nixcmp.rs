//! The U-index vs NIX comparison (paper §6) runs to the end at a small
//! size: its probe age comes from the data, and the binary's own check
//! that the U-index and NIX return the same vehicles of one company holds.

use std::process::Command;

#[test]
fn nixcmp_completes_and_both_indexes_agree() {
    let out = Command::new(env!("CARGO_BIN_EXE_nixcmp"))
        .env("VEHICLES", "2000")
        .output()
        .expect("run nixcmp");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "nixcmp failed: {}\n{stdout}{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    for row in [
        "vehicles (whole sub-tree), age = ",
        "trucks only, age = ",
        "vehicles of one company, age = ",
        "trucks, ages 30..=50 (range)",
        "storage: U-index single tree = ",
    ] {
        assert!(stdout.contains(row), "no {row:?} row:\n{stdout}");
    }
}
