//! What the benchmark reads from the host: process counters in `/proc`,
//! directory sizes, and the provenance every output carries.

use std::path::Path;
use std::process::Command;

/// A `key: value kB`-style field of `/proc/self/status`, in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// This process's cumulative write traffic (`/proc/self/io`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounters {
    /// Bytes passed to write-like syscalls (`wchar`).
    pub write_bytes: u64,
    /// Write-like syscalls (`syscw`).
    pub write_syscalls: u64,
}

pub fn io_counters() -> IoCounters {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    let field = |name: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0)
    };
    IoCounters {
        write_bytes: field("wchar:"),
        write_syscalls: field("syscw:"),
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    pub git: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|c| {
                c.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Provenance {
            git: command_line("git", &["describe", "--always", "--dirty"])
                .unwrap_or_else(|| "not-a-git-checkout".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
        }
    }

    /// As a JSON object, for the trace files.
    pub fn to_json(&self) -> String {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        format!(
            "{{\"git\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"cpu\": \"{}\", \
             \"undersized_host\": {}}}",
            esc(&self.git),
            esc(&self.rustc),
            self.nproc,
            esc(&self.cpu),
            self.undersized_host()
        )
    }

    /// A host with fewer than two CPUs cannot run two clients beside the
    /// server; its results are labelled, not silently measured.
    pub fn undersized_host(&self) -> bool {
        self.nproc < 2
    }

    /// Load threads/connections: never more than the host has CPUs.
    pub fn clients(&self) -> usize {
        self.nproc.min(2)
    }
}
