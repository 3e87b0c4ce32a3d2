//! The run record: what was measured, on what, from which source.
//!
//! Keyed like a Collective Knowledge experiment record, so numbers from
//! different machines or revisions are never compared by accident: the
//! git revision when there is one, a digest of the sources always (a
//! benchmark checkout need not be a git repository), and the machine.

use std::path::{Path, PathBuf};

/// Machine and source identity of one run.
#[derive(Debug, Clone)]
pub struct Identity {
    /// `git` HEAD commit, or `"none"` outside a git checkout.
    pub rev: String,
    /// FNV-1a digest over the workspace sources and the benchmark.
    pub src_digest: String,
    /// Available parallelism.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
}

impl Identity {
    /// Collects the identity of the checkout at `root`.
    pub fn collect(root: &Path) -> Self {
        Self {
            rev: git_rev(root).unwrap_or_else(|| "none".into()),
            src_digest: format!("{:016x}", source_digest(root)),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        }
    }
}

/// Resolves `.git/HEAD` by reading files, without running git.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let Ok(kind) = e.file_type() else { continue };
        if kind.is_dir() {
            collect_files(&p, out);
        } else if kind.is_file() {
            out.push(p);
        }
    }
}

/// Digest of every file under `crates/`, the lock file and the
/// benchmark's sources, in path order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_files(&root.join(dir), &mut files);
    }
    for f in ["Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            let rel = f.strip_prefix(root).unwrap_or(&f);
            h = fnv1a(h, rel.to_string_lossy().as_bytes());
            h = fnv1a(h, &bytes);
        }
    }
    h
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // Fields: id parent major:minor root mount-point options ... - type source super-options
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some(sep) = fields.iter().position(|&f| f == "-") else {
            continue;
        };
        let (Some(mount), Some(kind)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), kind.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's CPU time stolen by the hypervisor, and its total CPU
/// time, in clock ticks since boot: the `steal` field and the sum of the
/// first eight fields of the `cpu` line of `/proc/stat` (guest time is
/// already counted in user time).
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of the machine's CPU time stolen between two [`cpu_ticks`]
/// readings (NaN when either is missing).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive() {
        let h = 0xcbf2_9ce4_8422_2325u64;
        assert_ne!(fnv1a(fnv1a(h, b"a"), b"b"), fnv1a(fnv1a(h, b"b"), b"a"));
    }

    #[test]
    fn machine_facts_are_readable_here() {
        assert!(peak_rss_mb() > 0.0);
        let (steal, total) = cpu_ticks().expect("/proc/stat cpu line");
        assert!(steal <= total);
        assert_eq!(steal_share(Some((1, 10)), Some((3, 20))), 0.2);
        assert_ne!(fs_type(Path::new(".")), "unknown");
    }
}
