//! Sharded cache persistence: one checksummed file per workflow.
//!
//! The legacy cache was a single JSON blob re-serialized in full on every
//! `put`, so persistence cost grew with everything ever cached. Shards cut
//! that dependency: entries are grouped by workflow into
//! `shard-<name>-<hash>.json` files under a cache directory, and a `put`
//! rewrites only its own workflow's shard. Durability per shard is the
//! same dance the blob used — write a generation-named temp file, fsync,
//! rename into place, fsync the directory — and every shard carries an
//! FNV-64 checksum so torn or tampered files fail validation and load as
//! empty instead of being trusted.
//!
//! A legacy single-blob file found where the cache directory should be is
//! migrated once: its entries are split into shards and the blob is
//! removed. The blob's `{checksum, entries}` layout is identical to a
//! shard file's, so migration is just "load one shard file, regroup".

use super::CacheEntry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// On-disk layout of one shard (and of the legacy whole-cache blob).
#[derive(Serialize, Deserialize)]
struct ShardFile {
    checksum: String,
    entries: Vec<CacheEntry>,
}

/// FNV-1a, the checksum the cache has always used.
pub(crate) fn fnv64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn checksum(entries: &[CacheEntry]) -> std::io::Result<String> {
    let json = serde_json::to_string(entries).map_err(std::io::Error::other)?;
    Ok(format!("{:016x}", fnv64(json.as_bytes())))
}

/// Serialization state of one workflow's shard: a per-shard lock so
/// same-workflow writers queue while different workflows persist in
/// parallel, plus the generation counters carried over from the blob-era
/// lost-update fix (unique temp names; a stale snapshot never renames
/// over a newer one).
#[derive(Default)]
struct ShardState {
    generation: u64,
    persisted: u64,
}

struct Shard {
    path: PathBuf,
    state: Mutex<ShardState>,
}

/// The on-disk half of the tiered cache: a directory of per-workflow
/// shard files.
pub(crate) struct ShardStore {
    dir: PathBuf,
    shards: Mutex<HashMap<String, Arc<Shard>>>,
}

impl ShardStore {
    /// Opens (creating if needed) the cache directory at `dir`, migrating
    /// a legacy single-blob cache file occupying that path first. Stale
    /// `*.tmp.*` leftovers from crashed puts are swept.
    pub(crate) fn open(dir: &Path) -> std::io::Result<ShardStore> {
        let legacy = match dir.is_file() {
            true => Self::take_legacy_blob(dir)?,
            false => Vec::new(),
        };
        std::fs::create_dir_all(dir)?;
        let store = ShardStore {
            dir: dir.to_path_buf(),
            shards: Mutex::new(HashMap::new()),
        };
        store.sweep_stale_tmp();
        if !legacy.is_empty() {
            let mut by_workflow: HashMap<String, Vec<CacheEntry>> = HashMap::new();
            for e in legacy {
                by_workflow
                    .entry(e.key.workflow.clone())
                    .or_default()
                    .push(e);
            }
            for (workflow, entries) in by_workflow {
                store.update(&workflow, |shard| {
                    for e in entries {
                        shard.retain(|x| x.key != e.key);
                        shard.push(e);
                    }
                })?;
            }
        }
        Ok(store)
    }

    /// Reads and removes a legacy blob file so its path can become the
    /// cache directory. A blob that fails checksum validation is set
    /// aside (renamed `<name>.invalid`) rather than silently destroyed.
    fn take_legacy_blob(path: &Path) -> std::io::Result<Vec<CacheEntry>> {
        match load_entries(path) {
            Some(entries) => {
                std::fs::remove_file(path)?;
                Ok(entries)
            }
            None => {
                let mut aside = path.as_os_str().to_owned();
                aside.push(".invalid");
                std::fs::rename(path, PathBuf::from(aside))?;
                Ok(Vec::new())
            }
        }
    }

    /// The shard file holding `workflow`'s entries. The sanitized name
    /// keeps files readable; the hash suffix keeps distinct workflows that
    /// sanitize identically from colliding.
    fn shard_path(&self, workflow: &str) -> PathBuf {
        let sanitized: String = workflow
            .chars()
            .map(|c| match c.is_ascii_alphanumeric() {
                true => c.to_ascii_lowercase(),
                false => '_',
            })
            .take(32)
            .collect();
        let hash = fnv64(workflow.as_bytes()) as u32;
        self.dir.join(format!("shard-{sanitized}-{hash:08x}.json"))
    }

    fn shard(&self, workflow: &str) -> Arc<Shard> {
        let mut shards = crate::lock(&self.shards);
        Arc::clone(shards.entry(workflow.to_string()).or_insert_with(|| {
            Arc::new(Shard {
                path: self.shard_path(workflow),
                state: Mutex::new(ShardState::default()),
            })
        }))
    }

    /// Loads `workflow`'s entries from its shard file; missing or invalid
    /// shards read as empty — serving must start regardless.
    pub(crate) fn load(&self, workflow: &str) -> Vec<CacheEntry> {
        load_entries(&self.shard(workflow).path).unwrap_or_default()
    }

    /// Read-modify-writes one workflow's shard durably: load under the
    /// shard lock, apply `mutate`, then write-fsync-rename-fsync so a
    /// crash at any point leaves either the old or the new shard, never a
    /// torn one. Cost is proportional to this shard alone — the other
    /// workflows' files are untouched.
    pub(crate) fn update(
        &self,
        workflow: &str,
        mutate: impl FnOnce(&mut Vec<CacheEntry>),
    ) -> std::io::Result<()> {
        let shard = self.shard(workflow);
        let mut state = crate::lock(&shard.state);
        let mut entries = load_entries(&shard.path).unwrap_or_default();
        mutate(&mut entries);
        state.generation += 1;
        let gen = state.generation;
        if state.persisted >= gen {
            // Unreachable while the lock covers load-through-rename; kept
            // as the blob-era guard against ever renaming a stale snapshot
            // over a newer committed one.
            return Ok(());
        }
        let file = ShardFile {
            checksum: checksum(&entries)?,
            entries,
        };
        let json = serde_json::to_string_pretty(&file).map_err(std::io::Error::other)?;
        let tmp = shard.path.with_extension(format!("tmp.{gen}"));
        let result = (|| {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(json.as_bytes())?;
            // Durable before visible: rename must never expose a file
            // whose bytes could still be lost by a crash.
            f.sync_all()?;
            std::fs::rename(&tmp, &shard.path)
        })();
        if let Err(e) = result {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // Visible even if the directory fsync below fails — record it
        // before anything else can error.
        state.persisted = gen;
        // The rename itself lives in the directory; fsync it so a crash
        // can't roll the shard back to the previous generation.
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    /// Every entry across every shard (for export, counting, and scans).
    pub(crate) fn all_entries(&self) -> Vec<CacheEntry> {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("shard-") && name.ends_with(".json") {
                out.extend(load_entries(&entry.path()).unwrap_or_default());
            }
        }
        out
    }

    /// Number of shard files on disk.
    pub(crate) fn shard_count(&self) -> usize {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        dir.flatten()
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".json"))
            })
            .count()
    }

    /// Removes `*.tmp.*` leftovers from puts that died between temp-file
    /// creation and rename.
    fn sweep_stale_tmp(&self) {
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.contains(".tmp."))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Loads and validates one shard (or legacy blob) file. `None` when the
/// file is missing, unparsable, or fails its checksum.
fn load_entries(path: &Path) -> Option<Vec<CacheEntry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let file: ShardFile = serde_json::from_str(&text).ok()?;
    let expect = checksum(&file.entries).ok()?;
    (expect == file.checksum).then_some(file.entries)
}

/// Serializes entries in the shard/blob layout — shared with the export
/// bundle writer so a bundle is verifiable with the same code path.
pub(crate) fn to_checked_json(entries: &[CacheEntry]) -> std::io::Result<String> {
    let file = ShardFile {
        checksum: checksum(entries)?,
        entries: entries.to_vec(),
    };
    serde_json::to_string_pretty(&file).map_err(std::io::Error::other)
}

/// Parses and validates text in the shard/blob layout.
pub(crate) fn from_checked_json(text: &str) -> Option<Vec<CacheEntry>> {
    let file: ShardFile = serde_json::from_str(text).ok()?;
    let expect = checksum(&file.entries).ok()?;
    (expect == file.checksum).then_some(file.entries)
}
