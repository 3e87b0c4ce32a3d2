//! `bench-cache` — measurement harness for the tiered autotune cache.
//!
//! Three measurements, written to `BENCH_cache.json` keyed by git
//! revision so successive PRs track the cache the way `BENCH_serve.json`
//! tracks the serve path:
//!
//! * **hit latency** — p50 of `get` answered by the in-memory LRU front,
//!   and p50 of `get` forced down to a shard on disk (capacity-1 front,
//!   alternating keys).
//! * **put flatness** — p50 latency of a `put` into one probe workflow
//!   while filler workflows grow the cache from ~1% to full size
//!   (default 10 000 entries across 100 workflows). Sharded persistence
//!   means the probe shard is the only file rewritten, so the ratio of
//!   the two medians must stay near 1; the run fails if it exceeds
//!   [`MAX_FLATNESS_RATIO`] — that would mean put cost has become a
//!   function of total cache size again, the exact regression the
//!   single-blob layout had.
//! * **transfer spend** — a cold campaign and a transfer-seeded campaign
//!   are run on the same near-miss platform; the harness records how
//!   many coupled oracle runs each needed before measuring a
//!   configuration as good as the cold campaign's final best, and fails
//!   unless seeding reduced that spend.
//!
//! ```text
//! cargo run --release -p ceal-bench --bin bench-cache -- \
//!     [--entries N] [--workflows W] [--out PATH] [--smoke]
//! ```
//!
//! `--smoke` shrinks every scenario to CI size, skips the JSON report,
//! and additionally drives an export → import → warm-serve round trip
//! through a real server pair (the `cache export` / `--cache-import`
//! deployment path), exiting non-zero unless the second server answers
//! the shipped campaign from cache with zero oracle spend.

use ceal_bench::report::print_table;
use ceal_serve::{
    platform_features, platform_fingerprint, AutotuneCache, CacheEntry, CacheKey, Client,
    ServeConfig, Server, ServerMetrics, SessionManager, TuneParams,
};
use ceal_sim::Platform;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Full-to-small put-median ratio above which put cost is considered to
/// have regressed into size-dependence. Sharded writes keep the true
/// ratio near 1.0; the slack absorbs timer noise on loaded CI machines.
const MAX_FLATNESS_RATIO: f64 = 4.0;

struct Args {
    entries: usize,
    workflows: usize,
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        entries: 10_000,
        workflows: 100,
        out: "BENCH_cache.json".into(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    fn want<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
        v.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} wants a value");
            std::process::exit(2);
        })
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entries" => args.entries = want::<usize>("--entries", it.next()).max(100),
            "--workflows" => args.workflows = want::<usize>("--workflows", it.next()).max(2),
            "--out" => args.out = want("--out", it.next()),
            "--smoke" => args.smoke = true,
            other => {
                eprintln!(
                    "unknown argument '{other}' (usage: bench-cache [--entries N] \
                     [--workflows W] [--out PATH] [--smoke])"
                );
                std::process::exit(2);
            }
        }
    }
    if args.smoke {
        args.entries = 600;
        args.workflows = 12;
    }
    args
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench-cache-{tag}-{}", std::process::id()))
}

/// Sorted-latency percentile (nearest-rank on an already-sorted slice).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median_us(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    percentile(&samples, 50.0)
}

/// A synthetic completed campaign: realistic entry size (a full budget's
/// worth of samples) so shard serialization cost is representative.
fn synthetic_entry(workflow: &str, seed: u64) -> CacheEntry {
    let key = CacheKey {
        workflow: workflow.into(),
        platform: platform_fingerprint(&Platform::default()),
        objective: "comp".into(),
        pool: 500,
        seed,
        budget: 25,
        algo: "session:ceal".into(),
    };
    let samples: Vec<(Vec<i64>, f64)> = (0..25)
        .map(|i| {
            let base = seed as i64 * 31 + i;
            (
                vec![
                    base % 64 + 1,
                    base % 8 + 1,
                    2,
                    base % 48 + 1,
                    base % 6 + 1,
                    1,
                ],
                1.0 + (base % 97) as f64 / 10.0,
            )
        })
        .collect();
    let (best, best_value) = samples
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .cloned()
        .unwrap();
    CacheEntry {
        key,
        best,
        best_value,
        runs_used: 25,
        component_runs: 12,
        samples,
        platform_features: platform_features(&Platform::default()),
    }
}

/// Hit latency: p50 of front-resident `get`s and of `get`s forced to a
/// disk shard (capacity-1 front, two alternating workflows).
fn bench_hit_latency(entries: usize, workflows: usize) -> (f64, f64) {
    let dir = temp_dir("hits");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cache = AutotuneCache::at_path(&dir);
        for i in 0..entries {
            cache
                .put(synthetic_entry(
                    &format!("SYN{:03}", i % workflows),
                    (i / workflows) as u64,
                ))
                .expect("populate put");
        }
    }
    let reps = 2_000;

    // Front tier: a warm cache with everything resident.
    let cache = AutotuneCache::at_path(&dir);
    let key_a = synthetic_entry("SYN000", 0).key;
    let key_b = synthetic_entry("SYN001", 0).key;
    assert!(cache.get(&key_a).is_some() && cache.get(&key_b).is_some());
    let mut front_us = Vec::with_capacity(reps);
    for i in 0..reps {
        let key = if i % 2 == 0 { &key_a } else { &key_b };
        let t = Instant::now();
        let hit = cache.get(key);
        front_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(hit.is_some());
    }
    let lru_hits = cache.stats().lru_hits;
    assert!(lru_hits >= reps as u64, "warm gets must be front hits");

    // Disk tier: a capacity-1 front and two alternating workflows, so
    // every lookup misses the front and loads a shard.
    let cache = AutotuneCache::at_path_with_capacity(&dir, 1);
    let mut disk_us = Vec::with_capacity(reps);
    for i in 0..reps {
        let key = if i % 2 == 0 { &key_a } else { &key_b };
        let t = Instant::now();
        let hit = cache.get(key);
        disk_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(hit.is_some());
    }
    assert_eq!(cache.stats().lru_hits, 0, "alternating gets must all miss");

    let _ = std::fs::remove_dir_all(&dir);
    (median_us(front_us), median_us(disk_us))
}

/// Put flatness: median latency of re-putting one probe workflow's entry
/// while filler workflows grow the cache, sampled when the cache is
/// near-empty and again at full size.
fn bench_put_flatness(entries: usize, workflows: usize) -> (f64, f64, f64) {
    let dir = temp_dir("puts");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = AutotuneCache::at_path(&dir);
    let probe_reps = 60;
    let probe = |cache: &AutotuneCache| -> Vec<f64> {
        (0..probe_reps)
            .map(|_| {
                let t = Instant::now();
                cache.put(synthetic_entry("PROBE", 0)).expect("probe put");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    };

    // ~1% full: just the fillers' first round.
    for w in 0..workflows {
        cache
            .put(synthetic_entry(&format!("SYN{w:03}"), 0))
            .expect("fill put");
    }
    let small = median_us(probe(&cache));
    let small_len = cache.len();

    // Full: every filler workflow at its final entry count.
    let per_workflow = entries / workflows;
    for seed in 1..per_workflow as u64 {
        for w in 0..workflows {
            cache
                .put(synthetic_entry(&format!("SYN{w:03}"), seed))
                .expect("fill put");
        }
    }
    let full = median_us(probe(&cache));
    let full_len = cache.len();

    let ratio = full / small.max(1e-9);
    println!(
        "put probe: {small:.1}us @ {small_len} entries -> {full:.1}us @ {full_len} entries \
         (ratio {ratio:.2})"
    );
    assert!(
        ratio < MAX_FLATNESS_RATIO,
        "put latency grew {ratio:.2}x as the cache grew from {small_len} to {full_len} \
         entries — put cost must not depend on total cache size"
    );
    let _ = std::fs::remove_dir_all(&dir);
    (small, full, ratio)
}

fn campaign_params(budget: u64) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget,
        pool: 200,
        seed: 7,
        algo: "ceal".into(),
    }
}

/// A platform one hardware refresh away from the paper testbed: inside
/// the transfer threshold, but different enough that the cold campaign
/// cannot be answered exactly.
fn near_miss_platform() -> Platform {
    let mut p = Platform::default();
    p.link_bandwidth *= 0.75;
    p.fabric_bandwidth *= 0.8;
    p.cores_per_node = 20;
    p
}

/// Runs one campaign to completion on `platform` and returns its cached
/// samples (in measurement order) and the session's warm source.
fn run_campaign(
    platform: Platform,
    transfer_threshold: f64,
    cache: &AutotuneCache,
    budget: u64,
) -> (Vec<(Vec<i64>, f64)>, String) {
    let mgr = SessionManager::new(Duration::from_secs(3600))
        .with_platform(platform.clone())
        .with_transfer_threshold(transfer_threshold);
    let metrics = ServerMetrics::new();
    let (mut st, _) = mgr
        .create(campaign_params(budget), 0.0, 0, cache, &metrics)
        .expect("create session");
    let warm_source = st.warm_source.clone();
    let handle = mgr.get(st.session).expect("session");
    let mut session = handle.lock().expect("session lock");
    while st.state != "done" {
        st = session.advance(4, cache, &metrics).expect("advance");
    }
    let fingerprint = platform_fingerprint(&platform);
    let samples = cache
        .all_entries()
        .into_iter()
        .find(|e| e.key.platform == fingerprint)
        .expect("finished campaign published to cache")
        .samples;
    (samples, warm_source)
}

/// Coupled runs until a sample at least as good as `target` was measured.
fn runs_to_reach(samples: &[(Vec<i64>, f64)], target: f64) -> Option<usize> {
    samples
        .iter()
        .position(|&(_, v)| v <= target * (1.0 + 1e-9))
        .map(|i| i + 1)
}

/// Transfer spend: cold vs transfer-seeded campaigns on the same
/// near-miss platform, measured in coupled runs to reach the cold
/// campaign's final best value.
fn bench_transfer(budget: u64) -> serde_json::Value {
    // A completed sibling campaign on the paper-testbed platform.
    let shared = AutotuneCache::in_memory();
    let (_, src) = run_campaign(Platform::default(), 0.0, &shared, budget);
    assert_eq!(src, "cold");

    // Cold baseline on the near-miss platform (transfer disabled, its
    // own empty cache).
    let cold_cache = AutotuneCache::in_memory();
    let (cold, src) = run_campaign(near_miss_platform(), 0.0, &cold_cache, budget);
    assert_eq!(src, "cold");
    let target = cold.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    let cold_runs = runs_to_reach(&cold, target).expect("cold reaches its own best");

    // Transfer-seeded campaign on the same platform, seeing the sibling.
    let (seeded, src) = run_campaign(
        near_miss_platform(),
        ceal_serve::DEFAULT_TRANSFER_THRESHOLD,
        &shared,
        budget,
    );
    assert_eq!(
        src, "transfer",
        "near-miss platform must seed from the sibling"
    );
    let seeded_runs = runs_to_reach(&seeded, target);
    let seeded_best = seeded.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);

    println!(
        "transfer: cold best {target:.4} after {cold_runs} runs; seeded reached it after \
         {seeded_runs:?} runs (seeded best {seeded_best:.4})"
    );
    let seeded_runs = seeded_runs.unwrap_or_else(|| {
        panic!(
            "transfer-seeded campaign never matched the cold best {target:.4} \
             (its best was {seeded_best:.4})"
        )
    });
    assert!(
        seeded_runs < cold_runs,
        "transfer seeding must reach the cold best ({target:.4}) in fewer coupled runs: \
         seeded {seeded_runs} vs cold {cold_runs}"
    );
    serde_json::json!({
        "budget": budget,
        "cold_runs_to_best": cold_runs,
        "transfer_runs_to_best": seeded_runs,
        "oracle_spend_reduction": 1.0 - seeded_runs as f64 / cold_runs as f64,
    })
}

/// Smoke-only: the deployment round trip. A server tunes into cache A;
/// the bundle exported from A is imported into a second server's cache B
/// via `--cache-import`; the second server must answer the same request
/// from cache with zero oracle spend.
fn smoke_export_import_round_trip() {
    let dir_a = temp_dir("ship-a");
    let dir_b = temp_dir("ship-b");
    let bundle = temp_dir("ship-bundle.json");
    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_file(&bundle);

    let params = TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget: 8,
        pool: 60,
        seed: 3,
        algo: "ceal".into(),
    };

    // First deployment tunes and persists.
    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir_a.clone()),
        ..ServeConfig::default()
    })
    .expect("bind first server")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let outcome = client.tune(params.clone()).expect("tune");
    assert!(!outcome.from_cache);
    client.shutdown().expect("shutdown");
    handle.join().expect("first server drain");

    // Ship the cache: export from A, import into B at second startup.
    let text = AutotuneCache::at_path(&dir_a)
        .export_bundle()
        .expect("export");
    std::fs::write(&bundle, text).expect("write bundle");
    let handle = Server::bind(ServeConfig {
        cache_path: Some(dir_b.clone()),
        cache_import: Some(bundle.clone()),
        ..ServeConfig::default()
    })
    .expect("bind second server")
    .spawn();
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = client.tune(params).expect("warm tune");
    assert!(warm.from_cache, "shipped campaign must serve from cache");
    assert_eq!(warm.best, outcome.best);
    let m = client.metrics().expect("metrics");
    assert_eq!(m.oracle_measurements, 0, "warm serve must spend nothing");
    assert_eq!(m.cache_hits, 1);
    client.shutdown().expect("shutdown");
    handle.join().expect("second server drain");

    for d in [&dir_a, &dir_b] {
        let _ = std::fs::remove_dir_all(d);
    }
    let _ = std::fs::remove_file(&bundle);
    println!("export -> import -> warm-serve round trip ok");
}

fn main() {
    let args = parse_args();
    let budget = if args.smoke { 20 } else { 30 };

    let (front_p50, disk_p50) = bench_hit_latency(args.entries, args.workflows);
    let (put_small, put_full, flatness) = bench_put_flatness(args.entries, args.workflows);
    let transfer = bench_transfer(budget);
    if args.smoke {
        smoke_export_import_round_trip();
    }

    print_table(
        "tiered cache",
        &["metric", "value"],
        &[
            vec!["entries".into(), format!("{}", args.entries)],
            vec!["workflows".into(), format!("{}", args.workflows)],
            vec!["front hit p50 us".into(), format!("{front_p50:.2}")],
            vec!["disk hit p50 us".into(), format!("{disk_p50:.2}")],
            vec!["put p50 us (small)".into(), format!("{put_small:.2}")],
            vec!["put p50 us (full)".into(), format!("{put_full:.2}")],
            vec!["put flatness ratio".into(), format!("{flatness:.2}")],
            vec![
                "cold runs to best".into(),
                format!("{}", transfer["cold_runs_to_best"]),
            ],
            vec![
                "transfer runs to best".into(),
                format!("{}", transfer["transfer_runs_to_best"]),
            ],
        ],
    );

    if args.smoke {
        println!("\nbench-cache smoke ok");
        return;
    }
    let json = serde_json::json!({
        "git_rev": git_rev(),
        "entries": args.entries,
        "workflows": args.workflows,
        "front_hit_p50_us": front_p50,
        "disk_hit_p50_us": disk_p50,
        "put_p50_us_small": put_small,
        "put_p50_us_full": put_full,
        "put_flatness_ratio": flatness,
        "transfer": transfer,
    });
    match std::fs::write(&args.out, serde_json::to_string_pretty(&json).unwrap()) {
        Ok(()) => println!("\n  [saved {}]", args.out),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", args.out);
            std::process::exit(1);
        }
    }
}
