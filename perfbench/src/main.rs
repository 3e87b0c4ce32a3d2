//! The repository's benchmark: paper campaigns, served campaigns and the
//! measurement fleet, end to end, with a traced run that times every
//! layer from outside.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_tune|serve_campaign|fleet_campaign \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a checkout. Prints a human-readable report, then
//! as its last line one JSON object: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Appends the run record to `.perfbench/records.jsonl`.
//! See `perfbench/README.md` for the workloads and metrics.

mod offline;
mod outcome;
mod probe;
mod record;
mod serve;
mod spans;
mod stats;

use outcome::{Metric, Outcome};
use serde_json::{json, Map, Value};
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Workloads this program runs.
const WORKLOADS: [&str; 3] = ["offline_tune", "serve_campaign", "fleet_campaign"];

/// The metric names and units `BENCHMARK.json` promises:
/// (end-to-end, per-layer).
type Contract = (Vec<(String, String)>, Vec<(String, String)>);

fn contract(root: &std::path::Path) -> Result<Contract, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<(String, String)>, String> {
        doc.get(key)
            .and_then(Value::as_array)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                match (
                    m.get("name").and_then(Value::as_str),
                    m.get("unit").and_then(Value::as_str),
                ) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("BENCHMARK.json {key} entry without name or unit")),
                }
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// Everything a workload needs to know about the run.
pub struct Ctx {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measurement window, s.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Threads and connections of the load, and server workers.
    pub nproc: usize,
    /// How many times set-up runs (its median is `setup_s`).
    pub setup_reps: usize,
    /// This run's scratch directory inside the checkout.
    pub data: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&val.as_str()) => workload = Some(val),
            "--seed" => seed = Some(val.parse().unwrap_or_else(|_| usage())),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().unwrap_or_else(|_| usage()));
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds > 0.0 => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

fn main() {
    let args = parse();
    let root = std::env::current_dir().expect("working directory");
    if !root.join("crates").is_dir() || !root.join("perfbench").is_dir() {
        eprintln!("perfbench: run from the root of a ceal checkout (no crates/ here)");
        std::process::exit(2);
    }
    let (e2e_names, layer_names) = contract(&root).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let base = root.join(".perfbench");
    let data = base.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&data) {
        eprintln!("perfbench: cannot create {}: {e}", data.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc,
        setup_reps: 11,
        data: data.clone(),
    };
    let started = Instant::now();
    let ticks = record::cpu_ticks();
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "offline_tune" => {
            offline::run(&ctx, &mut out);
            Ok(())
        }
        "serve_campaign" => serve::run_campaign(&ctx, &mut out),
        _ => serve::run_fleet(&ctx, &mut out),
    };
    let result = result.and_then(|()| {
        if ctx.trace {
            probe::fill(&ctx, &mut out)
        } else {
            Ok(())
        }
    });
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        let _ = std::fs::remove_dir_all(&data);
        std::process::exit(1);
    }
    let fs = record::fs_type(&data);
    let _ = std::fs::remove_dir_all(&data);
    let rss = record::peak_rss_mb();
    out.e2e(
        "peak_rss_mb",
        Metric::one(rss, "MiB", "VmHWM of the benchmark process (load + server)"),
    );
    out.named("peak_rss_mb", out.e2e["peak_rss_mb"].clone());
    out.named("setup_s", out.e2e["setup_s"].clone());
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.named(
        "fail_frac",
        Metric {
            value: fail_frac,
            unit: "ratio",
            n: out.attempted,
            spread: 0.0,
            note: "failed, shed or check-failed operations / attempted".into(),
        },
    );
    let id = record::Identity::collect(&root);
    let steal = record::steal_share(ticks, record::cpu_ticks());
    let host = Host {
        fs,
        wall: started.elapsed().as_secs_f64(),
        steal,
    };
    report(&args, &ctx, &out, &id, &host, &e2e_names);

    let (wanted, source) = if args.trace {
        (&layer_names, &out.layers)
    } else {
        (&e2e_names, &out.e2e)
    };
    let mut metrics = Map::new();
    let mut complete = true;
    for (name, unit) in wanted {
        match source.get(name) {
            Some(m) if m.value.is_finite() && m.unit == unit => {
                metrics.insert(name.clone(), json!({"value": m.value, "unit": m.unit}));
            }
            Some(m) => {
                eprintln!(
                    "perfbench: metric {name} reads {} {}, BENCHMARK.json says {unit}",
                    m.value, m.unit
                );
                complete = false;
            }
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                complete = false;
            }
        }
    }
    let recorded: Map<String, Value> = source
        .iter()
        .map(|(k, m)| {
            let v = json!({
                "value": m.value, "unit": m.unit, "n": m.n, "spread": m.spread, "note": m.note,
            });
            (k.clone(), v)
        })
        .collect();
    let named: Map<String, Value> = out
        .named
        .iter()
        .map(|(k, m)| (k.clone(), json!({"value": m.value, "unit": m.unit, "n": m.n})))
        .collect();
    let rec = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rev": id.rev,
        "src_digest": id.src_digest,
        "nproc": id.nproc,
        "cpu": id.cpu,
        "kernel": id.kernel,
        "data_fs": host.fs,
        "steal_frac": host.steal,
        "correct": out.correct(),
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(recorded),
        "named": Value::Object(named),
    });
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(base.join("records.jsonl"))
    {
        let _ = writeln!(f, "{rec}");
    }
    let last = json!({
        "correct": out.correct() && complete,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{last}");
}

fn line(name: &str, m: &Metric) -> String {
    format!(
        "  {name:<34} {:>14.6} {:<6} n={:<7} spread={:<7.4} {}",
        m.value, m.unit, m.n, m.spread, m.note
    )
}

/// What the run saw of its host.
struct Host {
    /// Filesystem type of the data directory.
    fs: String,
    /// Wall time of the whole run, s.
    wall: f64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// run: a slow run with a high share was slowed by its neighbours.
    steal: f64,
}

fn report(
    args: &Args,
    ctx: &Ctx,
    out: &Outcome,
    id: &record::Identity,
    host: &Host,
    e2e_names: &[(String, String)],
) {
    println!(
        "perfbench {} seed={} seconds={} trace={} wall={:.2}s steal={:.4}",
        args.workload, args.seed, args.seconds, args.trace as u8, host.wall, host.steal
    );
    println!(
        "  rev={} src={} nproc={} cpu=\"{}\" kernel={} data_fs={} setup_reps={}",
        id.rev, id.src_digest, id.nproc, id.cpu, id.kernel, host.fs, ctx.setup_reps
    );
    println!("end-to-end (gated):");
    for (name, _) in e2e_names {
        if let Some(m) = out.e2e.get(name) {
            println!("{}", line(name, m));
        }
    }
    println!("end-to-end (named figures for this workload):");
    for (name, m) in &out.named {
        println!("{}", line(name, m));
    }
    if !out.layers.is_empty() {
        println!("per-layer:");
        for (name, m) in &out.layers {
            println!("{}", line(name, m));
        }
    }
    for n in &out.notes {
        println!("{n}");
    }
    println!(
        "checks: attempted={} failed={} fail_frac={:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for (name, ok, detail) in &out.checks {
        if !ok || !name.contains("_seed_") {
            println!("  [{}] {name} {detail}", if *ok { "ok" } else { "FAIL" });
        }
    }
}
