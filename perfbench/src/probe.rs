//! The layer probe of a traced run: direct, timed calls into each layer's
//! public API, with inputs drawn from the workload seed.
//!
//! A workload measures what its own traffic crosses from outside (the
//! oracle boundary, the client, the server's `Metrics`); layers inside a
//! campaign (the surrogate, the component models, the simulator, the
//! journal, the cache, the codec) cannot be timed from outside without
//! calling them directly, and some workloads never cross a layer at all.
//! The probe times those calls and fills every per-layer metric the
//! workload left unmeasured, so each traced run reports the same set.

use crate::offline::{algorithm, ms, sample, SpannedOracle, ALGOS, SPAN_NAMES};
use crate::outcome::{Metric, Outcome};
use crate::serve::{params, serve_layers, session_campaign, Env, RpcHist, FLEET_POLL};
use crate::spans::{Recorder, SpanLog};
use crate::stats;
use crate::Ctx;
use ceal_core::algorithms::SurrogateKind;
use ceal_core::{
    encode_pool, fit_surrogate_samples, prepare_campaign, Autotuner, CampaignId, Ceal, CealParams,
    CombineFn, ComponentHistory, ComponentModels, FeatureMap, Journal, JournalRecord,
    JournalingOracle, LowFidelityModel, Oracle, PoolOracle, SimOracle,
};
use ceal_serve::protocol::{Request, Response, SessionStatus};
use ceal_serve::wire::frame::{read_message, write_message};
use ceal_serve::{AutotuneCache, CacheEntry, CacheKey};
use ceal_sim::{Objective, Simulator};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each sub-millisecond probe.
const REPS: usize = 200;

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

/// Fills every per-layer metric `out` does not have yet.
pub fn fill(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.seed;
    let spec = ceal_apps::lv();
    let obj = Objective::ExecutionTime;
    let (pool, sample_ms) = time_ms(|| sample(&spec, crate::offline::POOL, seed ^ 0x9B0E));
    let (oracle, precompute_ms) = time_ms(|| {
        PoolOracle::precompute(
            SimOracle::new(Simulator::new(), spec.clone(), obj, 2021),
            &pool,
        )
    });
    if !out.has_layer("pool.sample_ms") {
        out.layer(
            "pool.sample_ms",
            Metric::one(sample_ms, "ms", "probe: sample_pool of 2000 (LV)"),
        );
        out.layer(
            "pool.precompute_ms",
            Metric::one(
                precompute_ms,
                "ms",
                "probe: PoolOracle::precompute of 2000 (LV exec)",
            ),
        );
    }
    tuners(out, &oracle, &pool, seed);
    sim(out, &spec, &pool);
    ml(out, &oracle, &pool, seed);
    acm(out, &oracle, &pool, seed);
    journal(out, &ctx.data, seed)?;
    cache(out, &ctx.data, seed)?;
    wire(out, &pool);
    if !out.has_layer("server.ping.p50_us") || !out.has_layer("loadgen.late_ms_p99") {
        server(ctx, out)?;
    }
    if !out.has_layer("fleet.tasks_dispatched") {
        fleet(ctx, out)?;
    }
    out.layer(
        "par.threads",
        Metric::count(
            ceal_par::available_threads() as u64,
            "ceal-par worker threads",
        ),
    );
    Ok(())
}

/// One traced campaign per algorithm on LV exec, budget 50.
fn tuners(out: &mut Outcome, oracle: &PoolOracle, pool: &[Vec<i64>], seed: u64) {
    if out.has_layer("tuner.self_ms.rs") {
        return;
    }
    let rec = Recorder::new(true);
    let mut counts = (0u64, 0u64, 0u64);
    for (i, span_name) in SPAN_NAMES.iter().enumerate() {
        let algo = algorithm(i, "LV", Objective::ExecutionTime, 50);
        let span = rec.root(span_name);
        let spanned = SpannedOracle::new(oracle, &rec, span.ctx());
        // A probe failure shows as missing counts, not as a failed run.
        let _ = algo.try_run(&spanned, pool, 50, seed);
        drop(span);
        counts.0 += spanned.coupled.load(std::sync::atomic::Ordering::Relaxed);
        counts.1 += spanned.solo.load(std::sync::atomic::Ordering::Relaxed);
        counts.2 += spanned.misses.load(std::sync::atomic::Ordering::Relaxed)
            + spanned.solo.load(std::sync::atomic::Ordering::Relaxed);
    }
    let mut log = SpanLog::default();
    rec.drain_into(&mut log);
    let by = log.by_name();
    for (name, key) in ALGOS.iter().zip(SPAN_NAMES) {
        let t = by.get(key).cloned().unwrap_or_default();
        out.layer(
            &format!("tuner.self_ms.{name}"),
            Metric::one(
                t.self_ms,
                "ms",
                "probe: one LV exec campaign, budget 50, pool 2000",
            ),
        );
    }
    let oracle_ms: f64 = ["oracle.coupled", "oracle.solo"]
        .iter()
        .filter_map(|n| by.get(n))
        .map(|t| t.total_ms)
        .sum();
    let per = |v: u64| v as f64 / 4.0;
    if !out.has_layer("oracle.coupled") {
        out.layer(
            "oracle.coupled",
            Metric::one(
                per(counts.0),
                "count",
                "probe: coupled measurements per campaign",
            ),
        );
        out.layer(
            "oracle.solo",
            Metric::one(
                per(counts.1),
                "count",
                "probe: solo measurements per campaign",
            ),
        );
    }
    if !out.has_layer("sim.runs") {
        out.layer(
            "sim.runs",
            Metric::one(
                per(counts.2),
                "count",
                "probe: live simulator runs per campaign",
            ),
        );
    }
    out.layer(
        "oracle.self_ms",
        Metric::one(
            oracle_ms / 4.0,
            "ms",
            "probe: oracle wrapper time per campaign",
        ),
    );
}

/// Live simulator runs of pool configurations.
fn sim(out: &mut Outcome, spec: &ceal_sim::WorkflowSpec, pool: &[Vec<i64>]) {
    let live = SimOracle::new(Simulator::new(), spec.clone(), Objective::ExecutionTime, 7);
    let mut us = Vec::new();
    for cfg in pool.iter().take(REPS) {
        let t = Instant::now();
        let r = live.try_measure(cfg);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(r.ok());
    }
    out.layer(
        "sim.run_us",
        Metric::mean_of(&us, "us", "probe: one live LV coupled run"),
    );
}

/// Surrogate fit on a budget's worth of rows, pool encode and scoring.
fn ml(out: &mut Outcome, oracle: &PoolOracle, pool: &[Vec<i64>], seed: u64) {
    let fm = FeatureMap::for_workflow(oracle.spec());
    let rows = 50;
    let samples: Vec<(Vec<i64>, f64)> = pool
        .iter()
        .take(rows)
        .map(|c| (c.clone(), oracle.table()[c].value))
        .collect();
    let mut fit = Vec::new();
    let mut model = None;
    for r in 0..5 {
        let (m, t) =
            time_ms(|| fit_surrogate_samples(SurrogateKind::BoostedTrees, &fm, &samples, seed + r));
        fit.push(t);
        model = Some(m);
    }
    let model = model.expect("fitted");
    out.layer(
        "ml.fit_ms",
        Metric::mean_of(
            &fit,
            "ms",
            format!("probe: boosted-tree fit on {rows} rows"),
        ),
    );
    out.layer(
        "ml.fit_rows",
        Metric::count(rows as u64, "probe: rows per fit"),
    );
    let mut enc = Vec::new();
    let mut pred = Vec::new();
    for _ in 0..5 {
        let (d, t) = time_ms(|| encode_pool(&fm, pool));
        enc.push(t);
        let (p, t) = time_ms(|| model.predict_batch(&d));
        std::hint::black_box(p);
        pred.push(t);
    }
    out.layer(
        "ml.encode_ms",
        Metric::mean_of(&enc, "ms", format!("probe: encode_pool of {}", pool.len())),
    );
    out.layer(
        "ml.predict_ms",
        Metric::mean_of(
            &pred,
            "ms",
            format!("probe: predict_batch of {}", pool.len()),
        ),
    );
    let batch = encode_pool(&fm, &pool[..64]);
    let mut small = Vec::new();
    for _ in 0..REPS {
        let (p, t) = time_ms(|| model.predict_batch(&batch));
        std::hint::black_box(p);
        small.push(t);
    }
    out.layer(
        "ml.predict64_ms",
        Metric::mean_of(&small, "ms", "probe: predict_batch of 64 encoded rows"),
    );
}

/// Component models fitted on solo samples, and the low-fidelity score
/// of the whole pool.
fn acm(out: &mut Outcome, oracle: &PoolOracle, pool: &[Vec<i64>], seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAC);
    let hist = ComponentHistory::collect(oracle, 20, &mut rng);
    let spec = oracle.spec();
    let mut fit = Vec::new();
    let mut models = None;
    for r in 0..5 {
        let (m, t) = time_ms(|| ComponentModels::fit(spec, &hist, seed + r));
        fit.push(t);
        models = Some(m);
    }
    let low = LowFidelityModel::new(
        spec,
        models.expect("fitted"),
        CombineFn::for_objective(oracle.objective()),
    );
    let mut score = Vec::new();
    for _ in 0..5 {
        let (s, t) = time_ms(|| low.score_all(pool));
        std::hint::black_box(s);
        score.push(t);
    }
    out.layer(
        "acm.fit_ms",
        Metric::mean_of(
            &fit,
            "ms",
            "probe: ComponentModels::fit on 20 solo samples each",
        ),
    );
    out.layer(
        "acm.score_all_ms",
        Metric::mean_of(
            &score,
            "ms",
            format!("probe: LowFidelityModel::score_all of {}", pool.len()),
        ),
    );
}

/// Journal commits (fsync on, in the run's data directory) and the
/// records one journaled `tune`-CLI campaign leaves.
fn journal(out: &mut Outcome, dir: &Path, seed: u64) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join("probe-append.wal");
    let (mut j, _) = Journal::open(&path).map_err(|e| e.to_string())?;
    let mut us = Vec::new();
    for i in 0..REPS as i64 {
        let rec = JournalRecord::Coupled {
            config: vec![i, 2, 1, 50, 10, 1],
            value: 1.5,
            exec_time: 2.0,
            computer_time: 0.25,
            attempt: 0,
        };
        let t = Instant::now();
        j.append(&rec).map_err(|e| e.to_string())?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.layer(
        "journal.append_us",
        Metric::mean_of(
            &us,
            "us",
            "probe: Journal::append with fsync, data dir filesystem",
        ),
    );

    let p = params(seed, 30, 500);
    let replica = crate::serve::Replica::new(&p);
    let path = dir.join("probe-campaign.wal");
    let id = CampaignId {
        workflow: p.workflow.clone(),
        objective: p.objective.clone(),
        algo: p.algo.clone(),
        budget: p.budget,
        pool: p.pool,
        seed: p.seed,
        failure_rate: 0.0,
        fault_seed: 0,
    };
    let (mut j, report) = Journal::open(&path).map_err(|e| e.to_string())?;
    let records =
        prepare_campaign(&mut j, report.records, &id, false).map_err(|e| e.to_string())?;
    let journaling = JournalingOracle::new(&replica.oracle, j, &records);
    Ceal::new(CealParams::without_history())
        .try_run(&journaling, &replica.pool, p.budget as usize, p.seed)
        .map_err(|e| e.to_string())?;
    drop(journaling);
    let (_, report) = Journal::open(&path).map_err(|e| e.to_string())?;
    out.layer(
        "journal.records_per_campaign",
        Metric::count(
            report.records.len() as u64,
            "probe: records of one journaled CEAL campaign (LV comp, budget 30), read back with Journal::open",
        ),
    );
    Ok(())
}

/// Cache puts, front hits and disk hits on a disk-backed cache whose
/// front holds a quarter of the entries.
fn cache(out: &mut Outcome, dir: &Path, seed: u64) -> Result<(), String> {
    let front = 8;
    let cache = AutotuneCache::at_path_with_capacity(dir.join("probe-cache"), front);
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xCAC4E);
    let key = |i: u64| CacheKey {
        workflow: "LV".into(),
        platform: "probe".into(),
        objective: "comp".into(),
        pool: 500,
        seed: i,
        budget: 30,
        algo: "tune:ceal".into(),
    };
    let mut put = Vec::new();
    for i in 0..4 * front as u64 {
        let samples: Vec<(Vec<i64>, f64)> = (0..30)
            .map(|_| {
                (
                    vec![rng.gen_range(1..64), rng.gen_range(1..32), 1, 50, 10, 1],
                    rng.gen(),
                )
            })
            .collect();
        let entry = CacheEntry {
            key: key(i),
            best: samples[0].0.clone(),
            best_value: samples[0].1,
            runs_used: 30,
            component_runs: 12,
            samples,
            platform_features: Vec::new(),
        };
        let (r, t) = time_ms(|| cache.put(entry));
        r.map_err(|e| e.to_string())?;
        put.push(t);
    }
    let mut front_us = Vec::new();
    let mut disk_us = Vec::new();
    let mut found = 0u64;
    let mut lookups = 0u64;
    for round in 0..REPS / front {
        // Alternate two key sets that each fill the front: the first
        // read of a set comes from disk, the second from the front.
        let base = (round % 2) as u64 * front as u64;
        for pass in 0..2 {
            for i in base..base + front as u64 {
                let t = Instant::now();
                let (hit, tier) = cache.get_with_tier(&key(i));
                let us = t.elapsed().as_secs_f64() * 1e6;
                lookups += 1;
                found += u64::from(hit.is_some());
                match (pass, tier) {
                    (0, "disk") => disk_us.push(us),
                    (1, "front") => front_us.push(us),
                    _ => {}
                }
            }
        }
    }
    out.layer(
        "cache.put_ms",
        Metric::mean_of(
            &put,
            "ms",
            "probe: AutotuneCache::put of a 30-sample entry (fsync)",
        ),
    );
    out.layer(
        "cache.get_front_us",
        Metric::mean_of(
            &front_us,
            "us",
            "probe: get_with_tier answered by the LRU front",
        ),
    );
    out.layer(
        "cache.get_disk_us",
        Metric::mean_of(
            &disk_us,
            "us",
            "probe: get_with_tier answered by a disk shard of 32 entries",
        ),
    );
    if !out.has_layer("cache.hit_ratio") {
        let s = cache.stats();
        out.layer(
            "cache.hit_ratio",
            Metric::one(
                found as f64 / lookups as f64,
                "ratio",
                "probe cache: hits / lookups",
            ),
        );
        out.layer(
            "cache.front_hit_ratio",
            Metric::one(
                s.lru_hits as f64 / (s.lru_hits + s.lru_misses).max(1) as f64,
                "ratio",
                "probe cache: front hits / lookups",
            ),
        );
    }
    Ok(())
}

/// Frame codec cost and size per message kind.
fn wire(out: &mut Outcome, pool: &[Vec<i64>]) {
    let configs: Vec<Vec<i64>> = pool.iter().take(64).cloned().collect();
    let status = SessionStatus {
        session: 7,
        state: "done".into(),
        budget_left: 0,
        measured: 30,
        history_samples: 12,
        best: Some(configs[0].clone()),
        best_value: Some(0.125),
        warm_source: "cold".into(),
        trace: "9f2c51aa03b7e4d1".into(),
    };
    let kinds: [(&str, Msg); 4] = [
        (
            "tune_result",
            Msg::Resp(Response::TuneResult {
                best: configs[0].clone(),
                best_value: 0.125,
                runs_used: 30,
                component_runs: 12,
                from_cache: true,
            }),
        ),
        (
            "predict",
            Msg::Req(Request::Predict {
                session: 7,
                configs: configs.clone(),
            }),
        ),
        (
            "predictions",
            Msg::Resp(Response::Predictions {
                values: (0..64).map(|i| 0.1 + f64::from(i) * 1e-3).collect(),
            }),
        ),
        ("session", Msg::Resp(Response::Session(status))),
    ];
    for (name, msg) in kinds {
        let mut enc = Vec::new();
        let mut dec = Vec::new();
        let mut bytes = 0;
        for _ in 0..REPS {
            let mut buf = Vec::new();
            let t = Instant::now();
            match &msg {
                Msg::Req(r) => write_message(&mut buf, r),
                Msg::Resp(r) => write_message(&mut buf, r),
            }
            .expect("encode to memory");
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            bytes = buf.len();
            let mut cur = std::io::Cursor::new(buf);
            let t = Instant::now();
            let ok = match &msg {
                Msg::Req(r) => read_message::<Request>(&mut cur).is_ok_and(|d| &d == r),
                Msg::Resp(r) => read_message::<Response>(&mut cur).is_ok_and(|d| &d == r),
            };
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            assert!(ok, "{name} does not round-trip through the frame codec");
        }
        out.layer(
            &format!("wire.encode_us.{name}"),
            Metric::mean_of(&enc, "us", "probe: write_message to memory"),
        );
        out.layer(
            &format!("wire.decode_us.{name}"),
            Metric::mean_of(
                &dec,
                "us",
                "probe: read_message from memory (incl. compare)",
            ),
        );
        out.layer(
            &format!("wire.bytes.{name}"),
            Metric::count(bytes as u64, "frame bytes incl. 4-byte length prefix"),
        );
    }
}

enum Msg {
    Req(Request),
    Resp(Response),
}

/// A small in-memory server: one session campaign, cached and cold
/// `Tune`, `Ping`, `Status` and `Predict`, plus a short open loop of
/// `Ping` for the generator's lateness.
fn server(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let env = Env::bind_in_memory(ctx.nproc)?;
    let rpc = RpcHist::new();
    let mut c = env.client()?;
    let p = params(ctx.seed ^ 0x5E, 12, 200);
    let e = |e: ceal_serve::ClientError| e.to_string();
    let (st, _) = rpc
        .time("create-session", || c.create_session(p.clone(), 0.0, 0))
        .map_err(e)?;
    let id = st.session;
    let mut st = st;
    while st.state != "done" {
        st = rpc.time("advance", || c.advance(id, 10)).map_err(e)?;
    }
    let configs: Vec<Vec<i64>> = sample(&ceal_apps::lv(), 64, p.seed);
    for _ in 0..REPS / 2 {
        rpc.time("predict", || c.predict(id, configs.clone()))
            .map_err(e)?;
        rpc.time("status", || c.status(id)).map_err(e)?;
    }
    rpc.time("tune", || c.tune(p.clone())).map_err(e)?;
    for _ in 0..REPS / 2 {
        rpc.time("tune", || c.tune(p.clone())).map_err(e)?;
    }
    for _ in 0..REPS {
        rpc.time("ping", || c.ping()).map_err(e)?;
    }
    rpc.time("close-session", || c.close_session(id))
        .map_err(e)?;
    // One more campaign for the create/close endpoints.
    session_campaign(&mut c, params(ctx.seed ^ 0x5F, 12, 200), &rpc)?;
    let m = c.metrics().map_err(e)?;
    serve_layers(out, None, &m, &rpc, "probe server");
    if !out.has_layer("loadgen.late_ms_p99") {
        let late = ping_loop(&env, 2000.0, 0.5)?;
        if let Some(s) = stats::summarize(&late, 99.0) {
            out.layer(
                "loadgen.late_ms_p99",
                Metric {
                    value: s.tail,
                    unit: "ms",
                    n: s.n as u64,
                    spread: s.spread,
                    note: format!(
                        "probe: p{:.2} of send lateness, Ping at 2000 req/s",
                        s.tail_pct
                    ),
                },
            );
        }
    }
    drop(c);
    env.stop()
}

/// Send lateness of a single-connection open loop of `Ping`.
fn ping_loop(env: &Env, rate: f64, secs: f64) -> Result<Vec<f64>, String> {
    let mut c = env.client()?;
    let start = Instant::now();
    let mut late = Vec::new();
    let n = (rate * secs) as usize;
    for i in 0..n {
        let due = start + std::time::Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        late.push(ms(Instant::now().saturating_duration_since(due)));
        c.ping().map_err(|e| e.to_string())?;
    }
    Ok(late)
}

/// One session campaign on a durable server with one fleet worker.
fn fleet(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut env = Env::bind(&ctx.data.join("probe-fleet"), ctx.nproc)?;
    env.add_worker(FLEET_POLL)?;
    let rpc = RpcHist::new();
    let mut c = env.client()?;
    session_campaign(&mut c, params(ctx.seed ^ 0xF1, 30, 500), &rpc)?;
    let mut lag = Vec::new();
    for _ in 0..20 {
        let m = c.metrics().map_err(|e| e.to_string())?;
        lag.extend(m.fleet.workers.iter().map(|w| w.heartbeat_lag_ms as f64));
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    let m = c.metrics().map_err(|e| e.to_string())?;
    crate::serve::fleet_layers(out, &m, &rpc, &lag, "probe: one fleet session campaign");
    drop(c);
    env.stop()
}
