//! The served workloads: `serve_campaign` (the write side) and
//! `fleet_campaign` (the measurement fleet), each against an in-process
//! server with `workers = nproc`.
//!
//! Load comes from this process, over at most `nproc` client threads,
//! one connection each. Every request is timed from outside, through
//! `ceal_serve::Client`; server-side figures come from the server's own
//! `Metrics` reply.

use crate::offline::{ms, sample};
use crate::outcome::{named_pair, Metric, Outcome};
use crate::spans::{spans_kept, Recorder, SpanLog};
use crate::stats;
use crate::Ctx;
use ceal_core::{Autotuner, Ceal, CealParams, Oracle, PoolOracle, RetryPolicy, SimOracle};
use ceal_serve::protocol::{MetricsReport, SessionStatus};
use ceal_serve::{
    run_worker, Client, ClientError, ServeConfig, Server, ServerHandle, TuneOutcome, TuneParams,
    WorkerConfig, WorkerSummary,
};
use ceal_sim::{Objective, Simulator};
use ceal_trace::LogHistogram;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Campaign shape of `serve_campaign` and `fleet_campaign` (LV computer
/// time, budget 30, pool 500, CEAL).
pub const BUDGET: u64 = 30;
/// Pool size of a served campaign.
pub const POOL: u64 = 500;
/// Coupled runs asked for per `Advance`: each call runs one session
/// phase, so a campaign is create, history, bootstrap, refinement rounds
/// of this many runs, close.
pub const ADVANCE_RUNS: u64 = 10;
/// Rounds (or campaigns) whose results are replayed in-process for the
/// output checks and `tuned_norm`: the first ones by index, so the
/// checked seeds depend on the workload seed only.
const CHECKED: u64 = 24;

/// A window runs a fixed number of operations, not a fixed time: every
/// served campaign adds entries to the one LV cache shard, which each
/// cold lookup parses and each put rewrites, so an operation costs more
/// the later it comes. With a fixed count, every commit ends a window
/// with the same shard and pays for the same shard sizes on the way.
/// The counts are sized so a window of `--seconds` lasts about that long
/// on the 2-vCPU VM the benchmark was tuned on: `serve_campaign` client
/// rounds per second of window, and `fleet_campaign` session campaigns.
const ROUNDS_PER_S: f64 = 13.0;
const FLEET_PER_S: f64 = 15.0;
/// The gated (untraced) run splits its window into this many epochs of
/// equal count, each on a freshly set-up server in a fresh data
/// directory; set-up between epochs is not timed. The shard then grows
/// from the same start to the same size in every epoch, and the slowest
/// operations (each epoch's last) come from several parts of the run
/// rather than from its last second or two, so one host stall there does
/// not decide the tail. A traced run keeps one epoch per half, so the
/// server's `Metrics` cover the same requests as the client histograms.
const EPOCHS: u64 = 3;
/// Index offset between epochs (and windows), so no seed repeats.
const EPOCH_STRIDE: u64 = 100_000;
/// A window that has not finished its count after this many times its
/// nominal length stops with what it has (and says so), so that a much
/// slower change still ends in time.
const WINDOW_CAP: f64 = 2.5;

/// Operations a window of `secs` runs at `per_s`.
fn planned(per_s: f64, secs: f64) -> u64 {
    (per_s * secs).round().max(1.0) as u64
}

/// Notes a window that stopped at its time cap before its count.
fn note_cap(out: &mut Outcome, what: &str, done: usize, planned: u64, secs: f64) {
    if (done as u64) < planned {
        out.notes.push(format!(
            "{what}: stopped at the time cap after {done} of {planned} operations ({secs:.1} s)"
        ));
    }
}

/// Oracle base seed every server-side campaign uses.
const ORACLE_SEED: u64 = 2021;

/// Mixes a workload seed with a stream tag and an index into a campaign
/// seed, so every stream gets distinct, seed-determined campaigns.
pub fn campaign_seed(seed: u64, stream: u64, i: u64) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream << 32)
        .wrapping_add(i);
    x ^= x >> 29;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    (x ^ (x >> 32)) & 0xffff_ffff
}

/// Tune/session parameters of a served campaign.
pub fn params(seed: u64, budget: u64, pool: u64) -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "comp".into(),
        budget,
        pool,
        seed,
        algo: "ceal".into(),
    }
}

/// Client-side latency histograms (µs) per endpoint, shared by every
/// client thread, plus one span per call when tracing.
pub struct RpcHist {
    map: BTreeMap<&'static str, LogHistogram>,
    rec: Recorder,
    log: Mutex<SpanLog>,
    calls: AtomicU64,
}

/// Endpoints the benchmark times from the client side.
pub const ENDPOINTS: [&str; 7] = [
    "ping",
    "tune",
    "create-session",
    "advance",
    "status",
    "predict",
    "close-session",
];
/// Span names of [`ENDPOINTS`], in the same order.
const RPC_SPANS: [&str; 7] = [
    "rpc.ping",
    "rpc.tune",
    "rpc.create-session",
    "rpc.advance",
    "rpc.status",
    "rpc.predict",
    "rpc.close-session",
];

impl RpcHist {
    /// Empty histograms for every timed endpoint; no spans.
    pub fn new() -> Self {
        Self::with_recorder(Recorder::new(false))
    }

    /// Empty histograms, and a span per call recorded into `rec`.
    pub fn with_recorder(rec: Recorder) -> Self {
        Self {
            map: ENDPOINTS
                .iter()
                .map(|&e| (e, LogHistogram::new()))
                .collect(),
            rec,
            log: Mutex::new(SpanLog::default()),
            calls: AtomicU64::new(0),
        }
    }

    /// Times one call into `endpoint`.
    pub fn time<T>(&self, endpoint: &'static str, f: impl FnOnce() -> T) -> T {
        let i = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .expect("timed endpoint");
        let t = Instant::now();
        let span = self.rec.root(RPC_SPANS[i]);
        let r = f();
        drop(span);
        self.map[endpoint].record(t.elapsed().as_micros() as u64);
        // Keep the tracer's bounded ring from overflowing.
        if self.rec.on() && self.calls.fetch_add(1, Ordering::Relaxed) % 4096 == 4095 {
            self.rec
                .drain_into(&mut self.log.lock().expect("span log lock"));
        }
        r
    }

    /// The histogram of one endpoint.
    pub fn get(&self, endpoint: &str) -> &LogHistogram {
        &self.map[endpoint]
    }

    /// Attributes `op_ms` of client time across the endpoints' spans:
    /// report lines, and the top endpoint's share as `attr.top_share`.
    pub fn attribute(&self, out: &mut Outcome, op_ms: f64, workload: &str) {
        let mut log = self.log.lock().expect("span log lock");
        self.rec.drain_into(&mut log);
        let by = log.by_name();
        spans_kept(out, &log);
        out.notes.push(format!(
            "{workload} attribution of {op_ms:.0} ms of client operation time (spans dropped: {}):",
            log.dropped
        ));
        let mut top: Option<(&str, f64)> = None;
        for (name, t) in &by {
            out.notes.push(format!(
                "  {name:<28} {:>10.1} ms  {:>5.1} %  ({} calls)",
                t.total_ms,
                100.0 * t.total_ms / op_ms,
                t.count
            ));
            if top.is_none_or(|(_, best)| t.total_ms > best) {
                top = Some((name, t.total_ms));
            }
        }
        if let Some((name, t)) = top {
            out.notes.push(format!(
                "top layer: {name} ({:.1} % of e2e)",
                100.0 * t / op_ms
            ));
            out.layer(
                "attr.top_share",
                Metric::one(t / op_ms, "ratio", format!("share of {name}")),
            );
        }
    }
}

type WorkerThread = JoinHandle<Result<WorkerSummary, ClientError>>;

/// A running in-process server (plus an optional fleet worker thread).
pub struct Env {
    /// Where the server listens.
    pub addr: SocketAddr,
    /// Data directory (cache shards, journals).
    pub dir: PathBuf,
    handle: Option<ServerHandle>,
    worker: Option<(Arc<AtomicBool>, WorkerThread)>,
}

impl Env {
    /// Binds a durable server: cache shards and session journals under
    /// `dir`.
    pub fn bind(dir: &Path, workers: usize) -> Result<Env, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let cfg = ServeConfig {
            workers,
            cache_path: Some(dir.join("cache")),
            journal_dir: Some(dir.join("journal")),
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg).map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn();
        Ok(Env {
            addr: handle.addr(),
            dir: dir.to_path_buf(),
            handle: Some(handle),
            worker: None,
        })
    }

    /// Binds a server that keeps its cache in memory and journals
    /// nothing (the fleetless reference for `fleet_campaign`).
    pub fn bind_in_memory(workers: usize) -> Result<Env, String> {
        let server = Server::bind(ServeConfig {
            workers,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let handle = server.spawn();
        Ok(Env {
            addr: handle.addr(),
            dir: PathBuf::new(),
            handle: Some(handle),
            worker: None,
        })
    }

    /// Registers one in-process fleet worker polling every `poll`, and
    /// waits until the coordinator lists it live.
    pub fn add_worker(&mut self, poll: Duration) -> Result<(), String> {
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = WorkerConfig {
            coordinator: self.addr.to_string(),
            name: "bench-worker".into(),
            poll_interval: poll,
            retry: RetryPolicy::no_delay(3),
            stop: Some(Arc::clone(&stop)),
            tracer: ceal_trace::Tracer::disabled(),
        };
        self.worker = Some((stop, std::thread::spawn(move || run_worker(cfg))));
        let mut c = self.client()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while c.metrics().map_err(|e| e.to_string())?.fleet.live_workers < 1 {
            if Instant::now() > deadline {
                return Err("fleet worker never registered".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    /// A fresh connection.
    pub fn client(&self) -> Result<Client, String> {
        let mut c = Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(c)
    }

    /// The server's metrics.
    pub fn metrics(&self) -> Result<MetricsReport, String> {
        self.client()?.metrics().map_err(|e| e.to_string())
    }

    /// Stops the worker, shuts the server down and waits for every
    /// thread.
    pub fn stop(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let mut err = None;
        if let Some((stop, worker)) = self.worker.take() {
            stop.store(true, Ordering::Release);
            match worker.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => err = Some(format!("worker: {e}")),
                Err(_) => err = Some("worker panicked".into()),
            }
        }
        if let Some(handle) = self.handle.take() {
            let r = Client::connect(self.addr).and_then(|mut c| c.shutdown());
            if let Err(e) = r {
                err.get_or_insert(format!("shutdown: {e}"));
            }
            if let Err(e) = handle.join() {
                err.get_or_insert(format!("join: {e}"));
            }
        }
        err.map_or(Ok(()), Err)
    }
}

impl Drop for Env {
    fn drop(&mut self) {
        // Errors were reported by `stop` when it ran; here only make sure
        // no thread outlives the run.
        let _ = self.shutdown();
    }
}

/// Runs `setup` `ctx.setup_reps` times, each in a fresh directory,
/// keeping the last environment; records `setup_s` as the median.
fn timed_setup<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    what: &str,
    mut setup: impl FnMut(&Path) -> Result<(Env, T), String>,
) -> Result<(Env, T), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..ctx.setup_reps {
        if let Some((env, _)) = kept.take() {
            let env: Env = env;
            let dir = env.dir.clone();
            env.stop()?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.data.join(format!("setup-{rep}"));
        let t = Instant::now();
        kept = Some(setup(&dir)?);
        times.push(t.elapsed().as_secs_f64());
    }
    out.e2e(
        "setup_s",
        Metric {
            value: stats::median(&times),
            unit: "s",
            n: times.len() as u64,
            spread: stats::rel_iqr(&times),
            note: format!("median of set-ups: {what}"),
        },
    );
    kept.ok_or_else(|| "no set-up ran".into())
}

/// Replaces `env` with one freshly set up in the data directory `name`,
/// so the next window starts from the same server state as the last.
fn fresh<T>(
    ctx: &Ctx,
    env: Env,
    setup: &mut impl FnMut(&Path) -> Result<(Env, T), String>,
    name: &str,
) -> Result<(Env, T), String> {
    let dir = env.dir.clone();
    env.stop()?;
    let _ = std::fs::remove_dir_all(dir);
    setup(&ctx.data.join(name))
}

fn status_err(e: ClientError) -> String {
    e.to_string()
}

/// Drives a session from creation to `done`, then closes it.
pub fn session_campaign(
    c: &mut Client,
    p: TuneParams,
    rpc: &RpcHist,
) -> Result<(SessionStatus, bool), String> {
    let (st, from_cache) = rpc
        .time("create-session", || c.create_session(p, 0.0, 0))
        .map_err(status_err)?;
    let id = st.session;
    let mut st = st;
    for _ in 0..100 {
        if st.state == "done" {
            break;
        }
        st = rpc
            .time("advance", || c.advance(id, ADVANCE_RUNS))
            .map_err(status_err)?;
    }
    rpc.time("close-session", || c.close_session(id))
        .map_err(status_err)?;
    Ok((st, from_cache))
}

/// The in-process replica of a served campaign's construction (the
/// `tune` CLI's): pool seed `seed ^ 0xFACE`, oracle seed 2021.
pub struct Replica {
    /// The pool.
    pub pool: Vec<Vec<i64>>,
    /// Its precomputed oracle.
    pub oracle: PoolOracle,
    /// Best true value in the pool.
    pub best: f64,
}

impl Replica {
    /// Builds the replica of campaign `p`.
    pub fn new(p: &TuneParams) -> Self {
        let spec = ceal_apps::workflow_by_name(&p.workflow).expect("built-in workflow");
        let pool = sample(&spec, p.pool as usize, p.seed ^ 0xFACE);
        let oracle = PoolOracle::precompute(
            SimOracle::new(Simulator::new(), spec, Objective::ComputerTime, ORACLE_SEED),
            &pool,
        );
        let best = oracle
            .truth_for(&pool)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        Self { pool, oracle, best }
    }

    /// What a served one-shot `Tune` of `p` must answer.
    pub fn tune(&self, p: &TuneParams) -> Result<TuneOutcome, String> {
        let run = Ceal::new(CealParams::without_history())
            .try_run(&self.oracle, &self.pool, p.budget as usize, p.seed)
            .map_err(|e| e.to_string())?;
        let tuned = self
            .oracle
            .try_measure(&run.best_predicted)
            .map_err(|e| e.to_string())?;
        Ok(TuneOutcome {
            best: run.best_predicted.clone(),
            best_value: tuned.value,
            runs_used: run.runs_used() as u64,
            component_runs: run.component_runs.len() as u64,
            from_cache: false,
        })
    }
}

/// Server-side and client-side per-layer figures from a `Metrics` reply
/// and the client histograms.
///
/// `before` is a snapshot taken when `rpc` started timing, so the
/// client-minus-server overhead compares the same requests.
pub fn serve_layers(
    out: &mut Outcome,
    before: Option<&MetricsReport>,
    m: &MetricsReport,
    rpc: &RpcHist,
    source: &str,
) {
    let mut client_sum = 0.0;
    let mut server_sum = 0.0;
    let mut count = 0u64;
    for &ep in &ENDPOINTS {
        let Some(s) = m.endpoints.iter().find(|e| e.name == ep) else {
            continue;
        };
        let (count0, total0) = before
            .and_then(|b| b.endpoints.iter().find(|e| e.name == ep))
            .map_or((0, 0), |e| (e.count, e.total_us));
        let h = rpc.get(ep);
        if s.count == 0 || h.count() == 0 || out.has_layer(&format!("server.{ep}.p50_us")) {
            continue;
        }
        out.layer(
            &format!("server.{ep}.p50_us"),
            Metric {
                value: s.p50_us as f64,
                unit: "us",
                n: s.count,
                spread: 0.0,
                note: format!("server Metrics, {source}"),
            },
        );
        out.layer(
            &format!("server.{ep}.p99_us"),
            Metric {
                value: s.p99_us as f64,
                unit: "us",
                n: s.count,
                spread: 0.0,
                note: format!("server Metrics, {source}"),
            },
        );
        out.layer(
            &format!("rpc.{ep}.p50_us"),
            Metric {
                value: h.quantile(0.5) as f64,
                unit: "us",
                n: h.count(),
                spread: 0.0,
                note: format!("client round trip, {source}"),
            },
        );
        client_sum += h.sum_us() as f64;
        server_sum += (s.total_us - total0) as f64;
        count += h.count().min(s.count - count0);
    }
    if count > 0 && !out.has_layer("rpc.overhead_us") {
        out.layer(
            "rpc.overhead_us",
            Metric {
                value: (client_sum - server_sum) / count as f64,
                unit: "us",
                n: count,
                spread: 0.0,
                note: format!("mean client round trip minus server time per request, {source}"),
            },
        );
    }
    if !out.has_layer("server.shed") {
        out.layer(
            "server.shed",
            Metric::count(m.requests_shed, format!("requests shed, {source}")),
        );
    }
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    if m.cache_hits + m.cache_misses > 0 && !out.has_layer("cache.hit_ratio") {
        out.layer(
            "cache.hit_ratio",
            Metric {
                value: ratio(m.cache_hits, m.cache_misses),
                unit: "ratio",
                n: m.cache_hits + m.cache_misses,
                spread: 0.0,
                note: format!("Tune cache hits / lookups, {source}"),
            },
        );
        out.layer(
            "cache.front_hit_ratio",
            Metric {
                value: ratio(m.cache_lru_hits, m.cache_lru_misses),
                unit: "ratio",
                n: m.cache_lru_hits + m.cache_lru_misses,
                spread: 0.0,
                note: format!("LRU front hits / lookups, {source}"),
            },
        );
    }
}

/// Fleet counters from a `Metrics` reply.
pub fn fleet_layers(out: &mut Outcome, m: &MetricsReport, rpc: &RpcHist, lag: &[f64], src: &str) {
    let f = &m.fleet;
    out.layer(
        "fleet.tasks_dispatched",
        Metric::count(f.tasks_dispatched, src),
    );
    out.layer(
        "fleet.tasks_completed",
        Metric::count(f.tasks_completed, src),
    );
    out.layer("fleet.rescattered", Metric::count(f.tasks_rescattered, src));
    out.layer("fleet.duplicates", Metric::count(f.duplicate_results, src));
    out.layer(
        "fleet.useful_ratio",
        Metric::one(
            f.tasks_completed as f64 / f.tasks_dispatched.max(1) as f64,
            "ratio",
            format!("completed / dispatched, {src}"),
        ),
    );
    let h = rpc.get("advance");
    out.layer(
        "fleet.advance_ms_p50",
        Metric {
            value: h.quantile(0.5) as f64 / 1000.0,
            unit: "ms",
            n: h.count(),
            spread: 0.0,
            note: format!("client Advance round trip with the fleet, {src}"),
        },
    );
    out.layer(
        "fleet.heartbeat_lag_ms",
        Metric::mean_of(lag, "ms", format!("sampled worker heartbeat lag, {src}")),
    );
}

/// One client round of `serve_campaign`.
struct Round {
    index: u64,
    tune_seed: u64,
    tune: Result<TuneOutcome, String>,
    tune_ms: f64,
    sess_seed: u64,
    session: Result<(SessionStatus, bool), String>,
    sess_ms: f64,
}

impl Round {
    fn ms(&self) -> f64 {
        self.tune_ms + self.sess_ms
    }
}

/// Runs the rounds of a window of `secs` over `ctx.nproc` clients. The
/// clients take round indices (and so campaign seeds) from one counter
/// starting at `first`, so two windows on one server never repeat a seed
/// and a window's campaigns do not depend on timing. Returns the rounds
/// in index order and the window length.
fn window_campaign(
    env: &Env,
    ctx: &Ctx,
    secs: f64,
    rpc: &RpcHist,
    first: u64,
) -> (Vec<Round>, f64) {
    let total = planned(ROUNDS_PER_S, secs);
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let cap = start + Duration::from_secs_f64(WINDOW_CAP * secs);
    let mut rounds: Vec<Round> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|_| {
                s.spawn(|| {
                    let mut c = match env.client() {
                        Ok(c) => c,
                        Err(e) => {
                            return vec![Round {
                                index: first + next.fetch_add(1, Ordering::Relaxed),
                                tune_seed: 0,
                                tune: Err(e.clone()),
                                tune_ms: 0.0,
                                sess_seed: 0,
                                session: Err(e),
                                sess_ms: 0.0,
                            }]
                        }
                    };
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total || Instant::now() >= cap {
                            break;
                        }
                        let index = first + k;
                        let tune_seed = campaign_seed(ctx.seed, 1, index);
                        let sess_seed = campaign_seed(ctx.seed, 2, index);
                        let t = Instant::now();
                        let tune = rpc
                            .time("tune", || c.tune(params(tune_seed, BUDGET, POOL)))
                            .map_err(status_err);
                        let tune_ms = ms(t.elapsed());
                        let t = Instant::now();
                        let session =
                            session_campaign(&mut c, params(sess_seed, BUDGET, POOL), rpc);
                        let sess_ms = ms(t.elapsed());
                        let broken = tune.is_err() || session.is_err();
                        out.push(Round {
                            index,
                            tune_seed,
                            tune,
                            tune_ms,
                            sess_seed,
                            session,
                            sess_ms,
                        });
                        if broken {
                            match env.client() {
                                Ok(fresh) => c = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    rounds.sort_by_key(|r| r.index);
    (rounds, start.elapsed().as_secs_f64())
}

/// `serve_campaign`: two clients, each alternating a cold one-shot
/// `Tune` with a session campaign, closed loop, on a durable server.
pub fn run_campaign(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setup = |dir: &Path| {
        let env = Env::bind(dir, ctx.nproc)?;
        let mut c = env.client()?;
        c.tune(params(campaign_seed(ctx.seed, 6, 0), BUDGET, POOL))
            .map_err(status_err)?;
        let p = params(campaign_seed(ctx.seed, 6, 1), BUDGET, POOL);
        session_campaign(&mut c, p, &RpcHist::new())?;
        Ok((env, ()))
    };
    let what = "bind durable server, warm up with one cold Tune and one session campaign";
    let (mut env, ()) = timed_setup(ctx, out, what, &mut setup)?;
    let rpc = RpcHist::with_recorder(Recorder::new(ctx.trace));
    let mut before = None;
    let window_secs = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (rounds, secs, drift) = if ctx.trace {
        // Untraced and traced halves, each on a freshly set-up server so
        // both start from the same cache shard: the difference is the
        // tracing overhead.
        let (plain, plain_secs) = window_campaign(&env, ctx, window_secs, &RpcHist::new(), 0);
        note_cap(out, "untraced half", plain.len(), planned(ROUNDS_PER_S, window_secs), plain_secs);
        env = fresh(ctx, env, &mut setup, "traced")?.0;
        before = Some(env.metrics()?);
        let (traced, secs) = window_campaign(&env, ctx, window_secs, &rpc, 5 * EPOCH_STRIDE);
        note_cap(out, "traced half", traced.len(), planned(ROUNDS_PER_S, window_secs), secs);
        let op_ms: f64 = traced.iter().map(Round::ms).sum();
        rpc.attribute(out, op_ms, "serve_campaign");
        let per = |r: &[Round], s: f64| r.len() as f64 / s;
        out.layer(
            "trace.overhead_frac",
            Metric::one(
                per(&plain, plain_secs) / per(&traced, secs) - 1.0,
                "ratio",
                "untraced over traced rounds/s, minus 1",
            ),
        );
        let drift = stats::drift(&traced.iter().map(Round::ms).collect::<Vec<_>>());
        let mut all = plain;
        all.extend(traced);
        (all, plain_secs + secs, drift)
    } else {
        let epoch_secs = window_secs / EPOCHS as f64;
        let (mut rounds, mut secs, mut drifts) = (Vec::new(), 0.0, Vec::new());
        for e in 0..EPOCHS {
            if e > 0 {
                env = fresh(ctx, env, &mut setup, &format!("epoch-{e}"))?.0;
            }
            let (r, s) = window_campaign(&env, ctx, epoch_secs, &rpc, e * EPOCH_STRIDE);
            note_cap(out, &format!("epoch {e}"), r.len(), planned(ROUNDS_PER_S, epoch_secs), s);
            drifts.push(stats::drift(&r.iter().map(Round::ms).collect::<Vec<_>>()));
            rounds.extend(r);
            secs += s;
        }
        (rounds, secs, stats::median(&drifts))
    };
    out.named(
        "round_ms_drift",
        Metric::one(
            drift,
            "ratio",
            "median client round of an epoch's last quarter of rounds over its first, minus 1 (median over epochs)",
        ),
    );

    let mut tune_ms = Vec::new();
    let mut sess_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut coupled = Vec::new();
    let mut solo = Vec::new();
    let mut sim = Vec::new();
    for r in &rounds {
        let tune_ok = match &r.tune {
            Ok(t) => !t.from_cache && t.runs_used <= BUDGET,
            Err(_) => false,
        };
        out.op(tune_ok, || match &r.tune {
            Ok(t) => format!(
                "Tune seed {}: from_cache={} runs {}",
                r.tune_seed, t.from_cache, t.runs_used
            ),
            Err(e) => format!("Tune seed {}: {e}", r.tune_seed),
        });
        let sess_ok = match &r.session {
            Ok((st, from_cache)) => st.state == "done" && st.measured == BUDGET && !from_cache,
            Err(_) => false,
        };
        out.op(sess_ok, || match &r.session {
            Ok((st, _)) => format!(
                "session seed {}: {} measured {}",
                r.sess_seed, st.state, st.measured
            ),
            Err(e) => format!("session seed {}: {e}", r.sess_seed),
        });
        tune_ms.push(r.tune_ms);
        sess_ms.push(r.sess_ms);
        round_ms.push(r.ms());
        if let (Ok(t), Ok((st, _))) = (&r.tune, &r.session) {
            coupled.extend([t.runs_used as f64 + 1.0, st.measured as f64]);
            solo.extend([t.component_runs as f64, st.history_samples as f64]);
            sim.extend([
                (POOL + t.component_runs) as f64,
                (st.history_samples + st.measured) as f64,
            ]);
        }
    }

    // Replay the first rounds in-process.
    let checked: Vec<&Round> = rounds.iter().filter(|r| r.index < CHECKED).collect();
    let replays = ceal_par::parallel_map(&checked, |r| {
        let tp = params(r.tune_seed, BUDGET, POOL);
        let tune_rep = Replica::new(&tp);
        let want = tune_rep.tune(&tp);
        let sess_rep = Replica::new(&params(r.sess_seed, BUDGET, POOL));
        (want, tune_rep.best, sess_rep.best)
    });
    let mut norms = Vec::new();
    for (r, (want, tune_best, sess_best)) in checked.iter().zip(replays) {
        let same = match (&r.tune, &want) {
            (Ok(got), Ok(want)) => got == want,
            _ => false,
        };
        out.check(
            &format!("tune_matches_local_seed_{}", r.tune_seed),
            same,
            match (&r.tune, &want) {
                (Ok(g), Ok(w)) if g != w => format!("served {g:?} vs local {w:?}"),
                (Err(e), _) | (_, Err(e)) => e.clone(),
                _ => String::new(),
            },
        );
        if let Ok(t) = &r.tune {
            norms.push(t.best_value / tune_best);
        }
        if let Ok((st, _)) = &r.session {
            if let Some(v) = st.best_value {
                norms.push(v / sess_best);
            }
        }
    }
    out.e2e(
        "tuned_norm",
        Metric::mean_of(
            &norms,
            "ratio",
            "mean served best value / pool best, first rounds",
        ),
    );
    let n_rounds = round_ms.len() as f64;
    out.e2e(
        "ops_per_s",
        Metric {
            value: n_rounds / secs,
            unit: "1/s",
            n: n_rounds as u64,
            spread: stats::rel_iqr(&round_ms),
            note: format!(
                "client rounds (cold Tune + session campaign) per s, {} rounds in {secs:.2} s",
                rounds.len()
            ),
        },
    );
    if let Some(s) = stats::summarize(&round_ms, 95.0) {
        out.op_latency(&s, "client round (cold Tune + session campaign)");
    }
    out.named(
        "campaigns_per_s",
        Metric::one(2.0 * n_rounds / secs, "1/s", "Tune and session campaigns"),
    );
    if let Some(s) = stats::summarize(&sess_ms, 95.0) {
        named_pair(out, "campaign_ms", 95.0, &s);
    }
    if let Some(s) = stats::summarize(&tune_ms, 95.0) {
        named_pair(out, "tune_ms", 95.0, &s);
    }
    out.named("tuned_norm", out.e2e["tuned_norm"].clone());

    if ctx.trace {
        let m = env.metrics()?;
        serve_layers(out, before.as_ref(), &m, &rpc, "serve_campaign");
        out.layer(
            "oracle.coupled",
            Metric::mean_of(
                &coupled,
                "count",
                "coupled measurements per served campaign",
            ),
        );
        out.layer(
            "oracle.solo",
            Metric::mean_of(&solo, "count", "solo measurements per served campaign"),
        );
        out.layer(
            "sim.runs",
            Metric::mean_of(
                &sim,
                "count",
                "live simulator runs per served campaign (Tune: pool + solos; session: history + measured)",
            ),
        );
        let total: f64 = tune_ms.iter().chain(&sess_ms).sum();
        out.notes.push(format!(
            "serve_campaign: cold Tune {:.1} % and session campaigns {:.1} % of client time",
            100.0 * tune_ms.iter().sum::<f64>() / total,
            100.0 * sess_ms.iter().sum::<f64>() / total
        ));
    }
    env.stop()
}

/// `fleet_campaign`: one client running closed-loop session campaigns
/// on a durable server with one in-process fleet worker registered.
pub fn run_fleet(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut setup = |dir: &Path| {
        let mut env = Env::bind(dir, ctx.nproc)?;
        env.add_worker(FLEET_POLL)?;
        let p = params(campaign_seed(ctx.seed, 6, 2), BUDGET, POOL);
        session_campaign(&mut env.client()?, p, &RpcHist::new())?;
        Ok((env, ()))
    };
    let what = "bind durable server, register one fleet worker, warm up with one session campaign";
    let (mut env, ()) = timed_setup(ctx, out, what, &mut setup)?;
    let rpc = RpcHist::with_recorder(Recorder::new(ctx.trace));
    let mut lag = Vec::new();
    let (done, secs, m0, m, drift) = if ctx.trace {
        let plain = fleet_window(
            out,
            &env,
            ctx,
            ctx.seconds / 2.0,
            &RpcHist::new(),
            0,
            &mut lag,
        )?;
        env = fresh(ctx, env, &mut setup, "traced")?.0;
        let first = 5 * EPOCH_STRIDE;
        let traced = fleet_window(out, &env, ctx, ctx.seconds / 2.0, &rpc, first, &mut lag)?;
        rpc.attribute(out, traced.0.iter().map(|d| d.2).sum(), "fleet_campaign");
        out.layer(
            "trace.overhead_frac",
            Metric::one(
                (plain.0.len() as f64 / plain.1) / (traced.0.len() as f64 / traced.1) - 1.0,
                "ratio",
                "untraced over traced campaigns/s, minus 1",
            ),
        );
        let drift = stats::drift(&traced.0.iter().map(|d| d.2).collect::<Vec<_>>());
        let mut all = plain.0;
        all.extend(traced.0);
        (all, plain.1 + traced.1, traced.2, traced.3, drift)
    } else {
        let epoch_secs = ctx.seconds / EPOCHS as f64;
        let (mut all, mut secs, mut drifts, mut last) = (Vec::new(), 0.0, Vec::new(), None);
        for e in 0..EPOCHS {
            if e > 0 {
                env = fresh(ctx, env, &mut setup, &format!("epoch-{e}"))?.0;
            }
            let (done, s, m0, m) =
                fleet_window(out, &env, ctx, epoch_secs, &rpc, e * EPOCH_STRIDE, &mut lag)?;
            drifts.push(stats::drift(&done.iter().map(|d| d.2).collect::<Vec<_>>()));
            all.extend(done);
            secs += s;
            last = Some((m0, m));
        }
        let (m0, m) = last.expect("an epoch ran");
        (all, secs, m0, m, stats::median(&drifts))
    };
    out.named(
        "campaign_ms_drift",
        Metric::one(
            drift,
            "ratio",
            "median campaign of an epoch's last quarter over its first, minus 1 (median over epochs)",
        ),
    );
    let mut times = Vec::new();
    for (seed, r, t) in &done {
        let ok = matches!(r, Ok((st, fc)) if st.state == "done" && st.measured == BUDGET && !fc);
        out.op(ok, || match r {
            Ok((st, _)) => format!(
                "fleet session seed {seed}: {} measured {}",
                st.state, st.measured
            ),
            Err(e) => format!("fleet session seed {seed}: {e}"),
        });
        times.push(*t);
    }

    // The fleetless reference for the first campaigns.
    let reference = Env::bind_in_memory(ctx.nproc)?;
    let mut c = reference.client()?;
    let mut norms = Vec::new();
    let checked: Vec<_> = done.iter().take(CHECKED as usize).collect();
    let replicas = ceal_par::parallel_map(&checked, |(seed, _, _)| {
        Replica::new(&params(*seed, BUDGET, POOL)).best
    });
    let scratch = RpcHist::new();
    for ((seed, r, _), best) in checked.iter().zip(replicas) {
        let want = session_campaign(&mut c, params(*seed, BUDGET, POOL), &scratch);
        let same = match (r, &want) {
            (Ok((a, _)), Ok((b, _))) => {
                a.best == b.best
                    && a.best_value == b.best_value
                    && (a.history_samples, a.measured) == (b.history_samples, b.measured)
            }
            _ => false,
        };
        out.check(
            &format!("fleet_matches_fleetless_seed_{seed}"),
            same,
            match (r, &want) {
                (Ok((a, _)), Ok((b, _))) if !same => format!(
                    "fleet best {:?} {:?} measured {} vs {:?} {:?} {}",
                    a.best, a.best_value, a.measured, b.best, b.best_value, b.measured
                ),
                (Err(e), _) | (_, Err(e)) => e.clone(),
                _ => String::new(),
            },
        );
        if let Ok((st, _)) = r {
            if let Some(v) = st.best_value {
                norms.push(v / best);
            }
        }
    }
    drop(c);
    reference.stop()?;

    out.e2e(
        "tuned_norm",
        Metric::mean_of(
            &norms,
            "ratio",
            "mean session best value / pool best, first campaigns",
        ),
    );
    let n = times.len() as f64;
    out.e2e(
        "ops_per_s",
        Metric {
            value: n / secs,
            unit: "1/s",
            n: n as u64,
            spread: stats::rel_iqr(&times),
            note: format!("session campaigns per s over {secs:.2} s"),
        },
    );
    out.named("campaigns_per_s", out.e2e["ops_per_s"].clone());
    if let Some(s) = stats::summarize(&times, 95.0) {
        out.op_latency(&s, "session campaign with one fleet worker");
        named_pair(out, "campaign_ms", 95.0, &s);
    }
    out.named("tuned_norm", out.e2e["tuned_norm"].clone());
    if ctx.trace {
        serve_layers(out, Some(&m0), &m, &rpc, "fleet_campaign");
        fleet_layers(out, &m, &rpc, &lag, "fleet_campaign");
    }
    env.stop()
}

/// Fleet worker poll interval (the fleet tests' cadence).
pub const FLEET_POLL: Duration = Duration::from_millis(5);

type FleetDone = (u64, Result<(SessionStatus, bool), String>, f64);

/// One measured window of `fleet_campaign` on `env`, with its billing
/// checked against the server's counters; returns the campaigns, the
/// window length, and the server's metrics before and after.
fn fleet_window(
    out: &mut Outcome,
    env: &Env,
    ctx: &Ctx,
    secs: f64,
    rpc: &RpcHist,
    first: u64,
    lag: &mut Vec<f64>,
) -> Result<(Vec<FleetDone>, f64, MetricsReport, MetricsReport), String> {
    let m0 = env.metrics()?;
    let (done, elapsed) = window_fleet(env, ctx, secs, rpc, first, lag)?;
    note_cap(out, "fleet window", done.len(), planned(FLEET_PER_S, secs), elapsed);
    let m = env.metrics()?;
    let (mut spend, mut measured) = (0u64, 0u64);
    for (st, _) in done.iter().filter_map(|d| d.1.as_ref().ok()) {
        spend += st.history_samples + st.measured;
        measured += st.measured;
    }
    let billed = m.oracle_measurements - m0.oracle_measurements;
    out.check(
        "fleet_bills_exactly_once",
        billed == spend,
        format!(
            "oracle measurements {billed} vs history + measured of the window's campaigns {spend}"
        ),
    );
    let tasks = m.fleet.tasks_completed - m0.fleet.tasks_completed;
    out.check(
        "fleet_tasks_cover_measurements",
        tasks == measured,
        format!("fleet tasks completed {tasks} vs coupled measurements {measured}"),
    );
    Ok((done, elapsed, m0, m))
}

/// Runs the session campaigns of a window of `secs` one after another on
/// one connection; indices (and so seeds) start at `first`.
fn window_fleet(
    env: &Env,
    ctx: &Ctx,
    secs: f64,
    rpc: &RpcHist,
    first: u64,
    lag: &mut Vec<f64>,
) -> Result<(Vec<FleetDone>, f64), String> {
    let mut c = env.client()?;
    let total = planned(FLEET_PER_S, secs);
    let start = Instant::now();
    let cap = start + Duration::from_secs_f64(WINDOW_CAP * secs);
    let mut done = Vec::new();
    let mut i = first;
    let mut next_lag = start;
    while (done.len() as u64) < total && Instant::now() < cap {
        let seed = campaign_seed(ctx.seed, 5, i);
        let t = Instant::now();
        let r = session_campaign(&mut c, params(seed, BUDGET, POOL), rpc);
        done.push((seed, r, ms(t.elapsed())));
        if done.last().is_some_and(|d| d.1.is_err()) {
            c = env.client()?;
        }
        if Instant::now() >= next_lag {
            // Sampled outside the campaign timings, about once a second.
            if let Ok(m) = c.metrics() {
                lag.extend(m.fleet.workers.iter().map(|w| w.heartbeat_lag_ms as f64));
            }
            next_lag += Duration::from_secs(1);
        }
        i += 1;
    }
    Ok((done, start.elapsed().as_secs_f64()))
}
