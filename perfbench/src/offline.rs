//! `offline_tune`: the paper's Fig. 5 evaluation matrix, as `repro fig5`
//! runs it.
//!
//! Five scenarios (LV/HS exec, LV/HS/GP comp) on 2000-configuration
//! pools measured once in set-up; ten (workflow, objective, budget)
//! panels; RS, GEIST, AL and CEAL (with the per-panel tuned CEAL
//! hyperparameters `repro` uses) on every panel; each (panel, algorithm)
//! cell run in parallel over one seed per thread with `ceal-par`. A pass
//! is the whole matrix for one seed per thread; the window runs whole
//! passes, and the second pass repeats the first pass's seeds so the
//! recommendations can be compared.

use crate::outcome::{Metric, Outcome};
use crate::spans::{spans_kept, Recorder, SpanLog};
use crate::stats;
use crate::Ctx;
use ceal_core::{
    ActiveLearning, Autotuner, Ceal, Geist, MeasureError, Measurement, Oracle, PoolOracle,
    RandomSampling, SimOracle, SoloMeasurement,
};
use ceal_sim::{Objective, Platform, Simulator, WorkflowSpec};
use ceal_trace::TraceContext;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pool size (paper §5).
pub const POOL: usize = 2000;

/// Fig. 5's panels: (workflow, objective, budget).
const PANELS: [(&str, Objective, usize); 10] = [
    ("LV", Objective::ExecutionTime, 50),
    ("LV", Objective::ExecutionTime, 100),
    ("HS", Objective::ExecutionTime, 50),
    ("HS", Objective::ExecutionTime, 100),
    ("LV", Objective::ComputerTime, 25),
    ("LV", Objective::ComputerTime, 50),
    ("HS", Objective::ComputerTime, 25),
    ("HS", Objective::ComputerTime, 50),
    ("GP", Objective::ComputerTime, 25),
    ("GP", Objective::ComputerTime, 50),
];

/// Algorithms in figure order, with their span names.
pub const ALGOS: [&str; 4] = ["rs", "geist", "al", "ceal"];
pub const SPAN_NAMES: [&str; 4] = ["tuner.rs", "tuner.geist", "tuner.al", "tuner.ceal"];
/// Index of CEAL in [`ALGOS`].
const CEAL: usize = 3;

/// Oracle base seed, as `repro` and the `tune` CLI use.
const ORACLE_SEED: u64 = 2021;

/// Algorithm `i` of [`ALGOS`] as `repro` configures it for a panel.
pub fn algorithm(i: usize, wf: &str, obj: Objective, budget: usize) -> Box<dyn Autotuner> {
    match i {
        0 => Box::new(RandomSampling),
        1 => Box::new(Geist::default()),
        2 => Box::new(ActiveLearning::default()),
        _ => Box::new(Ceal::new(ceal_bench::experiments::ceal_no_hist_params(
            wf, obj, budget,
        ))),
    }
}

/// One evaluation scenario with its precomputed pool.
pub struct Scen {
    /// Workflow name.
    pub wf: &'static str,
    /// Objective.
    pub obj: Objective,
    /// The candidate pool.
    pub pool: Vec<Vec<i64>>,
    /// Precomputed oracle over the pool.
    pub oracle: PoolOracle,
    /// Best true value in the pool.
    pub best: f64,
}

/// The pool seed `repro` uses for a workflow. Pools are the paper's
/// fixed dataset, shared by every run; the workload seed varies the
/// tuners' seeds.
fn pool_seed(wf: &str) -> u64 {
    let tag = (wf.len() as u64) * 131 + wf.bytes().map(u64::from).sum::<u64>();
    0x5EED ^ tag
}

/// Samples a pool of `size` feasible configurations.
pub fn sample(spec: &WorkflowSpec, size: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    ceal_core::sample_pool(spec, &Platform::default(), size, &mut rng)
}

/// Builds the five scenarios; returns them with the per-pool sampling
/// and precompute times (ms).
fn build() -> (Vec<Scen>, Vec<f64>, Vec<f64>) {
    let mut sample_ms = Vec::new();
    let mut precompute_ms = Vec::new();
    let mut pools = Vec::new();
    for wf in ["LV", "HS", "GP"] {
        let spec = ceal_apps::workflow_by_name(wf).expect("built-in workflow");
        let t = Instant::now();
        let pool = sample(&spec, POOL, pool_seed(wf));
        sample_ms.push(ms(t.elapsed()));
        pools.push((wf, spec, pool));
    }
    let mut scens = Vec::new();
    for (wf, obj) in [
        ("LV", Objective::ExecutionTime),
        ("HS", Objective::ExecutionTime),
        ("LV", Objective::ComputerTime),
        ("HS", Objective::ComputerTime),
        ("GP", Objective::ComputerTime),
    ] {
        let (_, spec, pool) = pools.iter().find(|p| p.0 == wf).expect("pool sampled");
        let t = Instant::now();
        let oracle = PoolOracle::precompute(
            SimOracle::new(Simulator::new(), spec.clone(), obj, ORACLE_SEED),
            pool,
        );
        precompute_ms.push(ms(t.elapsed()));
        let best = oracle
            .truth_for(pool)
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        scens.push(Scen {
            wf,
            obj,
            pool: pool.clone(),
            oracle,
            best,
        });
    }
    (scens, sample_ms, precompute_ms)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

/// An [`Oracle`] wrapper that opens a span per measurement and counts
/// what it forwards, including measurements the pool table cannot answer
/// (live simulator runs).
pub struct SpannedOracle<'a> {
    inner: &'a PoolOracle,
    rec: &'a Recorder,
    ctx: TraceContext,
    /// Coupled measurements forwarded.
    pub coupled: AtomicU64,
    /// Solo component measurements forwarded (always live runs).
    pub solo: AtomicU64,
    /// Coupled measurements outside the precomputed table.
    pub misses: AtomicU64,
}

impl<'a> SpannedOracle<'a> {
    /// Wraps `inner`, parenting spans on `ctx`.
    pub fn new(inner: &'a PoolOracle, rec: &'a Recorder, ctx: TraceContext) -> Self {
        Self {
            inner,
            rec,
            ctx,
            coupled: AtomicU64::new(0),
            solo: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl Oracle for SpannedOracle<'_> {
    fn spec(&self) -> &WorkflowSpec {
        self.inner.spec()
    }
    fn platform(&self) -> &Platform {
        self.inner.platform()
    }
    fn objective(&self) -> Objective {
        self.inner.objective()
    }
    fn try_measure(&self, config: &[i64]) -> Result<Measurement, MeasureError> {
        let _span = self.rec.child("oracle.coupled", self.ctx);
        self.coupled.fetch_add(1, Ordering::Relaxed);
        if !self.inner.table().contains_key(config) {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.try_measure(config)
    }
    fn try_measure_component(
        &self,
        component: usize,
        values: &[i64],
    ) -> Result<SoloMeasurement, MeasureError> {
        let _span = self.rec.child("oracle.solo", self.ctx);
        self.solo.fetch_add(1, Ordering::Relaxed);
        self.inner.try_measure_component(component, values)
    }
}

/// One finished campaign.
struct Done {
    algo: usize,
    ms: f64,
    /// True value of the recommendation over the pool best.
    norm: f64,
    /// Pool index of the recommendation (digest input).
    best_idx: usize,
    ok: bool,
    why: String,
    coupled: u64,
    solo: u64,
    live: u64,
}

fn campaign(scen: &Scen, algo: usize, budget: usize, seed: u64, rec: &Recorder) -> Done {
    let tuner = algorithm(algo, scen.wf, scen.obj, budget);
    let t = Instant::now();
    let span = rec.root(SPAN_NAMES[algo]);
    let spanned = SpannedOracle::new(&scen.oracle, rec, span.ctx());
    let run = if rec.on() {
        tuner.try_run(&spanned, &scen.pool, budget, seed)
    } else {
        tuner.try_run(&scen.oracle, &scen.pool, budget, seed)
    };
    drop(span);
    let ms = ms(t.elapsed());
    let (coupled, solo, live) = (
        spanned.coupled.load(Ordering::Relaxed),
        spanned.solo.load(Ordering::Relaxed),
        spanned.misses.load(Ordering::Relaxed) + spanned.solo.load(Ordering::Relaxed),
    );
    let fail = |why: String| Done {
        algo,
        ms,
        norm: f64::NAN,
        best_idx: usize::MAX,
        ok: false,
        why,
        coupled,
        solo,
        live,
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => return fail(format!("try_run failed: {e}")),
    };
    let Some(best_idx) = scen.pool.iter().position(|c| *c == run.best_predicted) else {
        return fail("recommendation not in its pool".into());
    };
    if run.runs_used() > budget {
        return fail(format!("runs_used {} > budget {budget}", run.runs_used()));
    }
    let truth = scen.oracle.table()[&run.best_predicted].value;
    Done {
        algo,
        ms,
        norm: truth / scen.best,
        best_idx,
        ok: true,
        why: String::new(),
        coupled,
        solo,
        live,
    }
}

/// Runs one pass of the matrix with one seed per entry of `seeds`,
/// moving the spans of each (panel, algorithm) cell into `log` before the
/// next cell starts, so the tracer's bounded ring holds one cell at most.
fn pass(scens: &[Scen], seeds: &[u64], rec: &Recorder, log: &mut SpanLog) -> Vec<Done> {
    let mut out = Vec::new();
    for &(wf, obj, budget) in &PANELS {
        let scen = scens
            .iter()
            .find(|s| s.wf == wf && s.obj == obj)
            .expect("scenario built");
        for algo in 0..ALGOS.len() {
            out.extend(ceal_par::parallel_map(seeds, |&s| {
                campaign(scen, algo, budget, s, rec)
            }));
            rec.drain_into(log);
        }
    }
    out
}

fn digest(done: &[Done]) -> u64 {
    done.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, d| {
        (h ^ d.best_idx as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Results of one measurement window.
struct Window {
    done: Vec<Done>,
    secs: f64,
    digests: Vec<u64>,
}

fn window(scens: &[Scen], ctx: &Ctx, secs: f64, rec: &Recorder, log: &mut SpanLog) -> Window {
    let threads = ceal_par::available_threads();
    let start = Instant::now();
    let mut done = Vec::new();
    let mut digests = Vec::new();
    let mut p = 0u64;
    // At least two passes: the second repeats the first's seeds.
    while p < 2 || start.elapsed().as_secs_f64() < secs {
        let base = if p == 1 { 0 } else { p };
        let seeds: Vec<u64> = (0..threads as u64)
            .map(|t| ctx.seed.wrapping_mul(1000).wrapping_add(base * 64 + t))
            .collect();
        let res = pass(scens, &seeds, rec, log);
        digests.push(digest(&res));
        done.extend(res);
        p += 1;
    }
    Window {
        done,
        secs: start.elapsed().as_secs_f64(),
        digests,
    }
}

/// Checks every campaign of a window, and that the repeated pass chose
/// what the first did.
fn check_window(out: &mut Outcome, w: &Window) {
    for d in &w.done {
        out.op(d.ok, || format!("{} campaign: {}", ALGOS[d.algo], d.why));
    }
    out.check(
        "digest_repeats",
        w.digests[0] == w.digests[1],
        format!(
            "recommendation digest of pass 1 {:016x} vs its repeat {:016x}",
            w.digests[0], w.digests[1]
        ),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..ctx.setup_reps {
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        setups.push(t.elapsed().as_secs_f64());
    }
    let (scens, sample_ms, precompute_ms) = built.expect("set-up ran");
    out.e2e(
        "setup_s",
        Metric {
            value: stats::median(&setups),
            unit: "s",
            n: setups.len() as u64,
            spread: stats::rel_iqr(&setups),
            note: "median of set-ups: sample 3 pools, precompute 5 scenarios".into(),
        },
    );

    let mut log = SpanLog::default();
    let w = if ctx.trace {
        let plain = window(
            &scens,
            ctx,
            ctx.seconds / 2.0,
            &Recorder::new(false),
            &mut log,
        );
        check_window(out, &plain);
        let rec = Recorder::new(true);
        let traced = window(&scens, ctx, ctx.seconds / 2.0, &rec, &mut log);
        let rate = |w: &Window| w.done.len() as f64 / w.secs;
        out.layer(
            "trace.overhead_frac",
            Metric::one(
                rate(&plain) / rate(&traced) - 1.0,
                "ratio",
                "untraced over traced campaigns/s, minus 1",
            ),
        );
        layers(out, &traced, &log, &setups, &sample_ms, &precompute_ms);
        traced
    } else {
        window(&scens, ctx, ctx.seconds, &Recorder::new(false), &mut log)
    };

    check_window(out, &w);
    let norm_of = |a: usize| {
        let v: Vec<f64> = w
            .done
            .iter()
            .filter(|d| d.ok && d.algo == a)
            .map(|d| d.norm)
            .collect();
        stats::mean(&v)
    };
    let (rs, ceal) = (norm_of(0), norm_of(CEAL));
    out.check(
        "ceal_not_worse_than_rs",
        ceal <= rs,
        format!("mean tuned_norm CEAL {ceal:.4} vs RS {rs:.4}"),
    );
    for (a, name) in ALGOS.iter().enumerate() {
        out.notes
            .push(format!("tuned_norm {name}: {:.4}", norm_of(a)));
    }

    let n = w.done.len() as f64;
    let times: Vec<f64> = w.done.iter().map(|d| d.ms).collect();
    let norms: Vec<f64> = w
        .done
        .iter()
        .filter(|d| d.ok && d.algo == CEAL)
        .map(|d| d.norm)
        .collect();
    out.e2e(
        "ops_per_s",
        Metric {
            value: n / w.secs,
            unit: "1/s",
            n: n as u64,
            spread: stats::rel_iqr(&times),
            note: format!(
                "campaigns/s over {} whole passes of the matrix in {:.2} s",
                w.digests.len(),
                w.secs
            ),
        },
    );
    out.e2e(
        "tuned_norm",
        Metric::mean_of(
            &norms,
            "ratio",
            "CEAL: mean true value of the recommendation / pool best over the matrix",
        ),
    );
    if let Some(s) = stats::summarize(&times, 95.0) {
        out.op_latency(&s, "campaign wall time");
        crate::outcome::named_pair(out, "campaign_ms", 95.0, &s);
    }
    out.named("campaigns_per_s", out.e2e["ops_per_s"].clone());
    out.named("tuned_norm", out.e2e["tuned_norm"].clone());
}

/// Per-layer metrics and the wall-time attribution of a traced window.
fn layers(
    out: &mut Outcome,
    w: &Window,
    log: &SpanLog,
    setups: &[f64],
    sample_ms: &[f64],
    precompute_ms: &[f64],
) {
    let by = log.by_name();
    spans_kept(out, log);
    let mut attribution: Vec<(String, f64)> = Vec::new();
    let setup_ms = setups.last().copied().unwrap_or(0.0) * 1000.0;
    attribution.push(("setup (pools + precompute)".into(), setup_ms));
    for (a, name) in ALGOS.iter().enumerate() {
        let t = by.get(SPAN_NAMES[a]).cloned().unwrap_or_default();
        let per = if t.count > 0 {
            t.self_ms / t.count as f64
        } else {
            0.0
        };
        out.layer(
            &format!("tuner.self_ms.{name}"),
            Metric::one(
                per,
                "ms",
                format!("mean per campaign over {} campaigns", t.count),
            ),
        );
        attribution.push((format!("tuner self {name}"), t.self_ms));
    }
    let oracle_ms: f64 = ["oracle.coupled", "oracle.solo"]
        .iter()
        .filter_map(|n| by.get(n))
        .map(|t| t.total_ms)
        .sum();
    attribution.push(("oracle".into(), oracle_ms));
    let n = w.done.len().max(1) as f64;
    let sum = |f: fn(&Done) -> u64| w.done.iter().map(f).sum::<u64>() as f64;
    out.layer(
        "oracle.coupled",
        Metric::one(
            sum(|d| d.coupled) / n,
            "count",
            "coupled measurements per campaign",
        ),
    );
    out.layer(
        "oracle.solo",
        Metric::one(
            sum(|d| d.solo) / n,
            "count",
            "solo measurements per campaign",
        ),
    );
    out.layer(
        "oracle.self_ms",
        Metric::one(oracle_ms / n, "ms", "oracle wrapper time per campaign"),
    );
    out.layer(
        "sim.runs",
        Metric::one(
            sum(|d| d.live) / n,
            "count",
            "live simulator runs per campaign (solo runs + table misses)",
        ),
    );
    out.layer(
        "pool.sample_ms",
        Metric::mean_of(sample_ms, "ms", "sample_pool of 2000, per workflow"),
    );
    out.layer(
        "pool.precompute_ms",
        Metric::mean_of(
            precompute_ms,
            "ms",
            "PoolOracle::precompute of 2000, per scenario",
        ),
    );
    let total: f64 = attribution.iter().map(|a| a.1).sum();
    out.notes.push(format!(
        "offline_tune attribution of {:.0} ms (set-up wall + campaign thread time; spans dropped: {}):",
        total, log.dropped
    ));
    for (name, t) in &attribution {
        out.notes.push(format!(
            "  {name:<28} {t:>10.1} ms  {:>5.1} %",
            100.0 * t / total
        ));
    }
    let top = attribution
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("attribution has rows");
    out.notes.push(format!(
        "top layer: {} ({:.1} % of e2e)",
        top.0,
        100.0 * top.1 / total
    ));
    out.layer(
        "attr.top_share",
        Metric::one(top.1 / total, "ratio", format!("share of {}", top.0)),
    );
}
