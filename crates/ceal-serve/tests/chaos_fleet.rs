//! Fleet chaos: kill a measurement worker mid-batch, then kill the
//! coordinator mid-gather-apply, and assert the campaign still completes
//! with zero duplicate oracle charges — every coupled measurement appears
//! exactly once in the session's write-ahead journal, and the restarted
//! coordinator pays only for the budget the crash lost.
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_fleet`.
#![cfg(feature = "chaos")]

use ceal_core::{Journal, JournalRecord, RetryPolicy};
use ceal_serve::{run_worker, Client, ServeConfig, Server, TuneParams, WorkerConfig};
use ceal_testutil::{chaos, unique_temp_path};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BUDGET: u64 = 14;

fn params() -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "exec".into(),
        budget: BUDGET,
        pool: 120,
        seed: 41,
        algo: "ceal".into(),
    }
}

fn spawn_worker(addr: SocketAddr, name: &str, stop: Arc<AtomicBool>) -> JoinHandle<()> {
    let cfg = WorkerConfig {
        coordinator: addr.to_string(),
        name: name.to_string(),
        poll_interval: Duration::from_millis(5),
        retry: RetryPolicy::no_delay(3),
        stop: Some(stop),
        tracer: ceal_trace::Tracer::disabled(),
    };
    std::thread::spawn(move || {
        // A crashed worker (armed chaos point) panics out of this closure;
        // a stopped or drained worker returns normally. Transport errors
        // after the coordinator is gone are part of normal teardown.
        let _ = run_worker(cfg);
    })
}

fn wait_for<F: FnMut() -> bool>(what: &str, mut cond: F) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn coupled_configs(records: &[JournalRecord]) -> Vec<Vec<i64>> {
    records
        .iter()
        .filter_map(|r| match r {
            JournalRecord::Coupled { config, .. } => Some(config.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn worker_and_coordinator_crashes_cause_no_duplicate_charges() {
    chaos::silence_crash_panics();
    chaos::disarm_all();
    let dir = unique_temp_path("ceal-fleet-chaos", "");

    let srv = Server::bind(ServeConfig {
        journal_dir: Some(dir.clone()),
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn();
    let addr = srv.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let w1 = spawn_worker(addr, "w1", Arc::clone(&stop));
    let w2 = spawn_worker(addr, "w2", Arc::clone(&stop));
    let mut c = Client::connect(addr).unwrap();
    wait_for("two live workers", || {
        c.metrics().unwrap().fleet.live_workers == 2
    });

    let (st, _) = c.create_session(params(), 0.0, 0).unwrap();
    let session = st.session;
    assert_eq!(c.advance(session, 4).unwrap().state, "collecting-history");

    // Chaos one: whichever worker executes the batch's third task dies
    // mid-batch. Its lease expires and the tasks re-scatter, so the
    // advance itself succeeds.
    chaos::arm_after("fleet.worker_exec", 3);
    let st = c.advance(session, 4).unwrap();
    assert!(st.measured > 0, "bootstrapping batch must have run");
    chaos::disarm_all();
    wait_for("the crashed worker's lease to expire", || {
        c.metrics().unwrap().fleet.workers_lost == 1
    });

    // Chaos two: the coordinator dies mid-gather-apply — after the second
    // journal record of the next batch is durably synced, before the
    // in-memory session state absorbs it. The client sees one contained
    // internal error; the server survives (the panic is unwound at the
    // dispatch boundary), but the session is now only trustworthy on disk.
    chaos::arm_after("journal.after_sync", 2);
    let err = c.advance(session, 4).unwrap_err();
    chaos::disarm_all();
    assert_eq!(
        err.code(),
        Some("internal"),
        "crash surfaces as one error frame"
    );
    // The panic unwound through the held session lock. Locks ignore
    // poisoning, so the same session still answers and new campaigns still
    // start; the fresh one is closed so the restart below rebuilds only
    // the crashed session.
    assert_eq!(c.status(session).unwrap().session, session);
    let (fresh, _) = c.create_session(params(), 0.0, 0).unwrap();
    c.close_session(fresh.session).unwrap();

    stop.store(true, Ordering::Release);
    let _ = w1.join();
    let _ = w2.join();
    c.shutdown().unwrap();
    srv.join().unwrap();

    // The journal holds each paid-for measurement exactly once — a torn
    // batch, a dead worker, and a raced re-scatter never double-charge.
    let wal = dir.join(format!("session-{session}.wal"));
    let records = Journal::open(&wal).unwrap().1.records;
    let configs = coupled_configs(&records);
    let committed = configs.len() as u64;
    let mut unique = configs.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(
        unique.len(),
        configs.len(),
        "no configuration may be journaled (billed) twice"
    );
    assert!(
        committed > st.measured,
        "the crashed advance committed work"
    );
    assert!(committed < BUDGET, "the crash lost some of the batch");

    // Restart: a fresh coordinator rebuilds the session from its journal
    // and fresh workers finish the campaign, paying exactly the lost
    // budget.
    let srv = Server::bind(ServeConfig {
        journal_dir: Some(dir.clone()),
        worker_lease: Duration::from_millis(200),
        ..ServeConfig::default()
    })
    .unwrap()
    .spawn();
    let stop = Arc::new(AtomicBool::new(false));
    let w3 = spawn_worker(srv.addr(), "w3", Arc::clone(&stop));
    let w4 = spawn_worker(srv.addr(), "w4", Arc::clone(&stop));
    let mut c = Client::connect(srv.addr()).unwrap();
    let m = c.metrics().unwrap();
    assert_eq!(m.sessions_rebuilt, 1);
    assert_eq!(
        m.oracle_measurements, 0,
        "rebuilding must not touch the oracle"
    );
    assert_eq!(c.status(session).unwrap().measured, committed);
    wait_for("two live workers on the restarted server", || {
        c.metrics().unwrap().fleet.live_workers == 2
    });

    let mut done = c.advance(session, 4).unwrap();
    for _ in 0..100 {
        if done.state == "done" {
            break;
        }
        done = c.advance(session, 4).unwrap();
    }
    assert_eq!(done.state, "done");
    assert_eq!(
        done.measured, BUDGET,
        "total spend matches a crash-free run"
    );
    let m = c.metrics().unwrap();
    assert_eq!(
        m.oracle_measurements,
        BUDGET - committed,
        "the resumed run pays only for what the crash lost"
    );
    assert!(
        m.fleet.tasks_completed > 0,
        "the fresh fleet must participate in the resumed campaign"
    );

    stop.store(true, Ordering::Release);
    let _ = w3.join();
    let _ = w4.join();
    c.shutdown().unwrap();
    srv.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
