//! Chaos test of the session layer: kill an advancing session at a crash
//! point inside its journal's append path, rebuild the session registry
//! from disk the way a restarted server does, and assert the
//! crash-recovery invariant — the recovered journal is a prefix of the
//! crash-free record sequence, no committed measurement is re-billed, and
//! the resumed campaign spends exactly its remaining budget to finish.
//!
//! (The *recommendation* may differ from an uninterrupted run: refinement
//! picks measurement batches per `advance` call, and a mid-batch crash
//! changes the refit boundaries. The journal guarantees the spend, not the
//! chunking.)
//!
//! Requires the `chaos` feature:
//! `cargo test -p ceal-serve --features chaos --test chaos_session`.
#![cfg(feature = "chaos")]

use ceal_core::{Journal, JournalRecord};
use ceal_fleet::FleetReport;
use ceal_serve::{
    AutotuneCache, CacheStats, ServerMetrics, SessionManager, SessionStatus, TuneParams,
};
use ceal_testutil::{chaos, unique_temp_path};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const BUDGET: u64 = 10;

fn params() -> TuneParams {
    TuneParams {
        workflow: "LV".into(),
        objective: "exec".into(),
        budget: BUDGET,
        pool: 120,
        seed: 97,
        algo: "ceal".into(),
    }
}

fn drive_to_done(
    mgr: &SessionManager,
    id: u64,
    cache: &AutotuneCache,
    metrics: &ServerMetrics,
) -> SessionStatus {
    for _ in 0..100 {
        let handle = mgr.get(id).expect("session exists");
        let status = handle
            .lock()
            .unwrap()
            .advance(4, cache, metrics)
            .expect("advance");
        if status.state == "done" {
            return status;
        }
    }
    panic!("session {id} never reached done");
}

fn coupled_count(records: &[JournalRecord]) -> u64 {
    records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Coupled { .. }))
        .count() as u64
}

#[test]
fn session_killed_mid_journal_write_rebuilds_and_spends_only_the_lost_budget() {
    chaos::silence_crash_panics();

    // Reference trajectory: an identical journaled session advanced with
    // the same chunking that never crashes — stopped short of done so its
    // journal survives for comparison.
    let ref_dir = unique_temp_path("ceal-serve-chaos-ref", "");
    let ref_records = {
        let cache = AutotuneCache::in_memory();
        let metrics = ServerMetrics::new();
        let mgr = SessionManager::new(Duration::from_secs(3600))
            .with_journal_dir(&ref_dir)
            .expect("journal dir");
        let (st, _) = mgr
            .create(params(), 0.0, 0, &cache, &metrics)
            .expect("create");
        let handle = mgr.get(st.session).expect("session");
        for _ in 0..3 {
            let status = handle
                .lock()
                .unwrap()
                .advance(4, &cache, &metrics)
                .expect("advance");
            assert_ne!(status.state, "done", "reference must stop short of done");
        }
        drop(handle);
        drop(mgr);
        let wal = ref_dir.join(format!("session-{}.wal", st.session));
        Journal::open(&wal)
            .expect("reopen reference journal")
            .1
            .records
    };
    std::fs::remove_dir_all(&ref_dir).ok();

    // The victim: same campaign, killed in the middle of committing its
    // second measurement record of the third advance.
    let dir = unique_temp_path("ceal-serve-chaos", "");
    let cache = AutotuneCache::in_memory();
    let metrics = ServerMetrics::new();
    let mgr = SessionManager::new(Duration::from_secs(3600))
        .with_journal_dir(&dir)
        .expect("journal dir");
    let (st, _) = mgr
        .create(params(), 0.0, 0, &cache, &metrics)
        .expect("create");
    let id = st.session;
    let handle = mgr.get(id).expect("session");
    handle
        .lock()
        .unwrap()
        .advance(4, &cache, &metrics)
        .expect("history");
    let mid = handle
        .lock()
        .unwrap()
        .advance(4, &cache, &metrics)
        .expect("bootstrap");
    assert_ne!(mid.state, "done");
    assert!(mid.measured > 0);

    chaos::arm_after("journal.mid_write", 2);
    let crashed = catch_unwind(AssertUnwindSafe(|| {
        handle.lock().unwrap().advance(4, &cache, &metrics)
    }));
    chaos::disarm_all();
    let payload = crashed.expect_err("the armed crash point must fire");
    assert!(chaos::is_crash(payload.as_ref()).is_some());
    drop(handle);
    drop(mgr);

    // The torn journal recovers to a strict prefix of the crash-free
    // record sequence.
    let wal = dir.join(format!("session-{id}.wal"));
    let recovered = Journal::open(&wal)
        .expect("reopen victim journal")
        .1
        .records;
    assert!(
        recovered.len() < ref_records.len(),
        "the mid-write crash must lose the in-flight record"
    );
    assert_eq!(
        recovered,
        ref_records[..recovered.len()],
        "recovery must be a prefix of the crash-free sequence"
    );
    let committed = coupled_count(&recovered);
    assert!(
        committed > mid.measured,
        "the crashed advance committed work before dying \
         (committed {committed}, pre-advance {})",
        mid.measured
    );

    // "Restart": a fresh registry rebuilt from the journals resumes the
    // session with every committed measurement intact...
    let metrics2 = ServerMetrics::new();
    let mgr2 = SessionManager::new(Duration::from_secs(3600))
        .with_journal_dir(&dir)
        .expect("journal dir");
    assert_eq!(mgr2.rebuild_from_disk(&metrics2), 1);
    assert_eq!(
        metrics2
            .report(
                0,
                &CacheStats::default(),
                FleetReport::default(),
                ceal_serve::OverloadStats::default(),
            )
            .oracle_measurements,
        0,
        "rebuilding must not touch the oracle"
    );
    let rebuilt = mgr2
        .get(id)
        .expect("rebuilt session")
        .lock()
        .unwrap()
        .status();
    assert_eq!(rebuilt.measured, committed);
    assert_eq!(rebuilt.budget_left, BUDGET - committed);
    assert_eq!(rebuilt.history_samples, mid.history_samples);

    // ...and finishes by paying for exactly the budget the crash lost:
    // replayed measurements are never re-billed.
    let done = drive_to_done(&mgr2, id, &cache, &metrics2);
    assert_eq!(done.measured, BUDGET, "total runs match a crash-free run");
    assert_eq!(done.budget_left, 0);
    assert!(done.best.is_some() && done.best_value.is_some());
    assert_eq!(
        metrics2
            .report(
                0,
                &CacheStats::default(),
                FleetReport::default(),
                ceal_serve::OverloadStats::default(),
            )
            .oracle_measurements,
        BUDGET - committed,
        "the resumed run pays only for what the crash lost"
    );
    std::fs::remove_dir_all(&dir).ok();
}
