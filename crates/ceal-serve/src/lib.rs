//! ceal-serve — the CEAL auto-tuner as a network service.
//!
//! The paper's tuner runs one campaign per CLI process; this crate turns
//! it into a long-lived, concurrent service in the spirit of Collective
//! Knowledge (shared, reusable autotuning results) and surrogate-serving
//! systems like HPAC-ML. Four layers:
//!
//! * [`protocol`] + [`frame`] + [`client`] — request/response enums on a
//!   length-prefixed JSON frame protocol, plus a blocking [`Client`].
//! * [`session`] — incremental tuning campaigns as state machines
//!   (`Created → CollectingHistory → Bootstrapping → Refining → Done`)
//!   in a registry with idle eviction.
//! * [`cache`] — a tiered store of completed campaigns keyed by
//!   (workflow, platform fingerprint, objective, pool seed, budget,
//!   algorithm): an in-memory LRU front over per-workflow checksummed
//!   shard files, with portable export/import bundles and
//!   nearest-platform transfer seeding. Exact warm answers spend zero
//!   oracle measurements; near-miss platforms start from a sibling's
//!   samples as a prior.
//! * [`server`] + [`metrics`] — configuration, admission control and
//!   request dispatch on a `ceal-par` worker pool, batched surrogate
//!   prediction over `parallel_map`, per-endpoint counters and latency
//!   histograms, and graceful shutdown that drains in-flight work.
//! * [`reactor`] — the one serve core (Linux): a readiness-driven epoll
//!   event loop owning all connections with per-connection framed state
//!   machines and a timer wheel, so tens of thousands of idle sessions
//!   cost one fd each instead of a blocked worker thread. On other
//!   targets [`Server::run`] returns `Unsupported`.
//!
//! Client, server and fleet workers ship together, so the protocol has a
//! single version ([`PROTOCOL_VERSION`]), checked once at connect.
//!
//! ```no_run
//! use ceal_serve::{Client, Server, ServeConfig, TuneParams};
//!
//! let handle = Server::bind(ServeConfig::default()).unwrap().spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let outcome = client
//!     .tune(TuneParams {
//!         workflow: "LV".into(),
//!         objective: "comp".into(),
//!         budget: 25,
//!         pool: 500,
//!         seed: 0,
//!         algo: "ceal".into(),
//!     })
//!     .unwrap();
//! println!("recommended: {:?}", outcome.best);
//! client.shutdown().unwrap();
//! handle.join().unwrap();
//! ```

pub mod breaker;
pub mod cache;
pub mod client;
pub mod metrics;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod server;
pub mod session;
pub mod wire;
pub mod worker;

pub use wire::frame;
pub use wire::protocol;

pub use breaker::{Breakers, CircuitBreaker};
pub use cache::{
    bundle_from_json, bundle_to_json, feature_distance, platform_features, platform_fingerprint,
    AutotuneCache, CacheEntry, CacheKey, CacheStats, TransferHit, DEFAULT_LRU_CAPACITY,
    DEFAULT_TRANSFER_THRESHOLD,
};
pub use client::{Client, ClientError, TuneOutcome};
pub use frame::{
    read_frame, write_frame, write_frame_limited, FrameError, MAX_FRAME_LEN, MAX_MID_FRAME_STALL,
};
pub use metrics::{CountingOracle, Endpoint, OverloadStats, ServerMetrics};
pub use protocol::{
    BreakerStatus, EndpointStats, HealthReport, MetricsReport, Request, Response, SessionStatus,
    TuneParams, PROTOCOL_VERSION,
};
#[cfg(target_os = "linux")]
pub use reactor::sys::{raise_nofile_limit, set_recv_buffer_fd, set_send_buffer_fd};
pub use server::{ServeConfig, Server, ServerHandle};
pub use session::{ServeError, Session, SessionManager};
pub use worker::{run_worker, WorkerConfig, WorkerSummary};

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// Every lock in the crate ignores poisoning. `dispatch` contains handler
// panics with `catch_unwind`; a poisoned session, cache or breaker lock
// would turn that one contained panic into an `internal` error on every
// later request that touches the same state.

/// Locks `m`, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, ignoring poison.
pub(crate) fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, ignoring poison.
pub(crate) fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
