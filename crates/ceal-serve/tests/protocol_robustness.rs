//! Hostile-input robustness of the framed protocol: truncated frames,
//! oversized length prefixes, and outright garbage must never panic or
//! hang a worker. The server answers with one `bad-request` error frame
//! (when it still can) and closes; it keeps serving everyone else.
//!
//! The corpus is shared with the reactor torture test.

mod hostile;

use ceal_serve::{Client, ServeConfig, Server};
use hostile::{corpus, poke};

#[test]
fn malformed_frames_never_hang_or_panic_the_server() {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    };
    let handle = Server::bind(config).expect("bind loopback").spawn();
    let addr = handle.addr();

    for case in corpus() {
        let got = poke(addr, &case.bytes, case.half_close);
        if let Some(expect) = &case.expect {
            assert_eq!(got, *expect, "case {}", case.name);
        }
        // Whatever one hostile peer sent, the next honest client is served.
        let mut probe = Client::connect(addr).unwrap_or_else(|e| {
            panic!("server unreachable after case {}: {e}", case.name);
        });
        probe.ping().unwrap_or_else(|e| {
            panic!("server cannot answer after case {}: {e}", case.name);
        });
    }

    let mut client = Client::connect(addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("workers all exit cleanly");
}
