//! Replays the committed malformed-input corpus over a live socket.
//!
//! Every entry in `crates/fuzz/corpus/` is a minimized input that once
//! provoked (or guards against) a protocol-level failure. The replay
//! asserts the contract the corpus conventions promise:
//!
//! * the server answers (or cleanly closes) every entry without dying —
//!   a liveness probe must still succeed after the full corpus;
//! * reply bytes are **bit-identical** at one shard and at several,
//!   because every entry fails before admission and never reaches a
//!   shard;
//! * every reply frame the corpus provokes is a protocol `error` frame —
//!   an entry that earns a `stats` or `solved` reply has drifted into
//!   dispatchable work and no longer belongs in the corpus;
//! * `Request::decode` never panics on any committed payload;
//! * `gwstats_*` entries — malformed backend `stats` *replies* — are kept
//!   off the request socket entirely and instead replay through the
//!   gateway's health-probe classifier, which must reject each one
//!   without panicking;
//! * replayed against a live gateway over one backend, every entry ends
//!   without a hang, the gateway stays live, and every reply is
//!   byte-identical to serve's: the gateway shares serve's front end and
//!   decoder, and every committed batch-shaped entry fails in decode,
//!   before the gateway would split it into per-module forwards.

use std::collections::BTreeMap;
use std::time::Duration;

use std::net::SocketAddr;

use retypd_fuzz::corpus;
use retypd_fuzz::oracle::SocketOracle;
use retypd_gateway::{BackendSpec, GatewayConfig};
use retypd_serve::{start, Request, Response, ServeConfig};

/// Per-entry socket deadline; a replay exceeding it is a hang.
const DEADLINE: Duration = Duration::from_secs(5);

/// The acceptance floor for the committed corpus size.
const MIN_ENTRIES: usize = 25;

/// One fixed config per shard count: everything that could leak into a
/// reply (queue depth, read timeout) is pinned so the only variable
/// between the two replays is the shard count itself.
fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards,
        workers_per_shard: 1,
        queue_depth: 8,
        cache_capacity: Some(64),
        read_timeout: Some(Duration::from_secs(2)),
        ..ServeConfig::default()
    }
}

/// Frames a payload entry the way a well-behaved client would.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
    bytes.extend_from_slice(payload);
    bytes
}

/// Splits a reply byte stream back into frame payloads, rejecting
/// truncated or dangling bytes.
fn split_frames(mut bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while bytes.len() >= 4 {
        let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert!(
            bytes.len() >= 4 + len,
            "reply stream truncated mid-frame ({} of {len} payload bytes)",
            bytes.len() - 4
        );
        frames.push(bytes[4..4 + len].to_vec());
        bytes = &bytes[4 + len..];
    }
    assert!(bytes.is_empty(), "dangling reply bytes: {bytes:?}");
    frames
}

/// Replays the whole corpus against a fresh server and returns the raw
/// reply bytes per entry. The server must still answer a liveness probe
/// after the last entry.
fn replay_all(shards: usize) -> BTreeMap<String, Vec<u8>> {
    let handle = start(config(shards)).expect("bind replay server");
    let replies = replay(handle.addr(), &format!("{shards} shard(s)"));
    handle.shutdown();
    replies
}

/// Replays the whole corpus against a gateway fronting one backend.
fn replay_gateway() -> BTreeMap<String, Vec<u8>> {
    let backend = start(config(1)).expect("bind replay backend");
    let gateway = retypd_gateway::start(
        GatewayConfig::default(),
        vec![BackendSpec::External {
            addr: backend.addr(),
        }],
    )
    .expect("gateway starts");
    let replies = replay(gateway.addr(), "the gateway");
    gateway.shutdown();
    backend.shutdown();
    replies
}

/// Delivers every request entry to `addr`, then demands a live server.
fn replay(addr: SocketAddr, target: &str) -> BTreeMap<String, Vec<u8>> {
    let mut oracle = SocketOracle::new(addr, DEADLINE);
    let mut replies = BTreeMap::new();
    for entry in corpus::load().expect("load committed corpus") {
        if entry.name.starts_with("gwstats_") {
            continue; // backend replies, not requests — classifier-only.
        }
        let wire_bytes = if entry.raw {
            entry.bytes.clone()
        } else {
            frame(&entry.bytes)
        };
        let context = format!("{} at {target}", entry.name);
        let reply = oracle
            .deliver_raw(&wire_bytes, &context)
            .unwrap_or_else(|f| panic!("corpus replay failed: {}", f.describe()));
        replies.insert(entry.name, reply);
    }
    oracle
        .probe(&format!("post-corpus probe at {target}"))
        .expect("server must outlive the whole corpus");
    replies
}

#[test]
fn corpus_meets_the_committed_size_floor() {
    let entries = corpus::load().expect("load committed corpus");
    assert!(
        entries.len() >= MIN_ENTRIES,
        "corpus holds {} entries, need at least {MIN_ENTRIES}",
        entries.len()
    );
}

#[test]
fn corpus_payloads_decode_without_panics_and_without_dispatchable_work() {
    for entry in corpus::load().expect("load committed corpus") {
        if entry.raw || entry.name.starts_with("gwstats_") {
            continue; // wire bytes / backend replies, not request payloads.
        }
        // Decode must not panic, and must not produce a request the
        // server would dispatch or act on — pre-admission errors only.
        match Request::decode(&entry.bytes) {
            Err(_) => {}
            Ok(Request::Stats) | Ok(Request::Shutdown) | Ok(Request::Metrics { .. }) => {
                panic!("{} decodes to a control request", entry.name)
            }
            // Solve requests may decode; they must then die in job
            // reconstruction, which the replay test proves by demanding
            // an error reply frame.
            Ok(_) => {}
        }
    }
}

#[test]
fn gwstats_corpus_replays_through_the_gateway_classifier() {
    let entries: Vec<_> = corpus::load()
        .expect("load committed corpus")
        .into_iter()
        .filter(|e| e.name.starts_with("gwstats_"))
        .collect();
    assert!(
        entries.len() >= 6,
        "gateway stats-reply corpus holds {} entries, need at least 6",
        entries.len()
    );
    for entry in entries {
        // Each committed reply once confused (or guards against confusing)
        // the gateway's health probe: the classifier must reject it —
        // degrading the backend to unhealthy — and must never panic.
        let verdict = std::panic::catch_unwind(|| {
            retypd_gateway::classify_stats_reply(&entry.bytes)
        })
        .unwrap_or_else(|_| panic!("{}: classifier panicked", entry.name));
        assert!(
            verdict.is_err(),
            "{}: a malformed reply classified healthy",
            entry.name
        );
    }
}

#[test]
fn corpus_replays_bit_identically_across_shard_counts() {
    let one = replay_all(1);
    let three = replay_all(3);
    assert_eq!(
        one.keys().collect::<Vec<_>>(),
        three.keys().collect::<Vec<_>>()
    );
    for (name, reply) in &one {
        assert_eq!(
            reply, &three[name],
            "{name}: reply bytes differ between 1 and 3 shards"
        );
        // Every frame any entry provokes must be a protocol error; a
        // payload entry must provoke exactly one (raw entries may get
        // zero — broken framing — or several, one per embedded attack).
        let frames = split_frames(reply);
        if !name.starts_with("raw_") {
            assert_eq!(frames.len(), 1, "{name}: expected exactly one reply frame");
        }
        for payload in &frames {
            match Response::decode(payload) {
                Ok(Response::Error(_)) => {}
                other => panic!("{name}: reply was not an error frame: {other:?}"),
            }
        }
    }
}

#[test]
fn corpus_replays_through_the_gateway_like_serve() {
    let serve = replay_all(1);
    let gateway = replay_gateway();
    assert_eq!(
        serve.keys().collect::<Vec<_>>(),
        gateway.keys().collect::<Vec<_>>()
    );
    for (name, reply) in &serve {
        assert!(
            reply == &gateway[name],
            "{name}: gateway reply differs from serve's\n  serve:   {:?}\n  gateway: {:?}",
            String::from_utf8_lossy(reply),
            String::from_utf8_lossy(&gateway[name])
        );
    }
}
