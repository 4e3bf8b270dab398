//! The request/reply primitive, tested once for every AM in the table.
//!
//! `Endpoint::call` / `Endpoint::serve` carry NXTVAL, steals and job
//! control alike, so their safety properties are asserted here per AM id
//! — sequenced and idempotent — rather than per typed wrapper: under a
//! lost request, a lost reply, a duplicated request, a duplicated (late)
//! reply and a peer declared dead mid-call, the handler of a sequenced
//! AM runs exactly once, a duplicate re-receives the byte-identical
//! recorded reply, the client's completion fires exactly once, and a
//! dead peer yields the AM's declared fallback with `aborted_ops` counted.
//!
//! Faults are scripted windows (or probability-1 dice) on a
//! `FaultTransport`, so every scenario replays exactly; each failure
//! message names the AM, the scenario and the plan seed.

mod common;

use comm::fault::{FaultEvent, FaultPlan, FaultTransport};
use comm::{Am, CommConfig, Endpoint, Msg, SocketTransport, Transport};
use common::{duplicate_all, lose_first_from, NoStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const SEED: u64 = 0xCA11_0000;
const ARGS: [u64; 2] = [11, 22];

/// Retry in milliseconds; the detector (scenario e) declares death after
/// 120 ms of silence.
fn cfg() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(10),
        retry_backoff_max: Duration::from_millis(40),
        suspect_after: Some(Duration::from_millis(30)),
        dead_after: Duration::from_millis(120),
        ..CommConfig::default()
    }
}

/// Install on `server` a handler for `am` whose reply differs on every
/// execution — `[execution ordinal, caller, args...]` — so a recorded
/// reply is distinguishable from a re-run. Returns the execution count.
fn serve_counting(server: &Endpoint, am: Am) -> Arc<AtomicU64> {
    let runs = Arc::new(AtomicU64::new(0));
    let count = runs.clone();
    server.serve(
        am,
        Some(Arc::new(move |from, words| {
            let mut reply = vec![count.fetch_add(1, Ordering::SeqCst) + 1, from as u64];
            reply.extend_from_slice(words);
            reply
        })),
    );
    runs
}

struct Outcome {
    /// What the client's completion received.
    reply: Vec<u64>,
    /// How often the server's handler ran.
    runs: u64,
    client: Arc<Endpoint>,
    server: Arc<Endpoint>,
}

/// One call of `am` from rank 0 to rank 1 over a socket pair whose
/// inbound sides carry the given plans. After the completion fires, a
/// second (idempotent) call flushes the link, so every duplicate of the
/// first exchange has been processed before the outcome is read.
fn one_call(am: Am, client_plan: FaultPlan, server_plan: FaultPlan, what: &str) -> Outcome {
    let mut ts = SocketTransport::mesh(2).unwrap();
    let t1 = FaultTransport::new(Box::new(ts.pop().unwrap()), server_plan);
    let t0 = FaultTransport::new(Box::new(ts.pop().unwrap()), client_plan);
    let server = Endpoint::spawn(Box::new(t1), Arc::new(NoStore), cfg());
    let client = Endpoint::spawn(Box::new(t0), Arc::new(NoStore), cfg());
    let runs = serve_counting(&server, am);
    let (tx, rx) = mpsc::channel();
    client.call(
        1,
        am,
        ARGS.to_vec(),
        Box::new(move |w| tx.send(w.to_vec()).unwrap()),
    );
    let reply = rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{am:?} {what}: completion never fired"));
    if client.dead_mask() == 0 {
        let flush = if am == Am::Status {
            Am::NxtVal
        } else {
            Am::Status
        };
        client.call_blocking(1, flush, vec![0]);
    }
    assert!(
        rx.try_recv().is_err(),
        "{am:?} {what}: completion fired more than once"
    );
    Outcome {
        reply,
        runs: runs.load(Ordering::SeqCst),
        client,
        server,
    }
}

/// The reply of execution `n` of the counting handler, called by rank 0.
fn reply_of(n: u64) -> Vec<u64> {
    vec![n, 0, ARGS[0], ARGS[1]]
}

#[test]
fn lost_request_is_retried_and_runs_once() {
    for (k, &am) in Am::ALL.iter().enumerate() {
        let seed = SEED + k as u64;
        let what = format!("lost request, seed {seed:#x}");
        let o = one_call(am, FaultPlan::clean(seed), lose_first_from(0, seed), &what);
        assert_eq!(o.reply, reply_of(1), "{am:?} {what}");
        // (A slow scheduler may let a second retry out before the first
        // reply lands; only an idempotent AM may then run again.)
        assert!(
            o.runs == 1 || !am.spec().sequenced,
            "{am:?} {what}: {} handler executions",
            o.runs
        );
        assert!(o.client.stats().retries >= 1, "{am:?} {what}: no retry");
    }
}

#[test]
fn lost_reply_is_recovered_from_the_record() {
    for (k, &am) in Am::ALL.iter().enumerate() {
        let seed = SEED + 0x10 + k as u64;
        let what = format!("lost reply, seed {seed:#x}");
        let o = one_call(am, lose_first_from(1, seed), FaultPlan::clean(seed), &what);
        assert!(o.client.stats().retries >= 1, "{am:?} {what}: no retry");
        if am.spec().sequenced {
            // The retransmission was answered from the record, not re-run.
            assert_eq!(o.reply, reply_of(1), "{am:?} {what}");
            assert_eq!(o.runs, 1, "{am:?} {what}: handler executions");
            assert!(o.server.stats().dup_requests >= 1, "{am:?} {what}");
        } else {
            // Idempotent: simply asked again, and answered afresh.
            assert!((2..=o.runs).contains(&o.reply[0]), "{am:?} {what}");
            assert_eq!(o.server.stats().dup_requests, 0, "{am:?} {what}");
        }
    }
}

#[test]
fn duplicated_request_runs_once_and_completes_once() {
    for (k, &am) in Am::ALL.iter().enumerate() {
        let seed = SEED + 0x20 + k as u64;
        let what = format!("duplicated request, seed {seed:#x}");
        let o = one_call(am, FaultPlan::clean(seed), duplicate_all(seed), &what);
        assert_eq!(o.reply, reply_of(1), "{am:?} {what}");
        assert_eq!(
            o.runs,
            if am.spec().sequenced { 1 } else { 2 },
            "{am:?} {what}: handler executions"
        );
        // Both copies were answered; the second answer found no request.
        assert!(o.client.stats().dup_replies >= 1, "{am:?} {what}");
    }
}

#[test]
fn duplicated_reply_completes_once() {
    for (k, &am) in Am::ALL.iter().enumerate() {
        let seed = SEED + 0x30 + k as u64;
        let what = format!("duplicated reply, seed {seed:#x}");
        let o = one_call(am, duplicate_all(seed), FaultPlan::clean(seed), &what);
        assert_eq!(o.reply, reply_of(1), "{am:?} {what}");
        assert_eq!(o.runs, 1, "{am:?} {what}: handler executions");
        assert!(o.client.stats().dup_replies >= 1, "{am:?} {what}");
    }
}

/// The recorded reply, observed on the wire: a raw transport plays the
/// client, sends the same `Call` frame twice and compares the two
/// `Return` frames byte for byte.
#[test]
fn duplicate_re_receives_the_byte_identical_recorded_reply() {
    for &am in Am::ALL {
        let mut ts = SocketTransport::mesh(2).unwrap();
        // No detector here: the raw rank would never answer its pings.
        let quiet = CommConfig {
            suspect_after: None,
            ..cfg()
        };
        let server = Endpoint::spawn(Box::new(ts.pop().unwrap()), Arc::new(NoStore), quiet);
        let raw = ts.pop().unwrap();
        let runs = serve_counting(&server, am);
        let call = Msg::Call {
            token: 77,
            seq: 0,
            am,
            words: ARGS.to_vec(),
        }
        .encode();
        let mut returns = Vec::new();
        for _ in 0..2 {
            raw.send(1, call.clone());
            let (_, frame) = raw
                .recv_timeout(Duration::from_secs(30))
                .unwrap_or_else(|| panic!("{am:?}: no reply"));
            returns.push(frame);
        }
        let first = Msg::Return {
            token: 77,
            words: reply_of(1),
        };
        assert_eq!(returns[0], first.encode(), "{am:?}: first reply");
        if am.spec().sequenced {
            assert_eq!(returns[1], returns[0], "{am:?}: recorded reply differs");
            assert_eq!(runs.load(Ordering::SeqCst), 1, "{am:?}: re-executed");
            assert_eq!(server.stats().dup_requests, 1, "{am:?}");
        } else {
            assert_eq!(runs.load(Ordering::SeqCst), 2, "{am:?}: idempotent re-run");
        }
    }
}

#[test]
fn dead_peer_delivers_the_declared_fallback() {
    for (k, &am) in Am::ALL.iter().enumerate() {
        let seed = SEED + 0x40 + k as u64;
        let what = format!("peer dead mid-call, seed {seed:#x}");
        // The server is dark from its first frame on: the call is posted,
        // retried into the void, and aborted by the client's detector.
        let dead = FaultPlan {
            events: vec![FaultEvent::Kill { at: 0 }],
            ..FaultPlan::clean(seed)
        };
        let o = one_call(am, FaultPlan::clean(seed), dead, &what);
        assert_eq!(o.reply, am.spec().fallback, "{am:?} {what}");
        assert_eq!(o.runs, 0, "{am:?} {what}: a dead peer ran the handler");
        let s = o.client.stats();
        assert_eq!(o.client.dead_mask(), 0b10, "{am:?} {what}");
        assert!(
            s.confirmed_deaths >= 1 && s.aborted_ops >= 1,
            "{am:?} {what}: {s:?}"
        );
    }
}

/// The fallbacks the layers above rely on, spelled out once.
#[test]
fn declared_fallbacks_are_the_documented_sentinels() {
    assert_eq!(Am::NxtVal.spec().fallback, [i64::MAX as u64]);
    assert!(Am::Steal.spec().fallback.is_empty(), "a dry grant");
    assert_eq!(Am::Submit.spec().fallback, [comm::JOB_REJECTED]);
    assert_eq!(Am::Status.spec().fallback, [0, 0], "state 0: unknown");
    assert!(Am::Reset.spec().fallback.is_empty());
    assert!(Am::JobDone.spec().fallback.is_empty());
    for (id, am) in Am::ALL.iter().enumerate() {
        assert_eq!(*am as usize, id, "wire id is table position");
        assert_eq!(Am::from_id(id as u8), Some(*am));
    }
    assert_eq!(Am::from_id(Am::ALL.len() as u8), None);
}
