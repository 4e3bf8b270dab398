//! The gang collective — `Endpoint::allgather_gang`, of which a barrier
//! is the empty-payload case — under scripted faults.
//!
//! One enter / release / ack state machine carries both, so the
//! properties are asserted once, on the payload: under a lost enter, a
//! lost release, a duplicated enter, a duplicated release, a late
//! re-enter after the release, two disjoint gangs gathering at once and
//! a member declared dead mid-collective, every member receives every
//! member's words in member order exactly as contributed — or, with a
//! dead member, every survivor is told the epoch is poisoned. Frames
//! from outside the gang never count toward it.
//!
//! Faults are scripted windows (or probability-1 dice) on a
//! `FaultTransport`, so every scenario replays exactly; each failure
//! message names the scenario and the plan seed.

mod common;

use comm::fault::{FaultEvent, FaultPlan, FaultTransport};
use comm::{CommConfig, Endpoint, Msg, SocketTransport, Transport};
use common::{duplicate_all, lose_first_from, NoStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 0xA116_0000;

/// Retry in milliseconds, no failure detector.
fn quiet() -> CommConfig {
    CommConfig {
        retry_timeout: Duration::from_millis(10),
        retry_backoff_max: Duration::from_millis(40),
        ..CommConfig::default()
    }
}

/// As [`quiet`], declaring death after 120 ms of silence.
fn detecting() -> CommConfig {
    CommConfig {
        suspect_after: Some(Duration::from_millis(30)),
        dead_after: Duration::from_millis(120),
        ..quiet()
    }
}

/// One endpoint per plan, rank `r`'s inbound side carrying `plans[r]`.
fn mesh(plans: Vec<FaultPlan>, cfg: CommConfig) -> Vec<Arc<Endpoint>> {
    let ranks = SocketTransport::mesh(plans.len())
        .unwrap()
        .into_iter()
        .zip(plans);
    ranks
        .map(|(t, plan)| {
            let t = FaultTransport::new(Box::new(t), plan);
            Endpoint::spawn(Box::new(t), Arc::new(NoStore), cfg.clone())
        })
        .collect()
}

/// What rank `r` contributes in round `round`: distinct per rank and
/// round, and of a different length per rank.
fn words_of(r: usize, round: u64) -> Vec<u64> {
    (0..=r as u64)
        .map(|k| 1000 * round + 10 * r as u64 + k)
        .collect()
}

/// Every member of `gang` gathers `words_of(rank, round)` at once;
/// results by member, ascending.
fn gather(eps: &[Arc<Endpoint>], gang: u64, round: u64) -> Vec<Option<Vec<Vec<u64>>>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = comm::mask_members(gang)
            .map(|r| s.spawn(move || eps[r].allgather_gang(gang, &words_of(r, round))))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The set every member of `gang` must receive in `round`.
fn full_set(gang: u64, round: u64) -> Option<Vec<Vec<u64>>> {
    Some(
        comm::mask_members(gang)
            .map(|r| words_of(r, round))
            .collect(),
    )
}

/// One round over the full 3-rank mesh under `plans`; asserts every
/// member got the full set and returns the endpoints for counter checks.
fn three_ranks(plans: [FaultPlan; 3], what: &str) -> Vec<Arc<Endpoint>> {
    let eps = mesh(plans.to_vec(), quiet());
    for (r, got) in gather(&eps, 0b111, 1).into_iter().enumerate() {
        assert_eq!(got, full_set(0b111, 1), "{what}: rank {r}");
    }
    // A second round proves the epoch chain survived the recovery.
    for (r, got) in gather(&eps, 0b111, 2).into_iter().enumerate() {
        assert_eq!(got, full_set(0b111, 2), "{what}: rank {r}, next epoch");
    }
    eps
}

#[test]
fn lost_enter_is_retried_with_its_words() {
    let seed = SEED + 1;
    let what = format!("lost enter, seed {seed:#x}");
    let clean = FaultPlan::clean(seed);
    // The leader never sees rank 1's first frame: its enter.
    let eps = three_ranks([lose_first_from(1, seed), clean.clone(), clean], &what);
    assert!(eps[1].stats().retries >= 1, "{what}: no retry");
}

#[test]
fn lost_release_is_recovered_with_the_recorded_words() {
    let seed = SEED + 2;
    let what = format!("lost release, seed {seed:#x}");
    let clean = FaultPlan::clean(seed);
    // Rank 1 never sees the leader's first frame: its release. Either
    // half of the recovery may win — the leader's re-release to the
    // unconfirmed member, or rank 1's re-enter drawing the record.
    let eps = three_ranks([clean.clone(), lose_first_from(0, seed), clean], &what);
    let (leader, member) = (eps[0].stats(), eps[1].stats());
    assert!(leader.retries + member.retries >= 1, "{what}: no retry");
}

#[test]
fn duplicated_enters_count_once_and_keep_their_words() {
    let seed = SEED + 3;
    let what = format!("duplicated enter, seed {seed:#x}");
    let clean = FaultPlan::clean(seed);
    let eps = three_ranks([duplicate_all(seed), clean.clone(), clean], &what);
    assert!(
        eps[0].stats().dup_requests >= 1,
        "{what}: {:?}",
        eps[0].stats()
    );
}

#[test]
fn duplicated_release_delivers_once() {
    let seed = SEED + 4;
    let what = format!("duplicated release, seed {seed:#x}");
    let clean = FaultPlan::clean(seed);
    three_ranks(
        [clean.clone(), duplicate_all(seed), duplicate_all(seed)],
        &what,
    );
}

/// A raw transport plays member 1 of a 2-rank gang and watches the wire:
/// re-sending its enter after the release draws the same release again,
/// byte for byte — the recorded words, not an empty set.
#[test]
fn late_re_enter_re_receives_the_recorded_release() {
    let mut ts = SocketTransport::mesh(2).unwrap();
    let raw = ts.pop().unwrap();
    // Production timers: nothing but the late enter may trigger a resend.
    let leader = Endpoint::spawn(
        Box::new(ts.pop().unwrap()),
        Arc::new(NoStore),
        CommConfig::default(),
    );
    let recv = || {
        raw.recv_timeout(Duration::from_secs(30))
            .expect("the leader answers an enter")
            .1
    };
    let enter = Msg::BarrierEnter {
        epoch: 1,
        from: 1,
        gang: 0b11,
        words: vec![9],
    }
    .encode();
    raw.send(0, enter.clone());
    let got = leader.allgather_gang(0b11, &[7, 8]);
    assert_eq!(got, Some(vec![vec![7, 8], vec![9]]));
    let release = Msg::BarrierRelease {
        epoch: 1,
        gang: 0b11,
        words: vec![vec![7, 8], vec![9]],
    }
    .encode();
    assert_eq!(
        recv(),
        release,
        "the release carries the set in member order"
    );
    raw.send(0, enter);
    assert_eq!(
        recv(),
        release,
        "a late re-enter draws the recorded release"
    );
    assert_eq!(leader.stats().dup_requests, 1);
    // Confirm, so the leader's teardown does not wait on us.
    let ack = Msg::BarrierAck {
        epoch: 1,
        from: 1,
        gang: 0b11,
    };
    raw.send(0, ack.encode());
    leader.shutdown();
}

#[test]
fn disjoint_gangs_gather_concurrently_under_loss() {
    const ROUNDS: u64 = 20;
    let seed = SEED + 6;
    let what = format!("two gangs, 20% drop, seed {seed:#x}");
    let lossy = |r: u64| FaultPlan {
        drop_p: 0.2,
        ..FaultPlan::clean(seed + r)
    };
    let eps = mesh((0..4).map(lossy).collect(), quiet());
    std::thread::scope(|s| {
        for gang in [0b0011u64, 0b1100] {
            let eps = &eps;
            let what = &what;
            s.spawn(move || {
                for round in 1..=ROUNDS {
                    for (i, got) in gather(eps, gang, round).into_iter().enumerate() {
                        let want = full_set(gang, round);
                        assert_eq!(got, want, "{what}: gang {gang:#b} member {i} round {round}");
                    }
                }
            });
        }
    });
    let retries: u64 = eps.iter().map(|ep| ep.stats().retries).sum();
    assert!(retries > 0, "{what}: nothing was lost — vacuous");
}

#[test]
fn a_dead_member_poisons_the_epoch_for_every_survivor() {
    let seed = SEED + 7;
    let what = format!("member dead mid-collective, seed {seed:#x}");
    // Rank 2 is dark from its first frame on: it enters into the void.
    let dead = FaultPlan {
        events: vec![FaultEvent::Kill { at: 0 }],
        ..FaultPlan::clean(seed)
    };
    let clean = FaultPlan::clean(seed);
    let eps = mesh(vec![clean.clone(), clean, dead], detecting());
    let got = gather(&eps, 0b111, 1);
    assert_eq!(got, [None, None, None], "{what}");
    for (r, ep) in eps.iter().enumerate().take(2) {
        let s = ep.stats();
        assert_eq!(ep.dead_mask(), 0b100, "{what}: survivor {r}");
        assert_eq!(
            s.aborted_ops, 1,
            "{what}: survivor {r}: once per gang: {s:?}"
        );
    }
    // The disjoint pair is not poisoned by a corpse outside it.
    assert_eq!(
        gather(&eps, 0b011, 1),
        [full_set(0b011, 1), full_set(0b011, 1)]
    );
}

/// Frames naming a gang they have no business in are dropped and
/// counted; they neither release the real members early nor panic the
/// progress thread. Rank 2 is a raw transport outside gang {0, 1}.
#[test]
fn frames_from_outside_the_gang_never_count() {
    let mut ts = SocketTransport::mesh(3).unwrap();
    let raw = ts.pop().unwrap();
    let eps: Vec<_> = ts
        .into_iter()
        .map(|t| Endpoint::spawn(Box::new(t), Arc::new(NoStore), quiet()))
        .collect();
    let bogus = [
        // A non-member's enter: would make the leader's count 2 of 2.
        Msg::BarrierEnter {
            epoch: 1,
            from: 2,
            gang: 0b011,
            words: vec![666],
        },
        // A rank no mask can name, the empty gang, a gang rank 0 does not lead.
        Msg::BarrierEnter {
            epoch: 1,
            from: 64,
            gang: 0b011,
            words: vec![],
        },
        Msg::BarrierEnter {
            epoch: 1,
            from: 2,
            gang: 0,
            words: vec![],
        },
        Msg::BarrierEnter {
            epoch: 1,
            from: 2,
            gang: 0b110,
            words: vec![],
        },
        Msg::BarrierAck {
            epoch: 1,
            from: 2,
            gang: 0b011,
        },
    ];
    for m in &bogus {
        raw.send(0, m.encode());
    }
    // A release for a gang rank 1 is no member of.
    let stray = Msg::BarrierRelease {
        epoch: 1,
        gang: 0b101,
        words: vec![vec![], vec![]],
    };
    raw.send(1, stray.encode());

    std::thread::scope(|s| {
        let leader = s.spawn(|| eps[0].allgather_gang(0b011, &[10]));
        // The leader's inbox is FIFO: once its own enter is counted,
        // every bogus frame before it has been handled.
        let deadline = Instant::now() + Duration::from_secs(30);
        let counted = || {
            let rows = eps[0].barrier_state();
            rows.iter().any(|r| r.0 == 0b011 && r.5 == [(1, 1)])
        };
        while !counted() {
            assert!(
                Instant::now() < deadline,
                "the leader never counted its own enter"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let row = eps[0]
            .barrier_state()
            .into_iter()
            .find(|r| r.0 == 0b011)
            .unwrap();
        assert_eq!((row.2, row.3), (0, 0), "released one real member early");
        assert_eq!(eps[0].stats().dup_requests, bogus.len() as u64);
        assert!(!leader.is_finished());
        // The real member completes the gang.
        let member = eps[1].allgather_gang(0b011, &[11]);
        let want = Some(vec![vec![10], vec![11]]);
        assert_eq!((leader.join().unwrap(), member), (want.clone(), want));
    });
    assert_eq!(
        eps[1].stats().dup_replies,
        1,
        "the stray release was dropped"
    );
}

#[test]
#[should_panic(expected = "not a member")]
fn a_non_member_caller_is_refused_in_every_build() {
    let t = SocketTransport::mesh(2).unwrap().remove(1);
    let ep = Endpoint::spawn(Box::new(t), Arc::new(NoStore), quiet());
    ep.barrier_gang(0b01);
}
