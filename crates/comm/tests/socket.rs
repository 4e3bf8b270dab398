//! Over real sockets: in-process meshes form side by side without
//! colliding, and two ranks whose progress threads serve each other
//! replies larger than both socket buffers at once must both finish.

use comm::{CommConfig, Endpoint, ShardStore, SocketTransport, Transport};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

/// 64 MiB of f64: more than the kernel's largest receive buffer plus its
/// largest send buffer wherever the `net.ipv4.tcp_rmem` maximum is at
/// most 32 MiB and the `tcp_wmem` maximum at most 4 MiB, so neither
/// reply fits in flight.
const WORDS: usize = 8 << 20;

/// One read-only array whose word `i` is `i + rank / 2`.
struct Block(Vec<f64>);

impl ShardStore for Block {
    fn read(&self, _: u32, offset: usize, len: usize) -> Vec<f64> {
        self.0[offset..offset + len].to_vec()
    }
    fn write(&self, _: u32, _: usize, _: &[f64]) {
        unreachable!("the test only reads")
    }
    fn accumulate(&self, _: u32, _: usize, _: &[f64], _: f64) {
        unreachable!("the test only reads")
    }
}

#[test]
fn simultaneous_large_replies_do_not_deadlock() {
    // Far above the transfer time: a retry would serve a second copy.
    let cfg = CommConfig {
        retry_timeout: Duration::from_secs(120),
        ..CommConfig::default()
    };
    let (posted, both_posted) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let (tx, rx) = mpsc::channel();
    for (rank, sock) in SocketTransport::mesh(2).unwrap().into_iter().enumerate() {
        let (posted, both_posted, tx) = (posted.clone(), both_posted.clone(), tx.clone());
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let words = (0..WORDS).map(|i| i as f64 + rank as f64 / 2.0).collect();
            let ep = Endpoint::spawn(Box::new(sock), Arc::new(Block(words)), cfg);
            // Both endpoints are up before either asks, so both progress
            // threads serve their replies at the same time.
            posted.wait();
            let peer = 1 - rank;
            let got = ep.get_blocking(peer, 0, 0, WORDS);
            let ok = got.len() == WORDS
                && got
                    .iter()
                    .enumerate()
                    .all(|(i, &x)| x == i as f64 + peer as f64 / 2.0);
            // Neither tears down while the other may still be reading.
            both_posted.wait();
            drop(ep);
            tx.send((rank, ok)).expect("test thread listens");
        });
    }
    for _ in 0..2 {
        let (rank, ok) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("progress threads deadlocked");
        assert!(ok, "rank {rank} read a corrupt block");
    }
}

/// Eight threads each build a 4-rank mesh at once: every ordered pair of
/// ranks, and every rank to itself, exchanges a frame on its own mesh. A
/// port or descriptor shared between meshes would cross their frames.
#[test]
fn concurrent_meshes_stay_apart() {
    const MESHES: u8 = 8;
    const N: usize = 4;
    let threads: Vec<_> = (0..MESHES)
        .map(|m| {
            std::thread::spawn(move || {
                let ts = SocketTransport::mesh(N).expect("mesh forms");
                for (from, t) in ts.iter().enumerate() {
                    assert_eq!((t.rank(), t.nranks()), (from, N));
                    for to in 0..N {
                        t.send(to, vec![m, from as u8]);
                    }
                }
                for (to, t) in ts.iter().enumerate() {
                    let mut got: Vec<(usize, Vec<u8>)> = (0..N)
                        .map(|_| t.recv_timeout(Duration::from_secs(10)).expect("frame"))
                        .collect();
                    got.sort();
                    let want: Vec<_> = (0..N).map(|from| (from, vec![m, from as u8])).collect();
                    assert_eq!(got, want, "mesh {m}, rank {to}");
                    assert_eq!(t.recv_timeout(Duration::from_millis(1)), None);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

/// A one-rank mesh has no peer and no connection, and still delivers a
/// self-send.
#[test]
fn a_one_rank_mesh_delivers_to_itself() {
    let t = SocketTransport::mesh(1).unwrap().pop().unwrap();
    assert_eq!((t.rank(), t.nranks()), (0, 1));
    t.send(0, vec![1, 2, 3]);
    assert_eq!(
        t.recv_timeout(Duration::from_secs(1)),
        Some((0, vec![1, 2, 3]))
    );
    assert_eq!(t.recv_timeout(Duration::from_millis(1)), None);
}
