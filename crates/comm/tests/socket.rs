//! Over real sockets: two ranks whose progress threads serve each other
//! replies larger than both socket buffers at once must both finish.

use comm::{free_port_base, CommConfig, Endpoint, ShardStore, SocketTransport};
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
    let base = free_port_base(2);
    // Far above the transfer time: a retry would serve a second copy.
    let cfg = CommConfig {
        retry_timeout: Duration::from_secs(120),
        ..CommConfig::default()
    };
    let (posted, both_posted) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let (tx, rx) = mpsc::channel();
    for rank in 0..2 {
        let (posted, both_posted, tx) = (posted.clone(), both_posted.clone(), tx.clone());
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let sock = SocketTransport::connect(rank, 2, base, Duration::from_secs(10))
                .expect("mesh connect");
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
