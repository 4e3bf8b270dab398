//! The byte-frame transport abstraction and the in-process loopback
//! backend.
//!
//! A [`Transport`] moves opaque frames (encoded message bodies) between
//! ranks; it knows nothing of the protocol above it. Two backends exist:
//!
//! * [`loopback`] — N ranks inside one process, frames through one
//!   condvar `Inbox` per rank. Tests run real multi-rank executions
//!   with no sockets, and still exercise the full codec (frames are
//!   encoded and decoded exactly as on the wire).
//! * [`crate::socket::SocketTransport`] — real multi-process TCP mesh.
//!   It spawns no thread: `recv_timeout`, on the progress thread, polls
//!   and reads the sockets itself, and `send` never blocks.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A reliable, ordered, rank-addressed frame carrier. `send` must be
/// callable from any thread and must not block on the peer; `recv_timeout`
/// is only ever called by the rank's progress thread, which may be the
/// thread that moves the bytes.
pub trait Transport: Send + Sync + 'static {
    /// This rank's index.
    fn rank(&self) -> usize;
    /// Total number of ranks.
    fn nranks(&self) -> usize;
    /// Enqueue one frame toward `to` (self-sends must work).
    fn send(&self, to: usize, frame: Vec<u8>);
    /// Next `(from, frame)` pair, or `None` after `timeout`.
    fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Vec<u8>)>;
}

/// A blocking MPSC frame queue (std `Condvar` has the timed wait the
/// progress loop needs; the vendored `parking_lot` does not).
pub(crate) struct Inbox {
    q: Mutex<VecDeque<(usize, Vec<u8>)>>,
    cv: Condvar,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn push(&self, from: usize, frame: Vec<u8>) {
        self.q.lock().unwrap().push_back((from, frame));
        self.cv.notify_one();
    }

    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let mut q = self.q.lock().unwrap();
        if let Some(x) = q.pop_front() {
            return Some(x);
        }
        let (mut q, _) = self.cv.wait_timeout(q, timeout).unwrap();
        q.pop_front()
    }
}

/// One rank of an in-process loopback fabric.
pub struct LoopbackTransport {
    rank: usize,
    inboxes: Vec<Arc<Inbox>>,
}

/// Build an `n`-rank loopback fabric; element `r` is rank `r`'s transport.
pub fn loopback(n: usize) -> Vec<LoopbackTransport> {
    assert!(n >= 1, "need at least one rank");
    let inboxes: Vec<Arc<Inbox>> = (0..n).map(|_| Arc::new(Inbox::new())).collect();
    (0..n)
        .map(|rank| LoopbackTransport {
            rank,
            inboxes: inboxes.clone(),
        })
        .collect()
}

impl Transport for LoopbackTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn nranks(&self) -> usize {
        self.inboxes.len()
    }
    fn send(&self, to: usize, frame: Vec<u8>) {
        self.inboxes[to].push(self.rank, frame);
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        self.inboxes[self.rank].pop_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_in_order() {
        let mut ranks = loopback(2);
        let r1 = ranks.pop().unwrap();
        let r0 = ranks.pop().unwrap();
        r0.send(1, vec![1]);
        r0.send(1, vec![2]);
        r1.send(1, vec![3]); // self-send
        let got: Vec<_> = (0..3)
            .map(|_| r1.recv_timeout(Duration::from_secs(1)).unwrap())
            .collect();
        assert!(got.contains(&(0, vec![1])));
        assert!(got.contains(&(1, vec![3])));
        // Frames from the same sender keep their order.
        let i1 = got.iter().position(|g| g.1 == vec![1]).unwrap();
        let i2 = got.iter().position(|g| g.1 == vec![2]).unwrap();
        assert!(i1 < i2);
        assert!(r0.recv_timeout(Duration::from_millis(1)).is_none());
    }
}
