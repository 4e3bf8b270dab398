//! The byte-frame transport abstraction.
//!
//! A [`Transport`] moves opaque frames (encoded message bodies) between
//! ranks; it knows nothing of the protocol above it. The wire behind it
//! is [`crate::socket::SocketTransport`], a TCP mesh that spawns no
//! thread: `recv_timeout`, on the progress thread, polls and reads the
//! sockets itself, and `send` never blocks. One process can hold every
//! rank of a mesh ([`crate::socket::SocketTransport::mesh`]), which is
//! how tests run real multi-rank executions;
//! [`crate::fault::FaultTransport`] wraps either kind to inject faults.

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
