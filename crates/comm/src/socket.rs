//! The TCP mesh transport: the one wire every rank runs on, in tests as
//! in multi-process runs.
//!
//! [`SocketTransport::connect`] forms one rank of a multi-process mesh:
//! rank `r` listens on `base_port + r` (loopback interface) and dials
//! every lower rank, so the mesh forms without a rendezvous server: each
//! pair has exactly one connection, initiated by the higher rank, which
//! identifies itself with a 4-byte hello. [`SocketTransport::mesh`]
//! forms every rank of one inside a single process — how tests run real
//! multi-rank executions — the same way, on kernel-assigned ports, from
//! the calling thread. Frames are length-prefixed
//! (`u32` little-endian byte count, then the encoded body), and each
//! leaves in one `writev` of prefix plus body, so under `TCP_NODELAY` a
//! small frame is one segment.
//!
//! The transport spawns no thread. The rank's progress thread, the only
//! caller of `recv_timeout`, is the only reader of the sockets: it
//! `ppoll`s every live peer socket plus a doorbell, reassembles frames
//! from a staging buffer, and reads a frame larger than that buffer
//! straight into the frame's own `Vec`. A peer whose stream ends, fails
//! or carries an oversized prefix leaves the poll set for good.
//!
//! Sockets are nonblocking, and no thread ever blocks in `write`. A
//! sender writes inline while the peer's outbound queue is empty and
//! appends to the queue otherwise; when it leaves the queue non-empty it
//! rings the doorbell, so the progress thread polls that socket for
//! `POLLOUT` and flushes the queue as the peer drains it. Without this,
//! two progress threads each writing a reply larger than the socket
//! buffers to the other, with neither reading, would deadlock. Self-sends
//! go through a queue of their own, which rings the same doorbell.

use crate::transport::Transport;
use std::collections::VecDeque;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Refuse frames above this size — nothing in the protocol approaches it,
/// so a larger prefix means a corrupt or hostile stream.
const MAX_FRAME: u32 = 1 << 30;

/// Bytes per staging read. A frame whose unread rest is at least this
/// long is read straight into its own buffer instead.
const STAGING: usize = 64 << 10;

/// Queued frames per flushing `writev` (two slices each, far below
/// `IOV_MAX`).
const FLUSH_BATCH: usize = 32;

/// How long a dropped transport keeps flushing frames still queued
/// toward live peers before it closes the sockets.
const DROP_FLUSH: Duration = Duration::from_secs(2);

/// How long [`SocketTransport::mesh`] waits for its own hellos; only a
/// stray connection to one of its listeners can make it wait at all.
const MESH_TIMEOUT: Duration = Duration::from_secs(10);

/// The one foreign call: `ppoll(2)`, for its nanosecond timeout (the
/// progress loop waits in 200 µs slices, below `poll(2)`'s millisecond).
mod sys {
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_long, c_ulong, c_void};
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    /// `struct timespec` (`time_t` is a `long` on every Linux target).
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Wait until one of `fds` is ready or `timeout` passes.
    pub fn poll(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
        let ts = Timespec {
            tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
            tv_nsec: timeout.subsec_nanos() as c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // `#[repr(C)]` pollfd records, the only memory the kernel writes
        // (each `revents`); `ts` is a valid timespec that outlives the
        // call; a null sigmask leaves the thread's signal mask alone.
        let n = unsafe {
            ppoll(
                fds.as_mut_ptr(),
                fds.len() as c_ulong,
                &ts,
                std::ptr::null(),
            )
        };
        if n < 0 {
            Err(std::io::Error::last_os_error())
        } else {
            Ok(())
        }
    }
}

use sys::{PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};

/// Accept every rank above `rank` on `listener` into `streams`, each
/// named by its 4-byte hello, before `deadline` (`timeout` is only for
/// the error). A connection still owing its hello waits beside the
/// others instead of blocking the accept loop; one that closes first, or
/// whose hello names no missing higher rank, is a stray: it is dropped
/// and accepting goes on.
fn accept_higher(
    listener: &TcpListener,
    rank: usize,
    streams: &mut [Option<TcpStream>],
    deadline: Instant,
    timeout: Duration,
) -> std::io::Result<()> {
    let nranks = streams.len();
    listener.set_nonblocking(true)?;
    let mut pending: Vec<TcpStream> = Vec::new();
    loop {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    pending.push(stream);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        let mut i = 0;
        while i < pending.len() {
            // Peek, so the frames behind the hello stay in the socket.
            let mut hello = [0u8; 4];
            match pending[i].peek(&mut hello) {
                Ok(4) => {
                    let mut stream = pending.swap_remove(i);
                    let peer = u32::from_le_bytes(hello) as usize;
                    let wanted = peer > rank && peer < nranks && streams[peer].is_none();
                    if wanted && stream.read_exact(&mut hello).is_ok() {
                        streams[peer] = Some(stream);
                    }
                }
                Ok(n) if n > 0 => i += 1,
                Err(e) if e.kind() == ErrorKind::WouldBlock => i += 1,
                _ => drop(pending.swap_remove(i)),
            }
        }
        if streams[rank + 1..].iter().all(Option::is_some) {
            return Ok(());
        }
        if Instant::now() >= deadline {
            let missing: Vec<String> = (rank + 1..nranks)
                .filter(|&p| streams[p].is_none())
                .map(|p| p.to_string())
                .collect();
            return Err(std::io::Error::new(
                ErrorKind::TimedOut,
                format!(
                    "rank(s) {} never dialed rank {rank} within {timeout:.1?}",
                    missing.join(", ")
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Reassembles one peer's byte stream into frames: where the stream
/// stands between reads.
enum FrameReader {
    Prefix { len: [u8; 4], have: usize },
    Body { body: Vec<u8>, have: usize },
}

impl FrameReader {
    fn new() -> Self {
        Self::Prefix {
            len: [0; 4],
            have: 0,
        }
    }

    /// Read what `src` has ready, pushing every completed frame onto
    /// `out` tagged with `from`. Reading stops when a read comes back
    /// short (the socket is drained) or would block; an error means the
    /// stream is over — it ended, failed, or carried a prefix above
    /// [`MAX_FRAME`].
    fn pull(
        &mut self,
        src: &mut impl Read,
        staging: &mut [u8],
        from: usize,
        out: &mut VecDeque<(usize, Vec<u8>)>,
    ) -> std::io::Result<()> {
        loop {
            let (got, asked, direct) = match self {
                Self::Body { body, have } if body.len() - *have >= staging.len() => {
                    let rest = &mut body[*have..];
                    (src.read(rest), rest.len(), true)
                }
                _ => (src.read(staging), staging.len(), false),
            };
            let n = match got {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if direct {
                if let Self::Body { have, .. } = self {
                    *have += n;
                }
                self.finish(from, out);
            } else {
                self.feed(&staging[..n], from, out)?;
            }
            if n < asked {
                return Ok(());
            }
        }
    }

    /// Consume one staging read's bytes.
    fn feed(
        &mut self,
        mut bytes: &[u8],
        from: usize,
        out: &mut VecDeque<(usize, Vec<u8>)>,
    ) -> std::io::Result<()> {
        while !bytes.is_empty() {
            let n = match self {
                Self::Prefix { len, have } => {
                    let n = (4 - *have).min(bytes.len());
                    len[*have..*have + n].copy_from_slice(&bytes[..n]);
                    *have += n;
                    if *have == 4 {
                        let size = u32::from_le_bytes(*len);
                        if size > MAX_FRAME {
                            return Err(std::io::Error::new(
                                ErrorKind::InvalidData,
                                format!("frame length {size} exceeds limit"),
                            ));
                        }
                        *self = Self::Body {
                            body: vec![0; size as usize],
                            have: 0,
                        };
                    }
                    n
                }
                Self::Body { body, have } => {
                    let n = (body.len() - *have).min(bytes.len());
                    body[*have..*have + n].copy_from_slice(&bytes[..n]);
                    *have += n;
                    n
                }
            };
            bytes = &bytes[n..];
            self.finish(from, out);
        }
        Ok(())
    }

    /// Deliver the frame being filled once its last byte is in.
    fn finish(&mut self, from: usize, out: &mut VecDeque<(usize, Vec<u8>)>) {
        if let Self::Body { body, have } = self {
            if *have == body.len() {
                out.push_back((from, std::mem::take(body)));
                *self = Self::new();
            }
        }
    }
}

/// Frames accepted by `send` that have not fully reached the kernel.
#[derive(Default)]
struct Outbound {
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the front frame, prefix included, already written.
    sent: usize,
    /// The connection failed on a write; frames toward the peer are
    /// dropped (warned once). The progress engine treats frame loss as
    /// recoverable, so a transient failure is retried above — while a
    /// reply toward a peer that already finished and closed its sockets
    /// (nothing pending on its side, by construction) dies here quietly
    /// instead of panicking the progress thread.
    dead: bool,
}

impl Outbound {
    /// Write queued frames until the queue empties or the socket would
    /// block.
    fn flush(&mut self, mut sink: impl Write) -> std::io::Result<()> {
        while !self.queue.is_empty() {
            let mut lens = [[0u8; 4]; FLUSH_BATCH];
            let mut iov = [IoSlice::new(&[]); 2 * FLUSH_BATCH];
            let mut k = 0;
            for (len, frame) in lens.iter_mut().zip(&self.queue) {
                *len = (frame.len() as u32).to_le_bytes();
            }
            for (len, frame) in lens.iter().zip(&self.queue) {
                iov[k] = IoSlice::new(len);
                iov[k + 1] = IoSlice::new(frame);
                k += 2;
            }
            let mut slices = &mut iov[..k];
            IoSlice::advance_slices(&mut slices, self.sent);
            match sink.write_vectored(slices) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Retire `n` more written bytes from the front of the queue.
    fn consume(&mut self, n: usize) {
        let mut done = self.sent + n;
        while let Some(frame) = self.queue.front() {
            if done < 4 + frame.len() {
                break;
            }
            done -= 4 + frame.len();
            self.queue.pop_front();
        }
        self.sent = done;
    }
}

/// One peer's connection.
struct Peer {
    stream: TcpStream,
    out: Mutex<Outbound>,
    /// `out.queue` is non-empty: the progress thread polls for `POLLOUT`.
    /// Written under `out`'s lock; set before the doorbell rings.
    backlog: AtomicBool,
}

impl Peer {
    fn out(&self) -> MutexGuard<'_, Outbound> {
        self.out
            .lock()
            .expect("outbound queue lock poisoned by a panicking sender")
    }

    /// Flush the outbound queue under the held lock, and report whether
    /// frames remain queued. A write error kills the connection.
    fn flush(&self, out: &mut Outbound, me: usize, to: usize) -> bool {
        if let Err(e) = out.flush(&self.stream) {
            if !out.dead {
                eprintln!("comm rank {me}: dropping frames to rank {to}, connection lost: {e}");
            }
            *out = Outbound {
                dead: true,
                ..Outbound::default()
            };
        }
        let backlog = !out.queue.is_empty();
        self.backlog.store(backlog, Ordering::SeqCst);
        backlog
    }
}

/// The progress thread's side: reassembly state, frames read but not yet
/// returned, and the poll set's scratch space.
struct Rx {
    /// Per peer; `None` at our own index and for a peer whose stream is
    /// over, which leaves the poll set (a closed socket polls ready
    /// forever and would spin the progress thread).
    readers: Vec<Option<FrameReader>>,
    ready: VecDeque<(usize, Vec<u8>)>,
    staging: Vec<u8>,
    fds: Vec<PollFd>,
    /// The peer behind each entry of `fds` after the doorbell.
    fd_peer: Vec<usize>,
}

/// TCP mesh transport for one rank of a multi-process run.
pub struct SocketTransport {
    rank: usize,
    nranks: usize,
    /// Per peer (`None` at our own index).
    peers: Vec<Option<Peer>>,
    self_queue: Mutex<VecDeque<Vec<u8>>>,
    /// Written by a sender that leaves a queue non-empty; polled and
    /// drained by the progress thread.
    bell_tx: UnixStream,
    bell_rx: UnixStream,
    rx: Mutex<Rx>,
}

impl SocketTransport {
    /// Establish the full mesh for `rank` of `nranks` on
    /// `127.0.0.1:base_port + r`. Blocks until every pairwise connection
    /// is up or `timeout` expires.
    pub fn connect(
        rank: usize,
        nranks: usize,
        base_port: u16,
        timeout: Duration,
    ) -> std::io::Result<Self> {
        assert!(rank < nranks, "rank {rank} out of range for {nranks}");
        let deadline = Instant::now() + timeout;
        // Retry the bind too: the previous mesh on this port range may
        // have just torn down, and its TIME_WAIT sockets (or a straggler
        // still draining) make a fresh listener bind fail with
        // EADDRINUSE for up to a minute. That is start-up skew of the
        // same kind the dial loop below already rides out.
        let listener = loop {
            match TcpListener::bind(("127.0.0.1", base_port + rank as u16)) {
                Ok(l) => break l,
                Err(e) if Instant::now() >= deadline => {
                    return Err(std::io::Error::new(
                        ErrorKind::AddrInUse,
                        format!(
                            "rank {rank} could not bind 127.0.0.1:{} within {:.1?}: {e}",
                            base_port + rank as u16,
                            timeout
                        ),
                    ));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            }
        };
        let mut streams: Vec<Option<TcpStream>> = (0..nranks).map(|_| None).collect();

        // Dial every lower rank (their listeners bind before any dialing
        // completes; retry covers start-up skew between processes). On
        // deadline the error names the unreachable rank, so a 4-rank job
        // with one dead process fails with "rank 2 unreachable", not a
        // bare connection-refused.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let addr = ("127.0.0.1", base_port + peer as u16);
            let mut stream = loop {
                match TcpStream::connect(addr) {
                    Ok(s) => break s,
                    Err(e) if Instant::now() >= deadline => {
                        return Err(std::io::Error::new(
                            ErrorKind::TimedOut,
                            format!(
                                "rank {peer} unreachable at 127.0.0.1:{} after {:.1?} \
                                 (dialing from rank {rank}): {e}",
                                base_port + peer as u16,
                                timeout
                            ),
                        ));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(20)),
                }
            };
            stream.write_all(&(rank as u32).to_le_bytes())?;
            *slot = Some(stream);
        }

        accept_higher(&listener, rank, &mut streams, deadline, timeout)?;
        Self::from_streams(rank, streams)
    }

    /// All `n` ranks of a mesh inside this process, over loopback TCP on
    /// kernel-assigned ports; element `r` is rank `r`'s transport. The
    /// calling thread builds it alone: every higher rank dials every
    /// lower rank's listener and sends its hello — the kernel completes
    /// each connection into the listener's backlog, so nobody need be
    /// accepting yet — and then every rank accepts its hellos.
    pub fn mesh(n: usize) -> std::io::Result<Vec<Self>> {
        assert!(n >= 1, "need at least one rank");
        let listeners = (0..n)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<Vec<_>>>()?;
        let mut rows: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for (rank, row) in rows.iter_mut().enumerate() {
            for (listener, slot) in listeners.iter().zip(row.iter_mut()).take(rank) {
                let mut stream = TcpStream::connect(listener.local_addr()?)?;
                stream.write_all(&(rank as u32).to_le_bytes())?;
                *slot = Some(stream);
            }
        }
        let deadline = Instant::now() + MESH_TIMEOUT;
        listeners
            .iter()
            .zip(rows)
            .enumerate()
            .map(|(rank, (listener, mut row))| {
                accept_higher(listener, rank, &mut row, deadline, MESH_TIMEOUT)?;
                Self::from_streams(rank, row)
            })
            .collect()
    }

    /// The transport over a formed mesh: `streams[p]` is the connection
    /// to rank `p`, `None` at our own index.
    fn from_streams(rank: usize, streams: Vec<Option<TcpStream>>) -> std::io::Result<Self> {
        let nranks = streams.len();
        let mut peers = Vec::with_capacity(nranks);
        for stream in streams {
            peers.push(match stream {
                Some(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_nonblocking(true)?;
                    Some(Peer {
                        stream,
                        out: Mutex::new(Outbound::default()),
                        backlog: AtomicBool::new(false),
                    })
                }
                None => None,
            });
        }
        let (bell_tx, bell_rx) = UnixStream::pair()?;
        bell_tx.set_nonblocking(true)?;
        bell_rx.set_nonblocking(true)?;
        let readers = peers
            .iter()
            .map(|p| p.as_ref().map(|_| FrameReader::new()))
            .collect();
        Ok(Self {
            rank,
            nranks,
            peers,
            self_queue: Mutex::new(VecDeque::new()),
            bell_tx,
            bell_rx,
            rx: Mutex::new(Rx {
                readers,
                ready: VecDeque::new(),
                staging: vec![0; STAGING],
                fds: Vec::with_capacity(nranks + 1),
                fd_peer: Vec::with_capacity(nranks + 1),
            }),
        })
    }

    /// Wake the progress thread out of `ppoll`. A full doorbell already
    /// has a wake pending, so its `WouldBlock` is ignored.
    fn ring(&self) {
        let _ = (&self.bell_tx).write(&[1]);
    }

    /// One `ppoll` over the doorbell, every peer still being read and
    /// every peer with a backlog; then flush what became writable and
    /// read what became readable into `rx.ready`.
    fn poll_once(&self, rx: &mut Rx, timeout: Duration) -> std::io::Result<()> {
        let Rx {
            readers,
            ready,
            staging,
            fds,
            fd_peer,
        } = rx;
        fds.clear();
        fd_peer.clear();
        fds.push(PollFd {
            fd: self.bell_rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (p, peer) in self.peers.iter().enumerate() {
            let Some(peer) = peer else { continue };
            let mut events = 0;
            if readers[p].is_some() {
                events |= POLLIN;
            }
            if peer.backlog.load(Ordering::SeqCst) {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd {
                    fd: peer.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                fd_peer.push(p);
            }
        }
        match sys::poll(fds, timeout) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => return Ok(()),
            Err(e) => return Err(e),
        }
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&self.bell_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        for (fd, &p) in fds[1..].iter().zip(fd_peer.iter()) {
            let peer = self.peers[p].as_ref().expect("polled peer exists");
            let hangup = fd.revents & (POLLERR | POLLHUP) != 0;
            if fd.events & POLLOUT != 0 && (hangup || fd.revents & POLLOUT != 0) {
                peer.flush(&mut peer.out(), self.rank, p);
            }
            if fd.events & POLLIN != 0 && (hangup || fd.revents & POLLIN != 0) {
                let reader = readers[p].as_mut().expect("polled for reading");
                if let Err(e) = reader.pull(&mut &peer.stream, staging, p, ready) {
                    // The stream is over: an end of file or a reset is
                    // a peer that went away; anything else is worth a
                    // line.
                    if !matches!(
                        e.kind(),
                        ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
                    ) {
                        eprintln!("comm rank {}: stopped reading rank {p}: {e}", self.rank);
                    }
                    readers[p] = None;
                }
            }
        }
        Ok(())
    }
}

impl Transport for SocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }
    fn nranks(&self) -> usize {
        self.nranks
    }
    fn send(&self, to: usize, frame: Vec<u8>) {
        if to == self.rank {
            let mut q = self
                .self_queue
                .lock()
                .expect("self queue lock poisoned by a panicking sender");
            q.push_back(frame);
            if q.len() == 1 {
                drop(q);
                self.ring();
            }
            return;
        }
        let peer = self.peers[to].as_ref().expect("no connection to peer");
        let mut out = peer.out();
        if out.dead {
            return;
        }
        out.queue.push_back(frame);
        if out.queue.len() == 1 && peer.flush(&mut out, self.rank, to) {
            drop(out);
            self.ring();
        }
    }
    fn recv_timeout(&self, timeout: Duration) -> Option<(usize, Vec<u8>)> {
        let mut rx = self.rx.lock().expect("receive state lock poisoned");
        let mut deadline = None;
        loop {
            if let Some(frame) = rx.ready.pop_front() {
                return Some(frame);
            }
            if let Some(frame) = self
                .self_queue
                .lock()
                .expect("self queue lock poisoned by a panicking sender")
                .pop_front()
            {
                return Some((self.rank, frame));
            }
            let deadline = *deadline.get_or_insert_with(|| Instant::now() + timeout);
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.poll_once(&mut rx, left)
                .expect("ppoll on the mesh sockets");
        }
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        // Frames still queued toward live peers (a last reply the
        // socket buffer had no room for) get a bounded grace to reach
        // the kernel; dropping the streams then closes the sockets.
        let deadline = Instant::now() + DROP_FLUSH;
        let mut rx = match self.rx.lock() {
            Ok(rx) => rx,
            Err(poisoned) => poisoned.into_inner(),
        };
        while self
            .peers
            .iter()
            .flatten()
            .any(|p| p.backlog.load(Ordering::SeqCst))
        {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || self.poll_once(&mut rx, left).is_err() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A port the kernel just handed out and took back: free, with
    /// nothing listening on it.
    fn kernel_port() -> u16 {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.local_addr().unwrap().port()
    }

    /// `connect` of `rank` in a 2-rank mesh at `base` with a 150 ms
    /// deadline, which must fail: its error.
    fn connect_err(rank: usize, base: u16) -> std::io::Error {
        match SocketTransport::connect(rank, 2, base, Duration::from_millis(150)) {
            Ok(_) => panic!("connect must fail"),
            Err(e) => e,
        }
    }

    /// Dialing a rank that never comes up fails at the deadline with an
    /// error naming the unreachable rank, not a bare connection-refused.
    #[test]
    fn dial_deadline_names_unreachable_rank() {
        // Rank 1 listens on the free port, rank 0's port just below it
        // has nobody behind it.
        let err = connect_err(1, kernel_port() - 1);
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("rank 0 unreachable"), "got: {msg}");
    }

    /// The accept side times out too: a higher rank that never dials must
    /// not hang the mesh — not even behind a connection that never says
    /// hello — and the error says who is missing.
    #[test]
    fn accept_deadline_names_missing_rank() {
        let base = kernel_port();
        let (stop, stopped) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(2) {
                if let Ok(_stream) = TcpStream::connect(("127.0.0.1", base)) {
                    // Held silent well past the deadline, then closed.
                    let _ = stopped.recv_timeout(Duration::from_secs(5));
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let start = Instant::now();
        let err = connect_err(0, base);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "connect overran its deadline"
        );
        stop.send(()).unwrap();
        silent.join().unwrap();
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        let msg = err.to_string();
        assert!(msg.contains("rank(s) 1 never dialed"), "got: {msg}");
    }

    /// Connections from outside the mesh — hellos naming a rank out of
    /// range or not above the listener's, and one that stays silent —
    /// neither hang nor panic a forming mesh. Rank 1 is a raw stream, so
    /// the test needs no second port.
    #[test]
    fn strays_do_not_stop_a_mesh_from_forming() {
        let base = kernel_port();
        let r0 = std::thread::spawn(move || {
            SocketTransport::connect(0, 2, base, Duration::from_secs(10))
        });
        let dial = |hello: Option<u32>| {
            let mut stream = loop {
                match TcpStream::connect(("127.0.0.1", base)) {
                    Ok(s) => break s,
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            };
            if let Some(rank) = hello {
                stream.write_all(&rank.to_le_bytes()).unwrap();
            }
            stream
        };
        let _strays = [Some(9), Some(0), None].map(dial);
        let mut r1 = dial(Some(1));
        let t0 = r0.join().unwrap().expect("rank 0 forms the mesh");
        r1.write_all(&wire(&[vec![42, 43]])).unwrap();
        assert_eq!(
            t0.recv_timeout(Duration::from_secs(10)),
            Some((1, vec![42, 43]))
        );
        t0.send(1, vec![7]);
        let mut back = [0u8; 5];
        r1.read_exact(&mut back).unwrap();
        assert_eq!(back, [1, 0, 0, 0, 7]);
    }

    /// A connected pair.
    fn pair() -> (SocketTransport, SocketTransport) {
        let mut ts = SocketTransport::mesh(2).unwrap();
        let t1 = ts.pop().unwrap();
        (ts.pop().unwrap(), t1)
    }

    /// The mesh handshake and frame layer work end to end.
    #[test]
    fn two_rank_socket_roundtrip() {
        let (t0, t1) = pair();
        t1.send(0, vec![42, 43]);
        assert_eq!(
            t0.recv_timeout(Duration::from_secs(10)),
            Some((1, vec![42, 43]))
        );
        t0.send(1, vec![7]);
        assert_eq!(t1.recv_timeout(Duration::from_secs(10)), Some((0, vec![7])));
    }

    /// A stream as a socket hands it out: each read returns at most the
    /// next scripted chunk, and a drained stream would block.
    struct Chunked {
        bytes: Vec<u8>,
        pos: usize,
        cuts: VecDeque<usize>,
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let chunk_end = self.cuts.front().copied().unwrap_or(self.bytes.len());
            if self.pos == self.bytes.len() {
                return Err(ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(chunk_end - self.pos);
            buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
            self.pos += n;
            if self.pos == chunk_end {
                self.cuts.pop_front();
            }
            Ok(n)
        }
    }

    fn wire(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            bytes.extend_from_slice(&(f.len() as u32).to_le_bytes());
            bytes.extend_from_slice(f);
        }
        bytes
    }

    /// Feed `bytes` to a fresh reader, cut into reads at `cuts`, with a
    /// staging buffer of `staging` bytes; the frames it delivers.
    fn reassemble(bytes: Vec<u8>, cuts: &[usize], staging: usize) -> Vec<Vec<u8>> {
        let mut src = Chunked {
            bytes,
            pos: 0,
            cuts: cuts.iter().copied().collect(),
        };
        let (mut reader, mut out) = (FrameReader::new(), VecDeque::new());
        let mut buf = vec![0; staging];
        while src.pos < src.bytes.len() {
            reader.pull(&mut src, &mut buf, 3, &mut out).unwrap();
        }
        out.into_iter()
            .map(|(from, f)| {
                assert_eq!(from, 3);
                f
            })
            .collect()
    }

    /// Frames of several sizes, an empty one among them.
    fn sample_frames() -> Vec<Vec<u8>> {
        [5usize, 0, 1, 17, 300, 2, 40]
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|b| (b * 7 + i) as u8).collect())
            .collect()
    }

    #[test]
    fn a_stream_cut_at_every_offset_delivers_the_same_frames() {
        let frames = sample_frames();
        let bytes = wire(&frames);
        for cut in 1..bytes.len() {
            assert_eq!(
                reassemble(bytes.clone(), &[cut], 64),
                frames,
                "cut at {cut}"
            );
        }
        // One byte per read.
        let every: Vec<usize> = (1..bytes.len()).collect();
        assert_eq!(reassemble(bytes, &every, 64), frames);
    }

    #[test]
    fn several_frames_arrive_in_one_read() {
        let frames = sample_frames();
        assert_eq!(reassemble(wire(&frames), &[], 1 << 16), frames);
    }

    #[test]
    fn a_frame_larger_than_the_staging_buffer_reassembles() {
        // A 1000-byte frame through a 64-byte staging buffer: its head
        // arrives staged, its rest lands in the frame's own buffer.
        let big: Vec<u8> = (0..1000).map(|b| (b % 251) as u8).collect();
        let frames = vec![vec![1, 2], big, vec![3]];
        let bytes = wire(&frames);
        for cut in [3, 10, 70, 600, 1005] {
            assert_eq!(
                reassemble(bytes.clone(), &[cut], 64),
                frames,
                "cut at {cut}"
            );
        }
        assert_eq!(reassemble(bytes, &[], 64), frames);
    }

    #[test]
    fn an_oversized_prefix_ends_the_stream_without_panicking() {
        let mut bytes = wire(&[vec![9]]);
        bytes.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        bytes.extend_from_slice(&[0; 16]);
        let mut src = Chunked {
            bytes,
            pos: 0,
            cuts: VecDeque::new(),
        };
        let (mut reader, mut out) = (FrameReader::new(), VecDeque::new());
        let err = reader
            .pull(&mut src, &mut [0; 64], 1, &mut out)
            .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        assert_eq!(out, VecDeque::from([(1, vec![9])]));

        // Over a real socket: the receiver stops reading that peer and
        // still serves its own queue.
        let (t0, t1) = pair();
        (&t1.peers[0].as_ref().unwrap().stream)
            .write_all(&(MAX_FRAME + 1).to_le_bytes())
            .unwrap();
        assert_eq!(t0.recv_timeout(Duration::from_millis(200)), None);
        assert!(t0.rx.lock().unwrap().readers[1].is_none());
        t0.send(0, vec![5]);
        assert_eq!(t0.recv_timeout(Duration::from_secs(1)), Some((0, vec![5])));
    }

    #[test]
    fn self_sends_and_remote_frames_keep_per_sender_order() {
        let (t0, t1) = pair();
        let n = 200u32;
        let remote = std::thread::spawn(move || {
            for i in 0..n {
                t1.send(0, i.to_le_bytes().to_vec());
            }
            t1
        });
        for i in 0..n {
            t0.send(0, (1000 + i).to_le_bytes().to_vec());
        }
        let mut next = [0u32, 1000];
        for _ in 0..2 * n {
            let (from, f) = t0.recv_timeout(Duration::from_secs(10)).unwrap();
            let v = u32::from_le_bytes(f.try_into().unwrap());
            assert_eq!(v, next[1 - from], "from rank {from}");
            next[1 - from] += 1;
        }
        assert_eq!(next, [n, 1000 + n]);
        drop(remote.join().unwrap());
    }

    #[test]
    fn a_closed_peer_leaves_the_poll_set() {
        let (t0, t1) = pair();
        drop(t1);
        // The EOF is read once and the socket dropped from the set; a
        // closed socket left in it would return from every `ppoll` at
        // once and spin the loop at full speed until each deadline.
        let (start, cpu) = (Instant::now(), thread_cpu());
        for _ in 0..5 {
            assert_eq!(t0.recv_timeout(Duration::from_millis(50)), None);
        }
        let (wall, busy) = (start.elapsed(), thread_cpu() - cpu);
        assert!(
            wall >= Duration::from_millis(200),
            "five 50 ms waits took {wall:?}"
        );
        assert!(
            busy < Duration::from_millis(100),
            "five 50 ms waits burned {busy:?} of CPU"
        );
        assert!(t0.rx.lock().unwrap().readers[1].is_none());
    }

    /// CPU time this thread has run (Linux `schedstat`, in ns).
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap();
        let ns = stat.split_whitespace().next().unwrap().parse().unwrap();
        Duration::from_nanos(ns)
    }
}
