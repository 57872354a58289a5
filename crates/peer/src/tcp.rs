//! The real-socket driver: the same sans-IO [`PeerNode`]s the
//! simulator and the [`ThreadedCluster`](crate::cluster::ThreadedCluster)
//! run, each behind its own real TCP listener, talking
//! [`wire`](crate::wire) frames wrapped in the length-prefixed
//! [`framing`](crate::framing) grammar over loopback (or any) sockets.
//!
//! Where the threaded cluster's mpsc mesh gives every message free,
//! lossless, infinitely-buffered delivery, this driver gets only what
//! TCP gives a real deployment — and fills the gap the way a real
//! deployment would (DESIGN.md §11):
//!
//! * **Hosting.** At most one host thread per available core, each a
//!   `poll(2)` readiness loop multiplexing many peers (peer `i` on loop
//!   `i % L`). A loop blocks until one of its sockets is ready or a
//!   watch, reconnect or drain deadline is due, so an idle cluster
//!   costs no CPU and a frame is handled the moment it lands. A panic
//!   in one peer's protocol core takes down that peer alone.
//! * **Framing.** A connection is a byte stream; each encoded frame
//!   travels behind a 4-byte length prefix and an incremental
//!   [`FrameDecoder`] reassembles it regardless of how the kernel
//!   splits reads.
//! * **Attribution.** Wire frames carry no sender address (the mpsc
//!   `Envelope` did), so the first frame on every connection is a
//!   `hello` declaring the caller's [`NodeId`]; everything else the
//!   connection delivers is attributed to that node.
//! * **Connection lifecycle.** Links are lazy, unidirectional, and
//!   self-healing: a peer connects to a destination only when it has a
//!   frame for it, and a failed connect or dropped connection moves the
//!   link to a jittered exponential-backoff [`Retrier`] before the next
//!   attempt. Replies travel on the *replier's* own outbound link,
//!   never back down the inbound connection — also between peers that
//!   share a host loop.
//! * **Backpressure.** Write queues are bounded and drop-newest: a slow
//!   or dead destination costs the sender a counter
//!   ([`SocketStats::dropped_backpressure`]), never a blocked protocol
//!   thread. Retry watches — the protocol's own machinery — recover
//!   whatever the transport sheds.
//! * **Churn.** [`TcpCluster::kill`] models a network-interface cut:
//!   the listener closes, every connection drops, queued frames are
//!   abandoned — but a volatile `PeerNode` (watches included) survives,
//!   so [`TcpCluster::restart`] brings the peer back on a fresh port
//!   and pending retries fire immediately. A *durable* peer (one with
//!   [`Peer::enable_durability`]) additionally models process death:
//!   kill wipes its in-memory catalog, and restart replays the WAL
//!   through the shared recovery state machine and re-registers the
//!   surviving bindings over `rereg` frames. This mirrors the
//!   simulator's `fail`/`recover`, which is what keeps the three
//!   drivers equivalent under churn.
//!
//! Accounting is exact: every frame a peer hands the transport lands in
//! precisely one of `frames_sent`, `dropped_backpressure`,
//! `dropped_disconnected`, `abandoned`, or the live queue — the
//! [`SocketStats::balances`] identity, asserted by the socket soak at
//! scale.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mqp_algebra::plan::Plan;
use mqp_catalog::ServerId;
use mqp_core::{Mqp, QueryId, QueryOutcome};
use mqp_net::{NodeId, Retrier, SocketStats};

use crate::framing::{encode_frame, FrameDecoder};
use crate::node::{Directory, Effect, PeerNode, RetryPolicy};
use crate::peer::Peer;
use crate::wire::Frame;

use sys::{PollFd, POLLIN, POLLOUT};

/// `poll(2)`, declared against the C library: the one system call the
/// host loops block in.
mod sys {
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout_ms`
    /// passes (-1: no timeout), filling in each `revents`. An
    /// interrupted or failed call reports nothing ready; the caller's
    /// loop just goes round again.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) {
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // `struct pollfd`s and `nfds` is its length, so the kernel reads
        // and writes only inside it, and only during the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
        if rc < 0 {
            for f in fds {
                f.revents = 0;
            }
        }
    }
}

/// How long a stopping peer may spend flushing its outbound queues
/// after its drain window closes, before it abandons the rest.
const FINAL_FLUSH: Duration = Duration::from_millis(200);

/// Tuning knobs for a [`TcpCluster`]. The defaults suit loopback
/// clusters from a handful to several hundred peers.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Retry policy installed on every peer (None: no watches).
    pub retry: Option<RetryPolicy>,
    /// Frames a single link buffers before drop-newest kicks in.
    pub write_queue_cap: usize,
    /// Consecutive failed connects before a link gives up and drops
    /// frames as `dropped_disconnected` instead of queueing (0: never
    /// give up — churn-tolerant, the default).
    pub max_link_attempts: u32,
    /// First reconnect delay.
    pub backoff_base: Duration,
    /// Reconnect delay ceiling.
    pub backoff_cap: Duration,
    /// Budget for one blocking connect attempt. The connect blocks the
    /// connecting peer's whole host loop, so keep it short.
    pub connect_timeout: Duration,
    /// How long a stopping peer keeps listening for stragglers after
    /// the last frame it processed (the shutdown drain window).
    pub drain_quiet: Duration,
    /// Seed decorrelating reconnect jitter across links.
    pub seed: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            retry: None,
            write_queue_cap: 1024,
            max_link_attempts: 0,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(250),
            connect_timeout: Duration::from_millis(100),
            drain_quiet: Duration::from_millis(50),
            seed: 0x5eed_50c7,
        }
    }
}

/// Where each node is listening *right now*. Slots go empty when a peer
/// is killed and are republished (with a fresh port) on restart, so
/// connectors always dial the current incarnation. Shared by every host
/// loop and the client — this is addressing configuration, the
/// socket-world analogue of the threaded mesh's channel vector.
#[derive(Clone)]
pub struct AddrTable {
    slots: Arc<Vec<Mutex<Option<SocketAddr>>>>,
}

impl AddrTable {
    fn new(n: usize) -> Self {
        AddrTable {
            slots: Arc::new((0..n).map(|_| Mutex::new(None)).collect()),
        }
    }

    fn publish(&self, node: NodeId, addr: SocketAddr) {
        *self.slots[node].lock().unwrap() = Some(addr);
    }

    fn unpublish(&self, node: NodeId) {
        *self.slots[node].lock().unwrap() = None;
    }

    /// The node's current listen address, if it is up. A node id no
    /// cluster slot holds (a hello may claim any) is never up.
    pub fn get(&self, node: NodeId) -> Option<SocketAddr> {
        *self.slots.get(node)?.lock().unwrap()
    }
}

/// Shared atomic counters behind [`SocketStats`], plus the live queue
/// gauge that closes the balance identity mid-run.
#[derive(Default)]
struct Counters {
    frames_enqueued: AtomicU64,
    frames_sent: AtomicU64,
    dropped_backpressure: AtomicU64,
    dropped_disconnected: AtomicU64,
    abandoned: AtomicU64,
    bytes_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_received: AtomicU64,
    frames_local: AtomicU64,
    connects: AtomicU64,
    disconnects: AtomicU64,
    retries: AtomicU64,
    queued: AtomicU64,
}

impl Counters {
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SocketStats {
        SocketStats {
            frames_enqueued: self.frames_enqueued.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            dropped_backpressure: self.dropped_backpressure.load(Ordering::Relaxed),
            dropped_disconnected: self.dropped_disconnected.load(Ordering::Relaxed),
            abandoned: self.abandoned.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            frames_local: self.frames_local.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Driver-plumbing control messages (kill/restart/stop travel out of
/// band — they model operator actions, not peer traffic).
enum Ctl {
    Kill,
    Restart,
    Stop,
}

/// What every peer on one host loop shares.
struct Shared {
    addrs: AddrTable,
    outcomes: Sender<QueryOutcome>,
    stats: Arc<Counters>,
    cfg: TcpConfig,
    epoch: Instant,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// One non-blocking write: `Ok(None)` when the socket would block,
/// `Err(())` when the connection is gone.
fn try_write(stream: &mut TcpStream, buf: &[u8]) -> Result<Option<usize>, ()> {
    loop {
        match stream.write(buf) {
            Ok(0) => return Err(()),
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
}

/// One lazy outbound connection to a fixed destination, with its
/// bounded write queue and reconnect state.
struct Link {
    to: NodeId,
    conn: Option<Conn>,
    /// Reconnect pacing and the `max_link_attempts` budget; once dead,
    /// enqueues drop as disconnected.
    retry: Retrier,
    /// Framed (length-prefixed) frames awaiting flush.
    queue: VecDeque<Vec<u8>>,
    /// Bytes of `queue.front()` already written (reset on disconnect:
    /// the replacement connection resends the frame from byte 0 and the
    /// old connection's receiver discards the partial tail at EOF).
    cursor: usize,
}

/// An established outbound connection. The peer's `hello` flushes
/// before anything queued — it is transport-internal, so it counts in
/// `bytes_sent` but never in the frame identity.
struct Conn {
    stream: TcpStream,
    hello_sent: usize,
    /// False from a write that would block until `poll` reports the
    /// socket writable again; while false the link polls for `POLLOUT`.
    writable: bool,
}

impl Conn {
    /// The EOF probe before each flush. The destination never sends
    /// application data on our outbound connection, so the read
    /// resolves to "still up" (WouldBlock) or "gone" (EOF / error).
    /// Idle outbound connections stay out of the poll set — there are
    /// as many of them as inbound ones, so polling them would double
    /// the cost of every `poll` — and a dead destination is noticed
    /// here, before the next frame is written into the void.
    fn alive(&mut self) -> bool {
        let mut sink = [0u8; 256];
        loop {
            match self.stream.read(&mut sink) {
                Ok(0) => return false,
                Ok(_) => continue, // stray bytes: ignore, it is our send channel
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }
}

impl Link {
    fn new(to: NodeId, cfg: &TcpConfig, me: NodeId) -> Self {
        Link {
            to,
            conn: None,
            retry: Retrier::new(
                cfg.backoff_base,
                cfg.backoff_cap,
                cfg.seed ^ ((me as u64) << 32) ^ to as u64,
                cfg.max_link_attempts,
            ),
            queue: VecDeque::new(),
            cursor: 0,
        }
    }

    /// If a frame is waiting: connects when the backoff allows, then
    /// flushes as far as the socket takes.
    fn advance(&mut self, sh: &Shared, hello: &[u8]) {
        if self.retry.is_dead() || self.queue.is_empty() {
            return;
        }
        if self.conn.is_none() && !self.connect(sh) {
            return;
        }
        if self.pump(&sh.stats, hello).is_err() {
            self.drop_conn(&sh.stats);
        }
    }

    /// One blocking connect attempt, if the backoff allows one now.
    fn connect(&mut self, sh: &Shared) -> bool {
        if !self.retry.ready() {
            return false;
        }
        // A destination that is down (no published listener) is a
        // failed attempt too, otherwise an addr-less link would spin
        // without ever backing off or going dead. So is a connection
        // that cannot be made non-blocking: the loop must never block
        // on it.
        let stream = sh
            .addrs
            .get(self.to)
            .and_then(|addr| TcpStream::connect_timeout(&addr, sh.cfg.connect_timeout).ok())
            .filter(|s| s.set_nonblocking(true).is_ok());
        let Some(stream) = stream else {
            Counters::add(&sh.stats.disconnects, 1);
            self.note_failure(&sh.stats);
            return false;
        };
        stream.set_nodelay(true).ok();
        Counters::add(&sh.stats.connects, 1);
        self.retry.success();
        self.cursor = 0;
        self.conn = Some(Conn {
            stream,
            hello_sent: 0,
            writable: true,
        });
        true
    }

    /// Flushes hello then queued frames until done or the socket would
    /// block. `Err(())` means the connection died (EOF, reset, write
    /// error).
    fn pump(&mut self, stats: &Counters, hello: &[u8]) -> Result<(), ()> {
        let Some(conn) = self.conn.as_mut().filter(|c| c.writable) else {
            return Ok(());
        };
        if !conn.alive() {
            return Err(());
        }
        while conn.hello_sent < hello.len() {
            let Some(n) = try_write(&mut conn.stream, &hello[conn.hello_sent..])? else {
                conn.writable = false;
                return Ok(());
            };
            conn.hello_sent += n;
            Counters::add(&stats.bytes_sent, n as u64);
        }
        while let Some(front) = self.queue.front() {
            let Some(n) = try_write(&mut conn.stream, &front[self.cursor..])? else {
                conn.writable = false;
                return Ok(());
            };
            self.cursor += n;
            Counters::add(&stats.bytes_sent, n as u64);
            if self.cursor == front.len() {
                self.queue.pop_front();
                self.cursor = 0;
                Counters::add(&stats.frames_sent, 1);
                stats.queued.fetch_sub(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// When the link next needs its loop without a socket event: the
    /// reconnect time, while a frame waits for a connection.
    fn deadline(&self) -> Option<Instant> {
        (self.conn.is_none() && !self.queue.is_empty() && !self.retry.is_dead())
            .then(|| self.retry.next_at().unwrap_or_else(Instant::now))
    }

    fn drop_conn(&mut self, stats: &Counters) {
        self.conn = None;
        self.cursor = 0; // resend the interrupted frame whole
        Counters::add(&stats.disconnects, 1);
        self.note_failure(stats);
    }

    fn note_failure(&mut self, stats: &Counters) {
        if self.retry.failure() {
            // Budget exhausted: shed the queue as disconnected. This
            // fires once — a dead link never advances again.
            let n = self.queue.len() as u64;
            self.queue.clear();
            self.cursor = 0;
            Counters::add(&stats.dropped_disconnected, n);
            stats.queued.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Tear down at kill/shutdown: whatever is still queued is
    /// abandoned, never silently lost from the identity.
    fn abandon(&mut self, stats: &Counters) {
        if self.conn.take().is_some() {
            Counters::add(&stats.disconnects, 1);
        }
        let n = self.queue.len() as u64;
        self.queue.clear();
        self.cursor = 0;
        Counters::add(&stats.abandoned, n);
        stats.queued.fetch_sub(n, Ordering::Relaxed);
    }
}

/// An accepted connection being decoded; `from` is set by its hello.
struct Inbound {
    stream: TcpStream,
    decoder: FrameDecoder,
    from: Option<NodeId>,
    /// `poll` reported it readable (or it was just accepted).
    ready: bool,
}

impl Inbound {
    /// Reads what the socket holds and decodes every complete frame
    /// into `frames`, attributed to the hello's sender. Returns false
    /// when the connection is finished: EOF, a read error, a first
    /// frame that is not a hello, or a corrupt length prefix (the
    /// decoder refuses to resynchronize, so the only safe move is to
    /// cut the connection and let retries re-cover).
    fn pull(
        &mut self,
        buf: &mut [u8],
        stats: &Counters,
        frames: &mut Vec<(NodeId, Vec<u8>)>,
    ) -> bool {
        let mut alive = true;
        loop {
            match self.stream.read(buf) {
                Ok(0) => {
                    alive = false;
                    break;
                }
                Ok(n) => {
                    Counters::add(&stats.bytes_received, n as u64);
                    self.decoder.push(&buf[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        loop {
            match self.decoder.next() {
                Ok(Some(payload)) => {
                    Counters::add(&stats.frames_received, 1);
                    match self.from {
                        Some(from) => frames.push((from, payload)),
                        None => match Frame::decode(&payload) {
                            Ok(Frame::Hello { node, .. }) => self.from = Some(node),
                            _ => return false,
                        },
                    }
                }
                Ok(None) => return alive,
                Err(_) => return false,
            }
        }
    }
}

/// Where a hosted peer is in its life.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Listening, reading, ticking.
    Up,
    /// Killed, or brought down by a panic: no sockets, protocol state
    /// kept for a restart.
    Down,
    /// A stop was seen: still serving, until no frame has arrived for
    /// `drain_quiet` since `last`.
    Draining { last: Instant },
    /// The drain window closed: flushing outbound queues until `until`,
    /// reading nothing.
    Flushing { until: Instant },
    /// Stopped for good.
    Done,
}

/// One peer on a host loop: the protocol core plus its sockets.
struct Hosted {
    node: PeerNode,
    me: NodeId,
    /// Pre-framed hello announcing this peer, sent first on every
    /// outbound connection.
    hello: Vec<u8>,
    listener: Option<TcpListener>,
    /// `poll` reported the listener readable.
    accept_ready: bool,
    inbound: Vec<Inbound>,
    links: HashMap<NodeId, Link>,
    /// Self-sends: effects addressed to this very node short-circuit
    /// here instead of dialing our own listener.
    local: VecDeque<Vec<u8>>,
    state: State,
}

impl Hosted {
    fn serving(&self) -> bool {
        matches!(self.state, State::Up | State::Draining { .. })
    }

    /// One pass of the loop over this peer: accept and read what
    /// `poll` flagged, fire due watches, deliver self-sends, move links
    /// along, and advance the stop sequence. Returns the earliest
    /// instant the peer needs the loop again without a socket event.
    fn step(&mut self, sh: &Shared) -> Option<Instant> {
        if self.serving() {
            self.accept_new(&sh.stats);
            self.read_inbound(sh);
            if let Some(due) = self.node.next_deadline() {
                let now = sh.now_us();
                if due <= now {
                    self.guarded(sh, |node| node.on_tick(now));
                }
            }
            while let Some(bytes) = self.local.pop_front() {
                self.dispatch(self.me, &bytes, sh);
            }
        }
        for link in self.links.values_mut() {
            link.advance(sh, &self.hello);
        }
        match self.state {
            State::Down | State::Done => return None,
            State::Draining { last } if Instant::now() >= last + sh.cfg.drain_quiet => {
                self.state = State::Flushing {
                    until: Instant::now() + FINAL_FLUSH,
                };
            }
            _ => {}
        }
        if let State::Flushing { until } = self.state {
            if Instant::now() >= until || self.links.values().all(|l| l.queue.is_empty()) {
                self.go_down(sh);
                return None;
            }
        }
        self.deadline(sh)
    }

    /// The earliest instant this peer needs its loop without a socket
    /// event: a watch falling due, a link's reconnect, or the end of
    /// the drain window or of the final flush.
    fn deadline(&self, sh: &Shared) -> Option<Instant> {
        let own = match self.state {
            State::Draining { last } => Some(last + sh.cfg.drain_quiet),
            State::Flushing { until } => Some(until),
            State::Up | State::Down | State::Done => None,
        };
        let watch = self
            .node
            .next_deadline()
            .filter(|_| self.serving())
            .map(|us| sh.epoch + Duration::from_micros(us));
        self.links
            .values()
            .filter_map(Link::deadline)
            .chain(own)
            .chain(watch)
            .min()
    }

    /// Adds this peer's sockets to its loop's poll set, each tagged
    /// with where `poll`'s answer goes back to (`p`: this peer's index
    /// on the loop).
    fn register(&self, p: usize, fds: &mut Vec<PollFd>, slots: &mut Vec<Slot>) {
        let mut push = |fd: c_int, events, slot| {
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            slots.push(slot);
        };
        if self.serving() {
            if let Some(listener) = &self.listener {
                push(listener.as_raw_fd(), POLLIN, Slot::Listener(p));
            }
            for (k, ib) in self.inbound.iter().enumerate() {
                push(ib.stream.as_raw_fd(), POLLIN, Slot::Inbound(p, k));
            }
        }
        for (&to, link) in &self.links {
            if let Some(conn) = link.conn.as_ref().filter(|c| !c.writable) {
                push(conn.stream.as_raw_fd(), POLLOUT, Slot::Link(p, to));
            }
        }
    }

    /// A stop was seen (framed from the front-end, or out-of-band).
    /// Restart the quiet clock so the peer keeps draining stragglers
    /// for at least `drain_quiet` — this is the ordering guarantee that
    /// no outcome already in flight is lost at teardown. A down peer
    /// has nothing to drain.
    fn stop(&mut self) {
        self.state = match self.state {
            State::Up | State::Draining { .. } => State::Draining {
                last: Instant::now(),
            },
            State::Down => State::Done,
            other => other,
        };
    }

    /// Network interface down: listener closed, address unpublished,
    /// every connection cut, queued frames abandoned. A volatile
    /// `PeerNode` — store, catalog, and retry watches — is untouched,
    /// exactly like the simulator's `fail`; a durable peer additionally
    /// loses its in-memory catalog to `PeerNode::crash` (process
    /// death), leaving only what its disk carries. A stopping peer is
    /// then done.
    fn go_down(&mut self, sh: &Shared) {
        sh.addrs.unpublish(self.me);
        self.listener = None;
        self.accept_ready = false;
        self.inbound.clear();
        for (_, mut link) in self.links.drain() {
            link.abandon(&sh.stats);
        }
        self.local.clear();
        // A node that just panicked may panic again here; it goes down
        // either way, and its loop-mates must not.
        let _ = catch_unwind(AssertUnwindSafe(|| self.node.crash()));
        self.state = match self.state {
            State::Up | State::Down => State::Down,
            _ => State::Done,
        };
    }

    /// Interface back up, on a fresh port. Watches that expired while
    /// down fire on the first tick after this. A durable peer first
    /// replays its WAL through `PeerNode::recover`; the resulting
    /// `rereg` frames flow through the normal enqueue path, so they
    /// enter the `SocketStats` identity like any other frame. A failed
    /// rebind leaves the peer down.
    fn come_up(&mut self, sh: &Shared) {
        if self.state != State::Down {
            return;
        }
        let Ok(listener) = TcpListener::bind("127.0.0.1:0") else {
            return;
        };
        let Ok(addr) = listener
            .set_nonblocking(true)
            .and_then(|()| listener.local_addr())
        else {
            return;
        };
        sh.addrs.publish(self.me, addr);
        self.listener = Some(listener);
        self.state = State::Up;
        let now = sh.now_us();
        self.guarded(sh, |node| node.recover(now));
    }

    fn accept_new(&mut self, stats: &Counters) {
        if !std::mem::take(&mut self.accept_ready) {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        Counters::add(&stats.disconnects, 1);
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    // Read at once: the hello is usually there already.
                    self.inbound.push(Inbound {
                        stream,
                        decoder: FrameDecoder::new(),
                        from: None,
                        ready: true,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_inbound(&mut self, sh: &Shared) {
        if !self.inbound.iter().any(|ib| ib.ready) {
            return;
        }
        let mut frames = Vec::new();
        let mut buf = [0u8; 16384];
        self.inbound.retain_mut(|ib| {
            !std::mem::take(&mut ib.ready) || ib.pull(&mut buf, &sh.stats, &mut frames)
        });
        for (from, payload) in frames {
            if !self.serving() {
                break; // a frame in this batch brought the peer down
            }
            self.dispatch(from, &payload, sh);
        }
    }

    fn dispatch(&mut self, from: NodeId, bytes: &[u8], sh: &Shared) {
        if let State::Draining { last } = &mut self.state {
            *last = Instant::now();
        }
        if Frame::kind(bytes) == "stop" {
            self.stop();
            return;
        }
        let now = sh.now_us();
        self.guarded(sh, |node| node.on_message(from, bytes, now));
    }

    /// Runs one protocol step and applies its effects. A panic in the
    /// step (`PeerNode` still panics on some malformed input) takes
    /// this peer down exactly like a kill; its loop-mates keep serving.
    fn guarded(&mut self, sh: &Shared, step: impl FnOnce(&mut PeerNode) -> Vec<Effect>) {
        let node = &mut self.node;
        match catch_unwind(AssertUnwindSafe(|| step(node))) {
            Ok(effects) => self.apply(effects, sh),
            Err(_) => self.go_down(sh),
        }
    }

    fn apply(&mut self, effects: Vec<Effect>, sh: &Shared) {
        for effect in effects {
            match effect {
                Effect::Send { to, bytes } => self.enqueue(to, bytes, sh),
                Effect::Ack { to, qid } => self.enqueue(to, Frame::Ack { qid }.encode(), sh),
                Effect::Complete(outcome) => {
                    let _ = sh.outcomes.send(outcome);
                }
                Effect::Retried { .. } => {
                    Counters::add(&sh.stats.retries, 1);
                }
                // The node's watch list is the timer state; the loop
                // reads `next_deadline`. Registrations and recovery
                // reports are already applied peer-side.
                Effect::SetTimer { .. } | Effect::Register(_) | Effect::Recovered(_) => {}
            }
        }
    }

    /// Queues a frame; the loop flushes it later in the same pass.
    fn enqueue(&mut self, to: NodeId, bytes: Vec<u8>, sh: &Shared) {
        let stats = &sh.stats;
        if to == self.me {
            Counters::add(&stats.frames_local, 1);
            self.local.push_back(bytes);
            return;
        }
        let link = self
            .links
            .entry(to)
            .or_insert_with(|| Link::new(to, &sh.cfg, self.me));
        // Every frame handed to the transport counts as enqueued, even
        // the ones dropped on the spot — that is what makes the balance
        // identity an identity.
        Counters::add(&stats.frames_enqueued, 1);
        if link.retry.is_dead() {
            Counters::add(&stats.dropped_disconnected, 1);
            return;
        }
        if link.queue.len() >= sh.cfg.write_queue_cap {
            Counters::add(&stats.dropped_backpressure, 1);
            return;
        }
        Counters::add(&stats.queued, 1);
        link.queue.push_back(encode_frame(&bytes));
    }
}

/// What a poll-set entry belongs to: the loop's wake socket, or a
/// hosted peer's (by index on the loop) listener, inbound connection
/// (by index) or outbound link (by destination).
#[derive(Clone, Copy)]
enum Slot {
    Wake,
    Listener(usize),
    Inbound(usize, usize),
    Link(usize, NodeId),
}

/// One host thread: every peer `i` with `i % L == k`, multiplexed over
/// one `poll(2)` set.
struct Loop {
    peers: Vec<Hosted>,
    /// Control messages, by peer index on this loop.
    ctl: Receiver<(usize, Ctl)>,
    /// Read end of the wake socket the cluster writes a byte to after
    /// each control message; `None` once the cluster handle is gone.
    wake: Option<UnixStream>,
    sh: Shared,
    /// The poll set, rebuilt every pass, and where each entry belongs.
    fds: Vec<PollFd>,
    slots: Vec<Slot>,
}

impl Loop {
    fn run(mut self) {
        loop {
            self.control();
            let deadline = self
                .peers
                .iter_mut()
                .filter_map(|peer| peer.step(&self.sh))
                .min();
            if self.peers.iter().all(|peer| peer.state == State::Done) {
                return;
            }
            self.fds.clear();
            self.slots.clear();
            if let Some(wake) = &self.wake {
                self.fds.push(PollFd {
                    fd: wake.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
                self.slots.push(Slot::Wake);
            }
            for (p, peer) in self.peers.iter().enumerate() {
                peer.register(p, &mut self.fds, &mut self.slots);
            }
            sys::wait(&mut self.fds, timeout_ms(deadline));
            self.mark_ready();
        }
    }

    /// Applies pending kill/restart/stop messages.
    fn control(&mut self) {
        loop {
            match self.ctl.try_recv() {
                Ok((p, ctl)) => {
                    let peer = &mut self.peers[p];
                    match ctl {
                        Ctl::Kill => {
                            if !matches!(peer.state, State::Down | State::Done) {
                                peer.go_down(&self.sh);
                            }
                        }
                        Ctl::Restart => peer.come_up(&self.sh),
                        Ctl::Stop => peer.stop(),
                    }
                }
                Err(TryRecvError::Empty) => return,
                Err(TryRecvError::Disconnected) => {
                    // The cluster handle is gone: nothing can ever
                    // restart or stop these peers cleanly, so drain and
                    // exit.
                    for peer in &mut self.peers {
                        if matches!(peer.state, State::Up | State::Down) {
                            peer.stop();
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Hands `poll`'s answers to the sockets they belong to; each
    /// peer's next `step` acts on them.
    fn mark_ready(&mut self) {
        for (fd, slot) in self.fds.iter().zip(&self.slots) {
            if fd.revents == 0 {
                continue;
            }
            match *slot {
                Slot::Wake => {
                    if !self.wake.as_mut().is_some_and(drain_wake) {
                        self.wake = None;
                    }
                }
                Slot::Listener(p) => self.peers[p].accept_ready = true,
                Slot::Inbound(p, k) => self.peers[p].inbound[k].ready = true,
                Slot::Link(p, to) => {
                    if let Some(conn) = self.peers[p]
                        .links
                        .get_mut(&to)
                        .and_then(|link| link.conn.as_mut())
                    {
                        conn.writable = true;
                    }
                }
            }
        }
    }
}

/// Empties the wake socket; false once the cluster's end is closed.
fn drain_wake(wake: &mut UnixStream) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match wake.read(&mut buf) {
            Ok(0) => return false,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// `poll`'s timeout for a deadline: whole milliseconds, rounded up so
/// the loop never wakes early and spins; -1 (block until a socket is
/// ready) when nothing is due.
fn timeout_ms(deadline: Option<Instant>) -> c_int {
    deadline.map_or(-1, |d| {
        let us = d.saturating_duration_since(Instant::now()).as_micros();
        us.div_ceil(1000).min(c_int::MAX as u128) as c_int
    })
}

/// The cluster's handle on one host loop.
struct LoopHandle {
    ctl: Sender<(usize, Ctl)>,
    /// Write end of the loop's wake socket.
    wake: UnixStream,
    thread: JoinHandle<()>,
}

/// A population of peers on real TCP sockets, each behind its own
/// loopback listener, hosted by `min(n, available_parallelism())`
/// `poll(2)` loops on OS threads named `mqp-tcp-loop-<k>` — plus a
/// connected [`TcpClient`] front-end at slot `n`.
pub struct TcpCluster {
    loops: Vec<LoopHandle>,
    stats: Arc<Counters>,
    n: usize,
}

impl TcpCluster {
    /// Spawns the host loops with default tuning. Peer `i` sits at node
    /// `i`; the [`TcpClient`] holds node `n`.
    pub fn new(peers: Vec<Peer>) -> (TcpCluster, TcpClient) {
        Self::with_config(peers, TcpConfig::default())
    }

    /// Spawns with explicit tuning.
    pub fn with_config(peers: Vec<Peer>, cfg: TcpConfig) -> (TcpCluster, TcpClient) {
        let n = peers.len();
        let directory = Arc::new(Directory::new(
            peers.iter().map(|p| p.id().clone()).collect(),
        ));
        let addrs = AddrTable::new(n + 1);
        let (tx, rx) = channel();
        let stats = Arc::new(Counters::default());
        let epoch = Instant::now();
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let mut hosted: Vec<Vec<Hosted>> = (0..n.min(cores)).map(|_| Vec::new()).collect();
        let stride = hosted.len();
        for (i, peer) in peers.into_iter().enumerate() {
            let id = peer.id().clone();
            let mut node = PeerNode::new(i, peer, Arc::clone(&directory));
            node.set_retry(cfg.retry);
            // Bind on the spawning thread so every peer is reachable
            // the moment the constructor returns.
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            addrs.publish(i, listener.local_addr().expect("listener addr"));
            hosted[i % stride].push(Hosted {
                node,
                me: i,
                hello: encode_frame(&Frame::Hello { node: i, id }.encode()),
                listener: Some(listener),
                accept_ready: false,
                inbound: Vec::new(),
                links: HashMap::new(),
                local: VecDeque::new(),
                state: State::Up,
            });
        }
        let loops = hosted
            .into_iter()
            .enumerate()
            .map(|(k, peers)| {
                let (ctl_tx, ctl_rx) = channel();
                let (wake_tx, wake_rx) = UnixStream::pair().expect("wake socket pair");
                wake_tx.set_nonblocking(true).expect("nonblocking wake");
                wake_rx.set_nonblocking(true).expect("nonblocking wake");
                let host = Loop {
                    peers,
                    ctl: ctl_rx,
                    wake: Some(wake_rx),
                    sh: Shared {
                        addrs: addrs.clone(),
                        outcomes: tx.clone(),
                        stats: Arc::clone(&stats),
                        cfg: cfg.clone(),
                        epoch,
                    },
                    fds: Vec::new(),
                    slots: Vec::new(),
                };
                let thread = std::thread::Builder::new()
                    .name(format!("mqp-tcp-loop-{k}"))
                    .spawn(move || host.run())
                    .expect("spawn tcp host loop");
                LoopHandle {
                    ctl: ctl_tx,
                    wake: wake_tx,
                    thread,
                }
            })
            .collect();
        let client = TcpClient {
            me: n,
            addrs,
            streams: HashMap::new(),
            outcomes: rx,
            next_qid: 0,
            seen: HashSet::new(),
            connect_timeout: cfg.connect_timeout,
        };
        (TcpCluster { loops, stats, n }, client)
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the cluster has no peers.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sends a control message to peer `i`'s loop and wakes the loop.
    fn control(&self, i: NodeId, ctl: Ctl) {
        let stride = self.loops.len();
        let host = &self.loops[i % stride];
        let _ = host.ctl.send((i / stride, ctl));
        // A write that would block finds the wake socket full, which
        // already guarantees a wake-up.
        let _ = (&host.wake).write(&[1]);
    }

    /// Cuts peer `i` off the network (listener closed, connections
    /// dropped, queues abandoned). A volatile peer's protocol state
    /// survives; a durable peer loses its in-memory catalog and keeps
    /// only what its disk carries.
    pub fn kill(&self, i: NodeId) {
        self.control(i, Ctl::Kill);
    }

    /// Brings a killed peer back on a fresh port; a durable peer
    /// replays its WAL and re-registers surviving bindings first.
    pub fn restart(&self, i: NodeId) {
        self.control(i, Ctl::Restart);
    }

    /// Socket accounting so far.
    pub fn stats(&self) -> SocketStats {
        self.stats.snapshot()
    }

    /// Frames currently sitting in write queues (the `queued` term of
    /// [`SocketStats::balances`]; zero after a drained shutdown).
    pub fn queued(&self) -> u64 {
        self.stats.queued.load(Ordering::Relaxed)
    }

    /// Stops every peer — framed `stop`s first so each peer drains
    /// in-flight frames behind them in order, out-of-band stops as the
    /// backstop for peers currently killed — and joins the host loops.
    pub fn shutdown(self, client: &mut TcpClient) -> SocketStats {
        for i in 0..self.n {
            let _ = client.stop(i);
        }
        for i in 0..self.n {
            self.control(i, Ctl::Stop);
        }
        for host in self.loops {
            let _ = host.thread.join();
        }
        self.stats.snapshot()
    }
}

/// The socket front-end: submits plans over real TCP connections and
/// collects [`QueryOutcome`]s. API-compatible with
/// [`MqpClient`](crate::cluster::MqpClient).
pub struct TcpClient {
    me: NodeId,
    addrs: AddrTable,
    streams: HashMap<NodeId, TcpStream>,
    outcomes: Receiver<QueryOutcome>,
    next_qid: u64,
    /// Outcome dedup: under retries the same query can complete twice.
    seen: HashSet<QueryId>,
    connect_timeout: Duration,
}

impl TcpClient {
    fn stream_to(&mut self, node: NodeId) -> std::io::Result<&mut TcpStream> {
        if !self.streams.contains_key(&node) {
            let addr = self.addrs.get(node).ok_or_else(|| {
                std::io::Error::new(ErrorKind::NotConnected, format!("peer {node} is down"))
            })?;
            let mut stream = TcpStream::connect_timeout(&addr, self.connect_timeout)?;
            stream.set_nodelay(true).ok();
            let hello = Frame::Hello {
                node: self.me,
                id: ServerId::new(format!("front-end-{}", self.me)),
            };
            stream.write_all(&encode_frame(&hello.encode()))?;
            self.streams.insert(node, stream);
        }
        Ok(self.streams.get_mut(&node).expect("stream just inserted"))
    }

    fn send_frame(&mut self, node: NodeId, frame: &Frame) -> bool {
        let bytes = encode_frame(&frame.encode());
        // One reconnect attempt: the cached stream may point at a dead
        // incarnation of a restarted peer.
        for _ in 0..2 {
            match self.stream_to(node).and_then(|s| s.write_all(&bytes)) {
                Ok(()) => return true,
                Err(_) => {
                    self.streams.remove(&node);
                }
            }
        }
        false
    }

    /// Submits `plan` at worker `client` (the peer that becomes the
    /// query's client). Returns the query id; the outcome arrives later
    /// via [`TcpClient::poll`] / [`TcpClient::collect`].
    pub fn submit(&mut self, client: NodeId, plan: &Plan) -> QueryId {
        let qid = QueryId::new(self.next_qid);
        self.next_qid += 1;
        let frame = Frame::Submit {
            qid,
            plan: Mqp::without_original(plan.clone()).to_wire(),
        };
        assert!(self.send_frame(client, &frame), "worker {client} is gone");
        qid
    }

    /// Best-effort framed stop to one worker; false if unreachable
    /// (e.g. currently killed — `TcpCluster::shutdown` covers that out
    /// of band).
    pub fn stop(&mut self, node: NodeId) -> bool {
        self.send_frame(node, &Frame::Stop)
    }

    /// Pushes a policy rule set to one worker over its socket (hot
    /// reload); false if unreachable. In-flight queries keep their
    /// accounting; the worker's next processing step sees the rules.
    pub fn push_policy(&mut self, node: NodeId, rules: &mqp_core::RuleSet) -> bool {
        self.send_frame(node, &Frame::Policy(rules.clone()))
    }

    /// Delivers a catalog registration to one worker over its socket —
    /// the same `Register` wire frame the simulator's
    /// `send_registration` ships, so adversarial registration schedules
    /// run identically on every driver. Returns `false` if unreachable.
    pub fn register(&mut self, node: NodeId, entry: &mqp_catalog::CatalogEntry) -> bool {
        self.send_frame(node, &Frame::Register(entry.clone()))
    }

    /// Non-blocking: the next completed outcome, if any.
    pub fn poll(&mut self) -> Option<QueryOutcome> {
        loop {
            let outcome = self.outcomes.try_recv().ok()?;
            if self.seen.insert(outcome.qid) {
                return Some(outcome);
            }
        }
    }

    /// Blocking: collects `n` distinct outcomes or gives up after
    /// `timeout` without progress.
    pub fn collect(&mut self, n: usize, timeout: Duration) -> Vec<QueryOutcome> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.outcomes.recv_timeout(timeout) {
                Ok(outcome) => {
                    if self.seen.insert(outcome.qid) {
                        out.push(outcome);
                    }
                }
                Err(_) => break,
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqp_namespace::{Hierarchy, InterestArea, Namespace, Urn};
    use mqp_xml::parse;

    fn ns() -> Namespace {
        Namespace::new([
            Hierarchy::new("Location").with(["USA/OR/Portland"]),
            Hierarchy::new("Merchandise").with(["Music/CDs"]),
        ])
    }

    fn pdx_cds() -> InterestArea {
        InterestArea::parse(&[&["USA/OR/Portland", "Music/CDs"]])
    }

    fn world() -> Vec<Peer> {
        let client = Peer::new("client", ns()).with_default_route("meta");
        let mut meta = Peer::new("meta", ns());
        let mut s1 = Peer::new("seller-1", ns());
        s1.add_collection(
            "cds",
            pdx_cds(),
            [
                parse("<item><title>A</title><price>8</price></item>").unwrap(),
                parse("<item><title>B</title><price>12</price></item>").unwrap(),
            ],
        );
        let mut s2 = Peer::new("seller-2", ns());
        s2.add_collection(
            "cds",
            pdx_cds(),
            [parse("<item><title>C</title><price>9</price></item>").unwrap()],
        );
        meta.catalog_mut().register(s1.base_entry());
        meta.catalog_mut().register(s2.base_entry());
        vec![client, meta, s1, s2]
    }

    #[test]
    fn end_to_end_over_real_sockets() {
        let (cluster, mut client) = TcpCluster::new(world());
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        let qid = client.submit(0, &plan);
        let done = client.collect(1, Duration::from_secs(10));
        assert_eq!(done.len(), 1);
        let q = &done[0];
        assert_eq!(q.qid, qid);
        assert!(q.failure.is_none(), "{:?}", q.failure);
        let mut titles: Vec<String> = q.items.iter().filter_map(|i| i.field("title")).collect();
        titles.sort();
        assert_eq!(titles, ["A", "C"]);
        assert!(q.hops >= 3);
        let stats = cluster.shutdown(&mut client);
        assert!(stats.frames_sent > 0);
        assert!(stats.bytes_sent > 0);
        assert!(stats.frames_received > 0);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    #[test]
    fn many_concurrent_queries_all_complete() {
        let (cluster, mut client) = TcpCluster::new(world());
        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        let qids: Vec<QueryId> = (0..24).map(|_| client.submit(0, &plan)).collect();
        let done = client.collect(qids.len(), Duration::from_secs(10));
        assert_eq!(done.len(), qids.len());
        let mut got: Vec<QueryId> = done.iter().map(|q| q.qid).collect();
        got.sort();
        assert_eq!(got, qids);
        for q in &done {
            assert!(q.failure.is_none(), "{:?}", q.failure);
            assert_eq!(q.items.len(), 2);
        }
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    /// The shutdown-ordering guarantee: submissions and a stop sent
    /// back-to-back on one connection must all land — the stop drains
    /// behind the submissions, every self-routed delivery included, so
    /// outcomes survive an immediate teardown.
    #[test]
    fn stop_drains_behind_submissions() {
        let mut solo = Peer::new("solo", ns());
        solo.add_collection(
            "cds",
            pdx_cds(),
            [parse("<item><title>A</title><price>8</price></item>").unwrap()],
        );
        let (cluster, mut client) = TcpCluster::new(vec![solo]);
        assert_eq!(cluster.loops.len(), 1, "never more loops than peers");
        let k = 8;
        for _ in 0..k {
            client.submit(0, &Plan::url("mqp://solo/"));
        }
        // No collect before shutdown: every delivery is still a
        // self-send queued behind the stop when it arrives.
        let stats = cluster.shutdown(&mut client);
        let done = client.collect(k, Duration::from_millis(100));
        assert_eq!(done.len(), k, "outcomes lost at teardown");
        assert!(stats.frames_local >= k as u64);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    /// A frame that panics one peer's protocol core takes down that
    /// peer alone, like a kill: its loop-mates keep serving and the
    /// accounting identity still holds at shutdown.
    #[test]
    fn panicking_peer_takes_down_only_itself() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        // Peer `i` runs on loop `i % cores` once there are more peers
        // than cores: the victim shares the client's loop (loop 0).
        let victim = 4usize.div_ceil(cores) * cores;
        let mut peers = world();
        peers.extend((peers.len()..=victim).map(|i| Peer::new(format!("idle-{i}"), ns())));
        let (cluster, mut client) = TcpCluster::new(peers);
        assert_eq!(cluster.loops.len(), cores, "one host loop per core");

        let addr = client.addrs.get(victim).expect("victim is up");
        let mut raw = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            node: cluster.len(),
            id: ServerId::new("intruder"),
        };
        raw.write_all(&encode_frame(&hello.encode())).unwrap();
        raw.write_all(&encode_frame(b"\xffnot a frame")).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while client.addrs.get(victim).is_some() {
            assert!(Instant::now() < deadline, "the bad frame never landed");
            std::thread::yield_now();
        }

        let plan = Plan::select(
            "price < 10",
            Plan::Urn(mqp_algebra::plan::UrnRef::new(Urn::area(pdx_cds()))),
        );
        let qids: Vec<QueryId> = (0..4).map(|_| client.submit(0, &plan)).collect();
        let done = client.collect(qids.len(), Duration::from_secs(10));
        assert_eq!(done.len(), qids.len(), "a loop-mate stopped serving");
        for q in &done {
            assert!(q.failure.is_none(), "{:?}", q.failure);
            assert_eq!(q.items.len(), 2);
        }
        let stats = cluster.shutdown(&mut client);
        assert!(stats.balances(0), "unbalanced: {stats:?}");
    }

    #[test]
    fn poll_is_nonblocking_and_dedups() {
        let (cluster, mut client) = TcpCluster::new(world());
        assert!(client.poll().is_none());
        let qid = client.submit(0, &Plan::url("mqp://seller-2/"));
        let deadline = Instant::now() + Duration::from_secs(10);
        let outcome = loop {
            if let Some(o) = client.poll() {
                break o;
            }
            assert!(Instant::now() < deadline, "query never completed");
            std::thread::yield_now();
        };
        assert_eq!(outcome.qid, qid);
        cluster.shutdown(&mut client);
    }
}
