//! Pluggable byte transports: the real wire under the protocol.
//!
//! A [`Transport`] is one endpoint of a bidirectional, multiplexed
//! link between two parties. It carries [`crate::wire`] frames —
//! nothing else — and demultiplexes received frames by
//! `(msg_type, tag)`, so many workers can share one link and rounds
//! belonging to different pair-space chunks interleave safely, with
//! every message serialised to explicit bytes and **byte-counted**.
//!
//! Two backends:
//!
//! * [`InMemoryTransport`] — an unbounded in-process queue of encoded
//!   frames; the default wire of the message-passing runtime. Frames
//!   are genuinely encoded on send and decoded on receive, so the
//!   codec round-trips under the full protocol load of every runtime
//!   test.
//! * [`TcpTransport`] — `std::net` sockets (no new dependencies):
//!   length-prefixed frames over one TCP connection, with configurable
//!   `TCP_NODELAY` and buffer sizes ([`TcpConfig`]). A dedicated
//!   writer thread drains an unbounded queue so that two parties
//!   simultaneously sending multi-megabyte offline flights can never
//!   deadlock on full kernel socket buffers.
//!
//! Both endpoints keep [`WireStats`] counters. Payload bytes are
//! bucketed by protocol phase ([`crate::wire::is_online_msg`]): the
//! online bucket is exactly what the modeled [`crate::NetStats`]
//! ledger counts, which is what makes the measured-equals-modeled
//! invariant checkable (DESIGN.md §8).
//!
//! Disconnects surface as [`RecvError::Disconnected`] (never a hang);
//! a wedged peer is caught by `recv` deadlines ([`RecvError::
//! Timeout`], default [`DEFAULT_RECV_TIMEOUT`] in the runtime); bytes
//! that fail the wire codec's checksum surface as
//! [`RecvError::Corrupt`] — three typed exits, no silent corruption.
//!
//! For reproducible failure testing, [`FaultyTransport`] wraps any
//! backend and injects faults from a seeded, frame-indexed
//! [`FaultPlan`] — the same chaos engine the test suites and the
//! `party --fault-plan` knob share.

use crate::channel::{KeyedDemux, RecvError, DEMUX_POLL};
use crate::wire::{is_offline_msg, is_online_msg, Frame, WireError, WireMessage, FRAME_HEADER_BYTES};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the protocol runtimes wait for a peer's next frame before
/// declaring it wedged. Generous — inter-message gaps are bounded by
/// one flight's local compute (milliseconds at any tested size) — so a
/// trip means a dead or deadlocked peer, and the run fails loudly
/// instead of hanging a worker forever.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(120);

/// Snapshot of one endpoint's byte counters.
///
/// `sent + recv` of any bucket covers **both directions** of the link,
/// which matches the bidirectional convention of the modeled
/// [`crate::NetStats`] (one `exchange` counts both ways) — so a single
/// party process can check measured == modeled without seeing the
/// peer's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames this endpoint sent.
    pub frames_sent: u64,
    /// Frames this endpoint received.
    pub frames_recv: u64,
    /// Total bytes sent, headers included.
    pub bytes_sent: u64,
    /// Total bytes received, headers included.
    pub bytes_recv: u64,
    /// Payload bytes of online-phase frames sent (openings + final
    /// opening) — the modeled quantity.
    pub online_payload_sent: u64,
    /// Payload bytes of online-phase frames received.
    pub online_payload_recv: u64,
    /// Payload bytes of offline-phase frames sent.
    pub offline_payload_sent: u64,
    /// Payload bytes of offline-phase frames received.
    pub offline_payload_recv: u64,
}

impl WireStats {
    /// Online payload bytes, both directions — the number the
    /// equivalence suites pin to `NetStats::online().bytes` exactly.
    pub fn online_payload_both(&self) -> u64 {
        self.online_payload_sent + self.online_payload_recv
    }

    /// Offline payload bytes, both directions (equals the modeled
    /// flight ledger; the base-OT setup never crosses this wire).
    pub fn offline_payload_both(&self) -> u64 {
        self.offline_payload_sent + self.offline_payload_recv
    }

    /// All bytes this endpoint moved, headers included — the *real*
    /// wire footprint (reported alongside, never conflated with, the
    /// modeled payload numbers).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_recv
    }
}

/// Shared atomic counters behind [`WireStats`].
#[derive(Debug, Default)]
struct Counters {
    frames_sent: AtomicU64,
    frames_recv: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    online_payload_sent: AtomicU64,
    online_payload_recv: AtomicU64,
    offline_payload_sent: AtomicU64,
    offline_payload_recv: AtomicU64,
}

impl Counters {
    fn record(&self, msg_type: u8, wire_len: usize, payload_len: usize, sent: bool) {
        let (frames, bytes, online, offline) = if sent {
            (
                &self.frames_sent,
                &self.bytes_sent,
                &self.online_payload_sent,
                &self.offline_payload_sent,
            )
        } else {
            (
                &self.frames_recv,
                &self.bytes_recv,
                &self.online_payload_recv,
                &self.offline_payload_recv,
            )
        };
        frames.fetch_add(1, Ordering::Relaxed);
        bytes.fetch_add(wire_len as u64, Ordering::Relaxed);
        if is_online_msg(msg_type) {
            online.fetch_add(payload_len as u64, Ordering::Relaxed);
        } else if is_offline_msg(msg_type) {
            offline.fetch_add(payload_len as u64, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> WireStats {
        WireStats {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            online_payload_sent: self.online_payload_sent.load(Ordering::Relaxed),
            online_payload_recv: self.online_payload_recv.load(Ordering::Relaxed),
            offline_payload_sent: self.offline_payload_sent.load(Ordering::Relaxed),
            offline_payload_recv: self.offline_payload_recv.load(Ordering::Relaxed),
        }
    }
}

/// One endpoint of a framed, multiplexed, byte-counted party↔party
/// link. Implementations are shared by all of a server's workers via
/// `Arc`; `send` never blocks on the peer, `recv` demultiplexes by
/// `(msg_type, tag)` and fails loudly on disconnect or deadline.
pub trait Transport: Send + Sync {
    /// Serialises and sends one frame. `Err(Disconnected)` once the
    /// peer endpoint is gone; `Err(Corrupt(BadLength))` — with nothing
    /// written to the link — for a frame the peer's decoder would
    /// refuse ([`Frame::try_encode`]).
    fn send(&self, frame: &Frame) -> Result<(), RecvError>;

    /// Blocks until the next frame of `msg_type` under `tag` arrives
    /// (at most `timeout`; `None` blocks until disconnect).
    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError>;

    /// Snapshot of this endpoint's byte counters.
    fn stats(&self) -> WireStats;

    /// Shuts this endpoint down *abortively*: subsequent sends fail
    /// with [`RecvError::Disconnected`], and the peer's blocked
    /// receives observe the disconnect promptly. Idempotent. Unlike
    /// dropping the endpoint, `close` works through a shared reference
    /// — callers holding an `Arc` can end the link explicitly instead
    /// of hoping the last handle dies.
    fn close(&self);

    /// The stall bound the protocol runtimes use for this link's
    /// receives (how long a missing frame means "peer wedged").
    /// Backends surface a configurable value; the default is
    /// [`DEFAULT_RECV_TIMEOUT`].
    fn recv_timeout(&self) -> Duration {
        DEFAULT_RECV_TIMEOUT
    }
}

/// Sends a typed message over `link` (via its wire frame).
pub fn send_msg<T: Transport + ?Sized, M: WireMessage>(link: &T, msg: &M) -> Result<(), RecvError> {
    link.send(&msg.to_frame())
}

/// Receives and decodes the next `M` under `tag`. A frame whose bytes
/// pass the checksum but fail the typed decode (wrong payload shape
/// for the message type) still surfaces as [`RecvError::Corrupt`] —
/// a clean typed error, never a panic, never garbage ring words.
pub fn recv_msg<T: Transport + ?Sized, M: WireMessage>(
    link: &T,
    tag: u32,
    timeout: Option<Duration>,
) -> Result<M, RecvError> {
    let frame = link.recv(M::MSG_TYPE, tag, timeout)?;
    M::from_frame(&frame).map_err(RecvError::Corrupt)
}

// ---------------------------------------------------------------------------
// In-memory backend
// ---------------------------------------------------------------------------

/// The in-process byte transport: an unbounded queue of **encoded**
/// frames between the two endpoints of [`memory_pair`]. Every frame is
/// serialised on send and parsed on receive — the codec is on the hot
/// path, not beside it — and byte-counted exactly like the TCP
/// backend, so in-memory runs measure the same wire the deployment
/// would.
pub struct InMemoryTransport {
    /// `None` once this endpoint was explicitly [`Transport::close`]d:
    /// dropping the sender wakes the peer's blocked receive with a
    /// disconnect, with no reliance on the whole endpoint `Arc` dying.
    tx: Mutex<Option<mpsc::Sender<Vec<u8>>>>,
    rx: Mutex<mpsc::Receiver<Vec<u8>>>,
    /// Shared by both endpoints of the pair and set by either's
    /// [`Transport::close`]: the *link* is down, not one direction —
    /// the peer's sends fail too, matching `TcpTransport::close`'s
    /// `Shutdown::Both` (frames already queued still drain).
    closed: Arc<AtomicBool>,
    demux: KeyedDemux<(u8, u32), Frame>,
    counters: Counters,
    recv_timeout: Duration,
}

/// Creates the two connected endpoints of an in-memory link.
pub fn memory_pair() -> (InMemoryTransport, InMemoryTransport) {
    memory_pair_with_timeout(DEFAULT_RECV_TIMEOUT)
}

/// [`memory_pair`] with an explicit per-link receive stall bound
/// (surfaced to the runtimes via [`Transport::recv_timeout`]).
pub fn memory_pair_with_timeout(
    recv_timeout: Duration,
) -> (InMemoryTransport, InMemoryTransport) {
    let (tx_ab, rx_ab) = mpsc::channel();
    let (tx_ba, rx_ba) = mpsc::channel();
    let closed = Arc::new(AtomicBool::new(false));
    let end = |tx, rx| InMemoryTransport {
        tx: Mutex::new(Some(tx)),
        rx: Mutex::new(rx),
        closed: Arc::clone(&closed),
        demux: KeyedDemux::new(),
        counters: Counters::default(),
        recv_timeout,
    };
    (end(tx_ab, rx_ba), end(tx_ba, rx_ab))
}

impl InMemoryTransport {
    fn pull(&self, slice: Option<Duration>) -> Result<((u8, u32), Frame), RecvError> {
        let rx = self.rx.lock().expect("transport poisoned");
        let bytes = match slice {
            None => rx.recv().map_err(|_| RecvError::Disconnected)?,
            Some(d) => rx.recv_timeout(d).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvError::Disconnected,
            })?,
        };
        drop(rx);
        let wire_len = bytes.len();
        let frame = Frame::decode_owned(bytes).map_err(RecvError::Corrupt)?;
        self.counters
            .record(frame.msg_type, wire_len, frame.payload.len(), false);
        Ok(((frame.msg_type, frame.tag), frame))
    }
}

impl Transport for InMemoryTransport {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        if self.closed.load(Ordering::Acquire) {
            return Err(RecvError::Disconnected);
        }
        let bytes = frame.try_encode().map_err(RecvError::Corrupt)?;
        match &*self.tx.lock().expect("transport poisoned") {
            Some(tx) => {
                self.counters
                    .record(frame.msg_type, bytes.len(), frame.payload.len(), true);
                tx.send(bytes).map_err(|_| RecvError::Disconnected)
            }
            None => Err(RecvError::Disconnected),
        }
    }

    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let poll = deadline.map(|_| DEMUX_POLL);
        self.demux
            .recv_with((msg_type, tag), deadline, || self.pull(poll))
    }

    fn stats(&self) -> WireStats {
        self.counters.snapshot()
    }

    fn close(&self) {
        // Mark the whole link down first (the peer's sends must fail,
        // like a TCP Shutdown::Both), then drop the sender: the peer's
        // pending frames still drain, then its receives see
        // Disconnected.
        self.closed.store(true, Ordering::Release);
        *self.tx.lock().expect("transport poisoned") = None;
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }
}

// ---------------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------------

/// Socket knobs of the [`TcpTransport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Disable Nagle's algorithm (`TCP_NODELAY`). On by default: the
    /// protocol's rounds are latency-bound request/response slabs, the
    /// classic case Nagle hurts.
    pub nodelay: bool,
    /// Userspace read/write buffer capacity in bytes.
    pub buffer: usize,
    /// How long [`TcpTransport::connect`] keeps retrying before giving
    /// up (the peer's listener may come up a moment later).
    pub connect_timeout: Duration,
    /// Per-link receive stall bound surfaced to the runtimes via
    /// [`Transport::recv_timeout`], and the mid-frame stall bound of
    /// the reader (a peer that dies mid-frame leaves a desyncable
    /// stream — fatal after this long).
    pub recv_timeout: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            nodelay: true,
            buffer: 256 * 1024,
            connect_timeout: Duration::from_secs(10),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
        }
    }
}

/// A [`Transport`] over one `std::net` TCP connection.
///
/// Writes go through a dedicated writer thread draining an unbounded
/// queue: `send` enqueues the encoded frame and returns, so two
/// parties pushing large offline flights at each other can never
/// deadlock on full kernel socket buffers (each side keeps reading
/// while its writer drains). Dropping the endpoint joins the writer,
/// which guarantees every queued frame is flushed before the process
/// exits.
pub struct TcpTransport {
    writer_tx: Mutex<Option<mpsc::Sender<Vec<u8>>>>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    reader: Mutex<BufReader<TcpStream>>,
    /// A clone of the socket kept aside so [`Transport::close`] can
    /// shut it down without contending on the reader lock (which a
    /// pump may hold mid-frame).
    stream: TcpStream,
    demux: KeyedDemux<(u8, u32), Frame>,
    counters: Counters,
    recv_timeout: Duration,
}

impl TcpTransport {
    fn from_stream(stream: TcpStream, cfg: &TcpConfig) -> std::io::Result<Self> {
        stream.set_nodelay(cfg.nodelay)?;
        // The read half always polls in DEMUX_POLL slices; frame reads
        // keep their own progress across poll expiries (read_full), so
        // the timeout can never tear a frame — it only lets waiters
        // notice deadlines and lets a mid-frame stall trip the
        // configured recv_timeout bound instead of hanging forever.
        stream.set_read_timeout(Some(DEMUX_POLL))?;
        let read_half = stream.try_clone()?;
        let close_handle = stream.try_clone()?;
        let mut writer = BufWriter::with_capacity(cfg.buffer, stream);
        let (writer_tx, writer_rx) = mpsc::channel::<Vec<u8>>();
        let writer = std::thread::spawn(move || {
            // Drain until every sender handle is gone; a write error
            // means the peer vanished — stop, the reader side will
            // surface Disconnected.
            while let Ok(bytes) = writer_rx.recv() {
                if writer.write_all(&bytes).and_then(|()| writer.flush()).is_err() {
                    return;
                }
            }
        });
        Ok(TcpTransport {
            writer_tx: Mutex::new(Some(writer_tx)),
            writer: Mutex::new(Some(writer)),
            reader: Mutex::new(BufReader::with_capacity(cfg.buffer, read_half)),
            stream: close_handle,
            demux: KeyedDemux::new(),
            counters: Counters::default(),
            recv_timeout: cfg.recv_timeout,
        })
    }

    /// Accepts one connection on `listener` and wraps it.
    pub fn accept_on(listener: &TcpListener, cfg: &TcpConfig) -> std::io::Result<Self> {
        let (stream, _) = listener.accept()?;
        Self::from_stream(stream, cfg)
    }

    /// Connects to a listening peer, retrying (the peer may not be up
    /// yet) until `cfg.connect_timeout` elapses. The retry schedule is
    /// deterministic exponential backoff — 50 ms doubling to a 2 s
    /// ceiling — with one stderr line per failed attempt, so a
    /// reconnecting party neither hammers a rebooting peer nor waits
    /// silently.
    pub fn connect<A: ToSocketAddrs + Clone>(addr: A, cfg: &TcpConfig) -> std::io::Result<Self> {
        const BACKOFF_START: Duration = Duration::from_millis(50);
        const BACKOFF_CAP: Duration = Duration::from_secs(2);
        let deadline = Instant::now() + cfg.connect_timeout;
        let mut attempt = 0u32;
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::from_stream(stream, cfg),
                Err(e) => {
                    let backoff =
                        BACKOFF_CAP.min(BACKOFF_START * 2u32.saturating_pow(attempt));
                    attempt += 1;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    eprintln!(
                        "[tcp] connect attempt {attempt} failed ({e}); retrying in {} ms",
                        backoff.as_millis()
                    );
                    std::thread::sleep(backoff.min(deadline - now));
                }
            }
        }
    }

    /// Creates a connected loopback pair on an ephemeral `127.0.0.1`
    /// port — real sockets, one process (the `--transport tcp`
    /// in-process shape; the two-process shape is the `party` binary).
    pub fn loopback_pair(cfg: &TcpConfig) -> std::io::Result<(Self, Self, SocketAddr)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // The kernel's accept backlog holds the connection, so a
        // single thread can connect and then accept.
        let client = TcpStream::connect(addr)?;
        let server = Self::accept_on(&listener, cfg)?;
        Ok((server, Self::from_stream(client, cfg)?, addr))
    }

    /// Fills `buf` completely, retaining progress across poll-timeout
    /// expiries (the socket's read timeout is [`DEMUX_POLL`]; `std`'s
    /// `read_exact` would lose already-copied bytes on the first
    /// `WouldBlock`). A stall longer than `stall` mid-frame means a
    /// dead or wedged peer on a desyncable stream — fatal, reported as
    /// `Disconnected`.
    fn read_full(
        reader: &mut BufReader<TcpStream>,
        buf: &mut [u8],
        started: Instant,
        stall: Duration,
    ) -> Result<(), RecvError> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match reader.read(&mut buf[filled..]) {
                Ok(0) => return Err(RecvError::Disconnected),
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if started.elapsed() > stall {
                        return Err(RecvError::Disconnected);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return Err(RecvError::Disconnected),
            }
        }
        Ok(())
    }

    fn pull(&self, slice: Option<Duration>) -> Result<((u8, u32), Frame), RecvError> {
        let mut reader = self.reader.lock().expect("transport poisoned");
        // Honour the poll slice without ever tearing a frame: wait for
        // the first header byte via peek (which consumes nothing, and
        // times out after the socket's DEMUX_POLL read timeout), then
        // read the frame with progress-retaining reads.
        if slice.is_some() && reader.buffer().is_empty() {
            let mut probe = [0u8; 1];
            match reader.get_ref().peek(&mut probe) {
                Ok(0) => return Err(RecvError::Disconnected),
                Ok(_) => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(RecvError::Timeout)
                }
                Err(_) => return Err(RecvError::Disconnected),
            }
        }
        let started = Instant::now();
        let mut header = [0u8; FRAME_HEADER_BYTES];
        Self::read_full(&mut reader, &mut header, started, self.recv_timeout)?;
        let payload_len =
            u32::from_le_bytes([header[20], header[21], header[22], header[23]]) as usize;
        // Validate the untrusted length BEFORE allocating: a desynced
        // or hostile stream must fail loudly, not drive a multi-GB
        // zero-fill.
        if payload_len > crate::wire::MAX_FRAME_PAYLOAD_BYTES {
            return Err(RecvError::Corrupt(WireError::BadLength {
                what: "TCP peer announced a payload exceeding MAX_FRAME_PAYLOAD_BYTES",
                len: payload_len,
            }));
        }
        let mut bytes = Vec::with_capacity(FRAME_HEADER_BYTES + payload_len);
        bytes.extend_from_slice(&header);
        bytes.resize(FRAME_HEADER_BYTES + payload_len, 0);
        Self::read_full(
            &mut reader,
            &mut bytes[FRAME_HEADER_BYTES..],
            started,
            self.recv_timeout,
        )?;
        let wire_len = bytes.len();
        let frame = Frame::decode_owned(bytes).map_err(RecvError::Corrupt)?;
        self.counters
            .record(frame.msg_type, wire_len, frame.payload.len(), false);
        Ok(((frame.msg_type, frame.tag), frame))
    }
}

impl Transport for TcpTransport {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        let bytes = frame.try_encode().map_err(RecvError::Corrupt)?;
        self.counters
            .record(frame.msg_type, bytes.len(), frame.payload.len(), true);
        match &*self.writer_tx.lock().expect("transport poisoned") {
            Some(tx) => tx.send(bytes).map_err(|_| RecvError::Disconnected),
            None => Err(RecvError::Disconnected),
        }
    }

    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        // Always poll in slices so the pump can notice deadlines; with
        // no deadline the slices just repeat forever.
        self.demux
            .recv_with((msg_type, tag), deadline, || self.pull(Some(DEMUX_POLL)))
    }

    fn stats(&self) -> WireStats {
        self.counters.snapshot()
    }

    fn close(&self) {
        // Abortive: cut the queue (subsequent sends fail; the writer
        // drains what it already has and exits) and shut the socket
        // down so both this endpoint's and the peer's blocked reads
        // observe EOF promptly. Drop still joins the writer.
        *self.writer_tx.lock().expect("transport poisoned") = None;
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Close the queue, then join the writer so every queued frame
        // reaches the socket before this endpoint disappears (a party
        // may exit right after receiving the peer's final opening —
        // its own final opening must still flush).
        *self.writer_tx.lock().expect("transport poisoned") = None;
        if let Some(handle) = self.writer.lock().expect("transport poisoned").take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// One scheduled fault of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Close the link instead of performing the indexed frame event —
    /// the "kill -9 after frame N" of the chaos suites.
    Disconnect,
    /// Sleep this long before performing the indexed frame event.
    Delay(Duration),
    /// Deliver the indexed frame with one seeded bit flipped in its
    /// wire bytes (applies when the event is a delivery; see
    /// [`FaultyTransport`]).
    Corrupt,
    /// Deliver the indexed frame truncated at a seeded byte length.
    Truncate,
}

/// A seeded, frame-indexed schedule of faults: the deterministic chaos
/// engine shared by the test suites and the `party --fault-plan` CLI
/// knob, so every failure mode reproduces byte-for-byte.
///
/// The text form (for the CLI) is comma-separated
/// `kind@frame` entries with an optional leading `seed=N`:
/// `seed=7,disconnect@12,delay@3:50,corrupt@5,truncate@9` — the delay
/// argument is milliseconds; `seed` drives which bit/byte the
/// corruption faults pick.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the corruption faults' bit/length choices.
    pub seed: u64,
    /// The scheduled faults, keyed by frame-event index (0-based; an
    /// endpoint's sends and deliveries share one counter).
    pub faults: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// An empty plan (no faults) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault at frame-event `frame` (builder style).
    pub fn with(mut self, frame: u64, kind: FaultKind) -> Self {
        self.faults.push((frame, kind));
        self
    }

    /// The single-disconnect plan the chaos suite sweeps.
    pub fn disconnect_at(frame: u64) -> Self {
        FaultPlan::new(0).with(frame, FaultKind::Disconnect)
    }
}

impl std::str::FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new(0);
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(seed) = part.strip_prefix("seed=") {
                plan.seed = seed
                    .parse()
                    .map_err(|_| format!("bad fault-plan seed: {seed:?}"))?;
                continue;
            }
            let (kind, at) = part
                .split_once('@')
                .ok_or_else(|| format!("bad fault {part:?}: want kind@frame"))?;
            let (frame, arg) = match at.split_once(':') {
                Some((frame, arg)) => (frame, Some(arg)),
                None => (at, None),
            };
            let frame: u64 = frame
                .parse()
                .map_err(|_| format!("bad fault frame index: {frame:?}"))?;
            let kind = match (kind, arg) {
                ("disconnect", None) => FaultKind::Disconnect,
                ("corrupt", None) => FaultKind::Corrupt,
                ("truncate", None) => FaultKind::Truncate,
                ("delay", Some(ms)) => FaultKind::Delay(Duration::from_millis(
                    ms.parse()
                        .map_err(|_| format!("bad delay milliseconds: {ms:?}"))?,
                )),
                _ => return Err(format!("bad fault {part:?}")),
            };
            if plan.faults.iter().any(|&(f, _)| f == frame) {
                // One event, one fault: keeping only the last entry
                // would silently run a different plan than written.
                return Err(format!("two faults scheduled at frame {frame}"));
            }
            plan.faults.push((frame, kind));
        }
        Ok(plan)
    }
}

/// SplitMix64 — the seeded choice function of the corruption faults.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Transport`] wrapper that injects the faults of a [`FaultPlan`]
/// at exact frame indices.
///
/// The endpoint keeps one event counter covering its sends and its
/// frame deliveries (each `recv` that returns a frame is one event).
/// Under the lockstep serve protocol that order is deterministic, so a
/// plan reproduces the same failure byte-for-byte on every run:
///
/// * [`FaultKind::Disconnect`] — the inner transport is closed instead
///   of performing the event; this and every later call returns
///   [`RecvError::Disconnected`].
/// * [`FaultKind::Delay`] — sleeps, then performs the event normally.
/// * [`FaultKind::Corrupt`] / [`FaultKind::Truncate`] — the delivered
///   frame is re-encoded, mangled at a seeded position, and pushed
///   back through [`Frame::decode`]; the codec's typed rejection
///   ([`RecvError::Corrupt`]) is returned, exactly as if the link had
///   flipped the bits. On a send event these two are inert (the frame
///   passes unharmed): corruption is modeled at the receiver, where
///   detection lives.
pub struct FaultyTransport<T> {
    inner: T,
    seed: u64,
    faults: HashMap<u64, FaultKind>,
    events: AtomicU64,
    dead: AtomicBool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    ///
    /// # Panics
    ///
    /// If `plan` schedules two faults at the same frame index — the
    /// map would keep only one, silently running a different plan
    /// than written. (`FaultPlan::from_str` already rejects this, so
    /// only hand-built plans can trip it.)
    pub fn new(inner: T, plan: &FaultPlan) -> Self {
        let mut faults = HashMap::with_capacity(plan.faults.len());
        for &(frame, kind) in &plan.faults {
            assert!(
                faults.insert(frame, kind).is_none(),
                "fault plan schedules two faults at frame {frame}"
            );
        }
        FaultyTransport {
            inner,
            seed: plan.seed,
            faults,
            events: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Frame events (sends + deliveries) this endpoint has processed —
    /// how the chaos suite learns the index range to sweep.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    fn next_event(&self) -> (u64, Option<FaultKind>) {
        let idx = self.events.fetch_add(1, Ordering::Relaxed);
        (idx, self.faults.get(&idx).copied())
    }

    fn kill(&self) -> RecvError {
        self.dead.store(true, Ordering::Relaxed);
        self.inner.close();
        RecvError::Disconnected
    }

    /// Mangles `frame`'s wire bytes at a seeded position and returns
    /// the codec's typed rejection.
    fn mangle(&self, frame: &Frame, idx: u64, kind: FaultKind) -> RecvError {
        let mut bytes = frame.encode();
        let r = splitmix64(self.seed ^ idx);
        match kind {
            FaultKind::Corrupt => {
                let bit = (r % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            FaultKind::Truncate => {
                let cut = (r % bytes.len() as u64) as usize;
                bytes.truncate(cut);
            }
            _ => unreachable!("mangle called for a non-corruption fault"),
        }
        match Frame::decode(&bytes) {
            Err(e) => RecvError::Corrupt(e),
            // Unreachable: the frame checksum detects every single-bit
            // flip and the length checks every truncation (wire module
            // docs). Fail typed regardless.
            Ok(_) => RecvError::Corrupt(WireError::BadChecksum {
                announced: 0,
                computed: r,
            }),
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(RecvError::Disconnected);
        }
        match self.next_event() {
            (_, Some(FaultKind::Disconnect)) => Err(self.kill()),
            (_, Some(FaultKind::Delay(d))) => {
                std::thread::sleep(d);
                self.inner.send(frame)
            }
            _ => self.inner.send(frame),
        }
    }

    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        if self.dead.load(Ordering::Relaxed) {
            return Err(RecvError::Disconnected);
        }
        let frame = self.inner.recv(msg_type, tag, timeout)?;
        match self.next_event() {
            (_, Some(FaultKind::Disconnect)) => Err(self.kill()),
            (_, Some(FaultKind::Delay(d))) => {
                std::thread::sleep(d);
                Ok(frame)
            }
            (idx, Some(kind @ (FaultKind::Corrupt | FaultKind::Truncate))) => {
                Err(self.mangle(&frame, idx, kind))
            }
            _ => Ok(frame),
        }
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    fn close(&self) {
        self.dead.store(true, Ordering::Relaxed);
        self.inner.close();
    }

    fn recv_timeout(&self) -> Duration {
        self.inner.recv_timeout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{FinalOpeningMsg, OfflineMsg, OpeningMsg};
    use crate::Ring64;
    use std::sync::Arc;

    fn opening(chunk: u32, k0: u32, efg: Vec<u64>) -> OpeningMsg {
        OpeningMsg {
            chunk,
            pair: (1, 2),
            k0,
            efg,
        }
    }

    fn exercise_pair<T: Transport>(a: &T, b: &T) {
        // Frames for different (type, tag) keys interleave arbitrarily
        // and are routed to the right waiters.
        send_msg(a, &opening(2, 0, vec![20, 21, 22])).unwrap();
        send_msg(
            a,
            &OfflineMsg {
                chunk: 2,
                flight: 0,
                step: 1,
                words: vec![5; 4],
            },
        )
        .unwrap();
        send_msg(a, &opening(1, 0, vec![10, 11, 12])).unwrap();
        let m: OpeningMsg = recv_msg(b, 1, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.efg, vec![10, 11, 12]);
        let m: OpeningMsg = recv_msg(b, 2, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.efg, vec![20, 21, 22]);
        let m: OfflineMsg = recv_msg(b, 2, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.words, vec![5; 4]);
        // And the reverse direction works on the same link.
        send_msg(b, &FinalOpeningMsg { share: Ring64(9) }).unwrap();
        let m: FinalOpeningMsg = recv_msg(a, 0, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.share, Ring64(9));
    }

    #[test]
    fn memory_pair_routes_and_counts() {
        let (a, b) = memory_pair();
        exercise_pair(&a, &b);
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa.frames_sent, 3);
        assert_eq!(sb.frames_recv, 3);
        assert_eq!(sa.online_payload_sent, 8 * 6, "two openings of 3 words");
        assert_eq!(sa.offline_payload_sent, 8 * 4);
        assert_eq!(sa.online_payload_recv, 8, "the final opening");
        assert_eq!(sb.online_payload_both(), 8 * 6 + 8);
        assert_eq!(
            sa.bytes_sent,
            sb.bytes_recv,
            "headers counted identically on both ends"
        );
        assert_eq!(sa.bytes_sent, 3 * FRAME_HEADER_BYTES as u64 + 8 * 10);
    }

    #[test]
    fn tcp_loopback_pair_routes_and_counts() {
        let (a, b, _addr) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        exercise_pair(&a, &b);
        assert_eq!(a.stats().bytes_sent, b.stats().bytes_recv);
        assert_eq!(a.stats().online_payload_sent, 48);
    }

    /// A frame one word past the decoder's bound: what a single-pair
    /// offline flight of > 16 384 groups would lower to.
    fn oversized_frame() -> Frame {
        Frame {
            payload: vec![0; crate::wire::MAX_FRAME_PAYLOAD_BYTES + 8],
            ..FinalOpeningMsg { share: Ring64(0) }.to_frame()
        }
    }

    fn assert_oversized_send_is_refused<T: Transport>(a: &T, b: &T) {
        let err = a.send(&oversized_frame()).unwrap_err();
        assert!(
            matches!(
                err,
                RecvError::Corrupt(WireError::BadLength {
                    what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES",
                    ..
                })
            ),
            "{err}"
        );
        assert_eq!(a.stats(), WireStats::default(), "nothing counted as sent");
        // Nothing reached the link either: the next frame the peer sees
        // is the next one sent.
        send_msg(a, &FinalOpeningMsg { share: Ring64(6) }).unwrap();
        let m: FinalOpeningMsg = recv_msg(b, 0, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.share, Ring64(6));
        assert_eq!(b.stats().frames_recv, 1);
    }

    #[test]
    fn memory_send_refuses_what_the_decoder_would_reject() {
        let (a, b) = memory_pair();
        assert_oversized_send_is_refused(&a, &b);
    }

    #[test]
    fn tcp_send_refuses_what_the_decoder_would_reject() {
        let (a, b, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        assert_oversized_send_is_refused(&a, &b);
    }

    #[test]
    fn memory_disconnect_is_loud() {
        let (a, b) = memory_pair();
        send_msg(&a, &FinalOpeningMsg { share: Ring64(1) }).unwrap();
        drop(a);
        let m: FinalOpeningMsg = recv_msg(&b, 0, None).unwrap();
        assert_eq!(m.share, Ring64(1));
        assert_eq!(
            b.recv(FinalOpeningMsg::MSG_TYPE, 0, None).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn tcp_disconnect_is_loud() {
        let (a, b, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        send_msg(&a, &FinalOpeningMsg { share: Ring64(7) }).unwrap();
        drop(a); // joins the writer: the queued frame still arrives
        let m: FinalOpeningMsg = recv_msg(&b, 0, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.share, Ring64(7));
        assert_eq!(
            b.recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
                .unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn recv_times_out_instead_of_hanging() {
        let (a, b) = memory_pair();
        let _keep_alive = &a;
        assert_eq!(
            b.recv(OpeningMsg::MSG_TYPE, 3, Some(Duration::from_millis(50)))
                .unwrap_err(),
            RecvError::Timeout
        );
        let (ta, tb, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        let _keep_alive = &ta;
        assert_eq!(
            tb.recv(OpeningMsg::MSG_TYPE, 3, Some(Duration::from_millis(50)))
                .unwrap_err(),
            RecvError::Timeout
        );
    }

    #[test]
    fn explicit_close_disconnects_both_memory_endpoints() {
        // The PR 8 footgun: a peer thread had to drop the *last* Arc
        // of its endpoint for the survivor to notice. close() works
        // through a shared reference.
        let (a, b) = memory_pair();
        let (a, b) = (Arc::new(a), Arc::new(b));
        let _extra_handle = Arc::clone(&b); // alive — and irrelevant
        send_msg(&*b, &FinalOpeningMsg { share: Ring64(3) }).unwrap();
        b.close();
        // Pending frames still drain, then the disconnect lands.
        let m: FinalOpeningMsg = recv_msg(&*a, 0, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.share, Ring64(3));
        assert_eq!(
            a.recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
                .unwrap_err(),
            RecvError::Disconnected
        );
        // The closed endpoint can no longer send.
        assert_eq!(
            send_msg(&*b, &FinalOpeningMsg { share: Ring64(4) }).unwrap_err(),
            RecvError::Disconnected
        );
        // And neither can the peer: close downs the *link*, both
        // directions, matching TcpTransport's Shutdown::Both.
        assert_eq!(
            send_msg(&*a, &FinalOpeningMsg { share: Ring64(5) }).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn explicit_close_disconnects_tcp_peer() {
        let (a, b, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        a.close();
        assert_eq!(
            b.recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
                .unwrap_err(),
            RecvError::Disconnected
        );
        assert_eq!(
            send_msg(&a, &FinalOpeningMsg { share: Ring64(1) }).unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn recv_timeout_is_configurable_per_link() {
        let (a, _b) = memory_pair_with_timeout(Duration::from_secs(3));
        assert_eq!(a.recv_timeout(), Duration::from_secs(3));
        let (a, _b) = memory_pair();
        assert_eq!(a.recv_timeout(), DEFAULT_RECV_TIMEOUT);
        let cfg = TcpConfig {
            recv_timeout: Duration::from_secs(7),
            ..TcpConfig::default()
        };
        let (ta, tb, _) = TcpTransport::loopback_pair(&cfg).unwrap();
        assert_eq!(ta.recv_timeout(), Duration::from_secs(7));
        assert_eq!(tb.recv_timeout(), Duration::from_secs(7));
    }

    #[test]
    fn fault_plan_parses_the_cli_grammar() {
        let plan: FaultPlan = "seed=9,disconnect@12,delay@3:50,corrupt@5,truncate@7"
            .parse()
            .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(
            plan.faults,
            vec![
                (12, FaultKind::Disconnect),
                (3, FaultKind::Delay(Duration::from_millis(50))),
                (5, FaultKind::Corrupt),
                (7, FaultKind::Truncate),
            ]
        );
        assert!("nonsense@x".parse::<FaultPlan>().is_err());
        assert!("delay@3".parse::<FaultPlan>().is_err(), "delay needs ms");
        assert!("corrupt@1:2".parse::<FaultPlan>().is_err());
        assert!(
            "delay@5:50,corrupt@5".parse::<FaultPlan>().is_err(),
            "two faults at one frame index must not silently collapse"
        );
    }

    #[test]
    fn faulty_transport_disconnects_at_the_planned_frame() {
        // Disconnect at event 2: two sends pass, the third fails, and
        // the peer sees a disconnect after draining the first two.
        let (a, b) = memory_pair();
        let a = FaultyTransport::new(a, &FaultPlan::disconnect_at(2));
        send_msg(&a, &FinalOpeningMsg { share: Ring64(1) }).unwrap();
        send_msg(&a, &FinalOpeningMsg { share: Ring64(2) }).unwrap();
        assert_eq!(
            send_msg(&a, &FinalOpeningMsg { share: Ring64(3) }).unwrap_err(),
            RecvError::Disconnected
        );
        for want in [1u64, 2] {
            let m: FinalOpeningMsg = recv_msg(&b, 0, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(m.share, Ring64(want));
        }
        assert_eq!(
            b.recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
                .unwrap_err(),
            RecvError::Disconnected
        );
        // Dead stays dead.
        assert_eq!(
            a.recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
                .unwrap_err(),
            RecvError::Disconnected
        );
    }

    #[test]
    fn faulty_transport_corrupts_and_truncates_deliveries() {
        let (a, b) = memory_pair();
        let plan = FaultPlan::new(0xC0FFEE)
            .with(0, FaultKind::Corrupt)
            .with(1, FaultKind::Truncate);
        let b = FaultyTransport::new(b, &plan);
        send_msg(&a, &FinalOpeningMsg { share: Ring64(1) }).unwrap();
        send_msg(&a, &FinalOpeningMsg { share: Ring64(2) }).unwrap();
        send_msg(&a, &FinalOpeningMsg { share: Ring64(3) }).unwrap();
        let e = b
            .recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert!(matches!(e, RecvError::Corrupt(_)), "bit flip: {e}");
        let e = b
            .recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert!(
            matches!(e, RecvError::Corrupt(WireError::Truncated { .. })),
            "truncation: {e}"
        );
        // The link survives corruption faults (the wrapper, not the
        // stream, mangled them): the third frame is intact.
        let m: FinalOpeningMsg = recv_msg(&b, 0, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(m.share, Ring64(3));
        assert_eq!(b.events(), 3);
    }

    #[test]
    fn corrupt_bytes_on_the_raw_link_poison_it_typed() {
        // Push genuinely corrupt bytes through an InMemoryTransport's
        // queue (not via the wrapper): the decode failure must surface
        // as RecvError::Corrupt and poison the link, never a panic.
        let (a, b) = memory_pair();
        let mut bytes = FinalOpeningMsg { share: Ring64(5) }.to_frame().encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        match &*a.tx.lock().unwrap() {
            Some(tx) => tx.send(bytes).unwrap(),
            None => unreachable!(),
        }
        let e = b
            .recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert!(matches!(e, RecvError::Corrupt(_)), "{e}");
        // Poisoned: later receives repeat the typed error.
        let e2 = b
            .recv(FinalOpeningMsg::MSG_TYPE, 0, Some(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(e, e2);
    }

    #[test]
    fn concurrent_workers_share_one_tcp_link() {
        // Two workers per side, each owning one tag, worst-case
        // interleaved sends — the cooperative pump must route
        // everything with no loss, duplication, or deadlock.
        const PER_TAG: u32 = 100;
        let (a, b, _) = TcpTransport::loopback_pair(&TcpConfig::default()).unwrap();
        let (a, b) = (Arc::new(a), Arc::new(b));
        std::thread::scope(|scope| {
            for tag in [0u32, 1] {
                let b = Arc::clone(&b);
                scope.spawn(move || {
                    for expect in 0..PER_TAG {
                        let m: OpeningMsg =
                            recv_msg(&*b, tag, Some(Duration::from_secs(10))).unwrap();
                        assert_eq!(m.efg, vec![expect as u64; 3], "tag {tag}");
                        assert_eq!(m.k0, expect);
                    }
                });
            }
            scope.spawn(move || {
                for v in 0..PER_TAG {
                    send_msg(&*a, &opening(1, v, vec![v as u64; 3])).unwrap();
                    send_msg(&*a, &opening(0, v, vec![v as u64; 3])).unwrap();
                }
            });
        });
    }
}
