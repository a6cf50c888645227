//! `TracedTransport`: a decorator over any [`Transport`] that times
//! what the protocol spends *in* the transport — busy sending, blocked
//! receiving — and counts frames by size. It implements the public
//! trait, as the system's own `FaultyTransport` does, so the system
//! under it runs unmodified.

use cargo_mpc::{Frame, RecvError, Transport, WireStats, FRAME_HEADER_BYTES};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// See the module documentation.
pub struct TracedTransport<T> {
    inner: T,
    // Relaxed everywhere: these are statistics read after the party
    // threads are joined; they publish no other data.
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
    /// Sent frames by wire size (header + payload).
    sizes: Mutex<BTreeMap<u32, u64>>,
}

/// What one endpoint's decorator saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkTrace {
    /// Seconds inside `send`: encode, checksum, enqueue or syscall.
    pub send_s: f64,
    /// Seconds inside `recv`: blocked on the peer, the link, decode.
    pub recv_wait_s: f64,
    /// Frames sent, by wire size.
    pub sizes: BTreeMap<u32, u64>,
}

impl LinkTrace {
    /// What was seen after `earlier` was taken on the same endpoint.
    pub fn since(&self, earlier: &LinkTrace) -> LinkTrace {
        let mut sizes = self.sizes.clone();
        for (size, count) in &earlier.sizes {
            *sizes.entry(*size).or_insert(0) -= count;
        }
        sizes.retain(|_, count| *count > 0);
        LinkTrace {
            send_s: self.send_s - earlier.send_s,
            recv_wait_s: self.recv_wait_s - earlier.recv_wait_s,
            sizes,
        }
    }

    /// Frames sent.
    pub fn frames_sent(&self) -> u64 {
        self.sizes.values().sum()
    }

    /// Median wire size of a sent frame (0 with no frames).
    pub fn frame_bytes_p50(&self) -> u32 {
        let half = self.frames_sent().div_ceil(2);
        let mut seen = 0;
        for (&size, &count) in &self.sizes {
            seen += count;
            if seen >= half && count > 0 {
                return size;
            }
        }
        0
    }
}

impl<T: Transport> TracedTransport<T> {
    /// Decorates `inner`.
    pub fn new(inner: T) -> Self {
        TracedTransport {
            inner,
            send_ns: AtomicU64::new(0),
            recv_ns: AtomicU64::new(0),
            sizes: Mutex::new(BTreeMap::new()),
        }
    }

    /// Everything seen so far.
    pub fn trace(&self) -> LinkTrace {
        LinkTrace {
            send_s: self.send_ns.load(Ordering::Relaxed) as f64 / 1e9,
            recv_wait_s: self.recv_ns.load(Ordering::Relaxed) as f64 / 1e9,
            sizes: self
                .sizes
                .lock()
                .expect("a party thread panicked holding the size map")
                .clone(),
        }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn send(&self, frame: &Frame) -> Result<(), RecvError> {
        let t0 = Instant::now();
        let sent = self.inner.send(frame);
        self.send_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let size = (FRAME_HEADER_BYTES + frame.payload.len()) as u32;
        *self
            .sizes
            .lock()
            .expect("a party thread panicked holding the size map")
            .entry(size)
            .or_insert(0) += 1;
        sent
    }

    fn recv(&self, msg_type: u8, tag: u32, timeout: Option<Duration>) -> Result<Frame, RecvError> {
        let t0 = Instant::now();
        let frame = self.inner.recv(msg_type, tag, timeout);
        self.recv_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        frame
    }

    fn stats(&self) -> WireStats {
        self.inner.stats()
    }

    fn close(&self) {
        self.inner.close()
    }

    fn recv_timeout(&self) -> Duration {
        self.inner.recv_timeout()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cargo_mpc::{memory_pair_with_timeout, recv_msg, send_msg, FinalOpeningMsg, Ring64};

    #[test]
    fn stats_and_timeout_pass_through_unchanged() {
        let timeout = Duration::from_secs(7);
        let (a, b) = memory_pair_with_timeout(timeout);
        let (a, b) = (TracedTransport::new(a), TracedTransport::new(b));
        assert_eq!(a.recv_timeout(), timeout);
        assert_eq!(a.stats(), WireStats::default());
        send_msg(&a, &FinalOpeningMsg { share: Ring64(5) }).unwrap();
        let got: FinalOpeningMsg = recv_msg(&b, 0, None).unwrap();
        assert_eq!(got.share, Ring64(5));
        // The decorator reports exactly the wrapped endpoint's counters.
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.frames_sent, sa.bytes_sent), (1, 40));
        assert_eq!((sb.frames_recv, sb.bytes_recv), (1, 40));
        assert_eq!(sa.online_payload_sent, 8);
        assert_eq!(sa, a.inner.stats());
        // And its own view agrees with them.
        let trace = a.trace();
        assert_eq!(trace.frames_sent(), 1);
        assert_eq!(trace.frame_bytes_p50(), 40);
        assert_eq!(b.trace().frames_sent(), 0);
        assert!(b.trace().recv_wait_s > 0.0);
    }

    #[test]
    fn median_frame_size_counts_frames_not_sizes() {
        let trace = LinkTrace {
            sizes: BTreeMap::from([(40, 1), (104, 5), (1568, 2)]),
            ..LinkTrace::default()
        };
        assert_eq!(trace.frames_sent(), 8);
        assert_eq!(trace.frame_bytes_p50(), 104);
        assert_eq!(LinkTrace::default().frame_bytes_p50(), 0);
        // Subtracting an earlier snapshot leaves the later frames only.
        let earlier = LinkTrace {
            send_s: 0.25,
            sizes: BTreeMap::from([(40, 1), (104, 2)]),
            ..LinkTrace::default()
        };
        let later = LinkTrace {
            send_s: 1.0,
            ..trace
        }
        .since(&earlier);
        assert_eq!(later.sizes, BTreeMap::from([(104, 3), (1568, 2)]));
        assert_eq!(later.send_s, 0.75);
    }

    #[test]
    fn close_reaches_the_wrapped_endpoint() {
        let (a, b) = cargo_mpc::memory_pair();
        let (a, b) = (TracedTransport::new(a), TracedTransport::new(b));
        a.close();
        assert!(matches!(
            b.recv(4, 0, Some(Duration::from_millis(50))),
            Err(RecvError::Disconnected)
        ));
    }
}
