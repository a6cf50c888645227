//! Communication accounting for the two-server protocols, and the
//! error a link's receive fails with.
//!
//! The experiments report protocol *cost*; since both servers run
//! in-process, an explicit [`NetStats`] tally stands in for the wire.
//! Every public reconstruction (`e, f, g` in the multiplication
//! protocols; the final noisy count) goes through [`NetStats::exchange`]
//! so message counts, byte counts, and round counts are faithful to the
//! protocol description even though no sockets exist.

/// Why a blocking receive came back without a message.
///
/// Every [`crate::transport::Transport`] backend surfaces the same
/// failure modes, so a dropped or diverged peer fails the protocol
/// *loudly* — the caller gets a typed error — instead of deadlocking
/// on a link that will never deliver what it awaits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Every sending handle is gone and every frame sent before is
    /// taken: the peer hung up.
    Disconnected,
    /// The deadline passed with no frame (the peer may be alive but
    /// wedged — the caller decides).
    Timeout,
    /// The link delivered bytes that do not decode to a valid frame:
    /// a bit-flip, truncation, or desync caught by the wire codec
    /// (the frame checksum makes this detection exhaustive). The
    /// link is poisoned — subsequent receives return the same error.
    /// A *send* returns it, without touching the link, for a frame
    /// the peer's decoder would refuse.
    Corrupt(crate::wire::WireError),
    /// The next frame on the link is not the one awaited: `got` is its
    /// `(msg_type, tag)`, `want` the awaited one's. Frames arrive in
    /// the order the peer sent them, so a peer that sends another frame
    /// here runs another protocol step (other flags, another round).
    /// The link is poisoned, as after [`RecvError::Corrupt`].
    Unexpected {
        /// The awaited frame's `(msg_type, tag)`.
        want: (u8, u32),
        /// The arrived frame's `(msg_type, tag)`.
        got: (u8, u32),
    },
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Disconnected => f.write_str("peer disconnected"),
            RecvError::Timeout => f.write_str("receive timed out"),
            RecvError::Corrupt(e) => write!(f, "corrupt frame on the link: {e}"),
            RecvError::Unexpected { want: (wt, wg), got: (gt, gg) } => write!(
                f,
                "unexpected frame: got {} (type {gt}, tag {gg}) where {} (type {wt}, tag {wg}) was awaited",
                crate::wire::msg_name(*gt),
                crate::wire::msg_name(*wt)
            ),
        }
    }
}

impl std::error::Error for RecvError {}

/// Tally of the *offline* (preprocessing) phase: the OT-extension
/// traffic that replaces the trusted dealer when
/// [`crate::OfflineMode::OtExtension`] is selected.
///
/// Kept separate from the online fields of [`NetStats`] so the two
/// phases can be reported side by side — the paper's runtime story is
/// offline + online, and the reproduction's benchmarks plot both.
/// All fields stay zero under [`crate::OfflineMode::TrustedDealer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OfflineLedger {
    /// Simulated base OTs (κ per extension direction, run once per
    /// protocol execution).
    pub base_ots: u64,
    /// Extended correlated OTs produced by the IKNP extension.
    pub extended_ots: u64,
    /// Offline bytes on the wire (extension columns, correction words,
    /// derandomisation offsets, transcript digests, base-OT messages).
    pub bytes: u64,
    /// Offline communication rounds.
    pub rounds: u64,
}

impl OfflineLedger {
    /// A fresh, zeroed offline ledger.
    pub fn new() -> Self {
        OfflineLedger::default()
    }

    /// True when no offline traffic was recorded (trusted-dealer runs).
    pub fn is_empty(&self) -> bool {
        *self == OfflineLedger::default()
    }

    /// Merges another offline tally into this one (summing all fields).
    pub fn merge(&mut self, other: &OfflineLedger) {
        self.base_ots += other.base_ots;
        self.extended_ots += other.extended_ots;
        self.bytes += other.bytes;
        self.rounds += other.rounds;
    }
}

/// Tally of simulated network traffic between S₁ and S₂.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Ring elements sent S₁→S₂ plus S₂→S₁.
    pub elements: u64,
    /// Bytes on the wire (8 bytes per ring element).
    pub bytes: u64,
    /// Communication rounds (a batch of parallel exchanges = 1 round).
    /// The Count phase opens the `P` pairs its plan reads `b` a round,
    /// so a Count costs `⌈P/b⌉` rounds — on the wire executors, exactly
    /// the opening frames each server sends.
    pub rounds: u64,
    /// Largest single batch (elements each way) seen so far — the peak
    /// per-message buffer a deployment would need: `b` for a Count over
    /// at least `b` pairs, `P` for one over fewer.
    pub peak_batch: u64,
    /// Bytes a byte transport carries for the online openings, both
    /// directions. On the purely modeled path (the fast kernel) this
    /// tracks `bytes` in lockstep by construction; transport-backed
    /// runtimes **overwrite** it with the counter measured by
    /// [`crate::transport::Transport`] on every frame it carries. Measured == modeled is therefore an
    /// *invariant*, not a tolerance: every cross-path equality test
    /// that compares whole `NetStats` structs pins the transport's
    /// real byte count to the cost model exactly (DESIGN.md §8).
    pub wire_bytes: u64,
    /// Preprocessing traffic (OT-extension offline phase); zero under
    /// the trusted dealer. The fields above count the online phase
    /// only, so `offline` never mixes into per-triple online costs.
    pub offline: OfflineLedger,
}

impl NetStats {
    /// A fresh, zeroed tally.
    pub fn new() -> Self {
        NetStats::default()
    }

    /// Records one round in which each server sends `elements_each_way`
    /// ring elements to the other.
    #[inline]
    pub fn exchange(&mut self, elements_each_way: u64) {
        self.elements += 2 * elements_each_way;
        self.bytes += 2 * elements_each_way * 8;
        self.wire_bytes += 2 * elements_each_way * 8;
        self.rounds += 1;
        self.peak_batch = self.peak_batch.max(elements_each_way);
    }

    /// Records `rounds` identical rounds of `elements_each_way` in one
    /// tally update — the bulk form of [`Self::exchange`]. Field totals
    /// are identical to the per-round calls.
    #[inline]
    fn exchange_rounds(&mut self, rounds: u64, elements_each_way: u64) {
        if rounds == 0 {
            return;
        }
        self.elements += 2 * elements_each_way * rounds;
        self.bytes += 2 * elements_each_way * 8 * rounds;
        self.wire_bytes += 2 * elements_each_way * 8 * rounds;
        self.rounds += rounds;
        self.peak_batch = self.peak_batch.max(elements_each_way);
    }

    /// Records a Count's pair openings in closed form: `pairs` openings
    /// (one element each way per pair) `batch` at a time are
    /// `⌊pairs/batch⌋` full rounds of `batch` elements plus one tail
    /// round for the rest — the rounds the wire parties cut over the
    /// plan's pair set, which is why the in-process executors' ledgers
    /// equal the wire executors' field for field.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    #[inline]
    pub fn exchange_pairs(&mut self, pairs: u64, batch: u64) {
        self.exchange_rounds(pairs / batch, batch);
        if !pairs.is_multiple_of(batch) {
            self.exchange(pairs % batch);
        }
    }

    /// Merges another tally into this one (summing rounds; used when
    /// parallel workers each kept their own tally — their rounds
    /// overlap in wall-clock but we report the sequential-equivalent
    /// totals, which upper-bound the real cost).
    pub fn merge(&mut self, other: &NetStats) {
        self.elements += other.elements;
        self.bytes += other.bytes;
        self.wire_bytes += other.wire_bytes;
        self.rounds += other.rounds;
        self.peak_batch = self.peak_batch.max(other.peak_batch);
        self.offline.merge(&other.offline);
    }

    /// The online-phase portion of this tally: a copy with the offline
    /// ledger zeroed. Equivalence tests compare `a.online() ==
    /// b.online()` when the two runs used different offline modes.
    pub fn online(&self) -> NetStats {
        NetStats {
            offline: OfflineLedger::default(),
            ..*self
        }
    }
}

impl std::fmt::Display for NetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ring elements, {} bytes, {} rounds",
            self.elements, self.bytes, self.rounds
        )?;
        if !self.offline.is_empty() {
            write!(
                f,
                " (+ offline: {} bytes, {} rounds, {} ext OTs)",
                self.offline.bytes, self.offline.rounds, self.offline.extended_ots
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_counts_both_directions() {
        let mut s = NetStats::new();
        s.exchange(3);
        assert_eq!(s.elements, 6);
        assert_eq!(s.bytes, 48);
        assert_eq!(s.wire_bytes, 48, "modeled paths keep wire_bytes == bytes");
        assert_eq!(s.rounds, 1);
        assert_eq!(s.peak_batch, 3);
    }

    #[test]
    fn wire_bytes_track_bytes_on_every_modeled_update() {
        let mut s = NetStats::new();
        s.exchange(3);
        s.exchange_rounds(4, 192);
        assert_eq!(s.wire_bytes, s.bytes);
        let mut other = NetStats::new();
        other.exchange(1);
        s.merge(&other);
        assert_eq!(s.wire_bytes, s.bytes, "merge sums wire_bytes too");
    }

    #[test]
    fn exchange_rounds_equals_repeated_exchanges() {
        let mut bulk = NetStats::new();
        bulk.exchange_rounds(5, 192);
        bulk.exchange_rounds(0, 999); // no-op: peak must not move
        bulk.exchange(7);
        let mut scalar = NetStats::new();
        for _ in 0..5 {
            scalar.exchange(192);
        }
        scalar.exchange(7);
        assert_eq!(bulk, scalar);
    }

    #[test]
    fn exchange_pairs_is_full_rounds_plus_one_tail() {
        for (pairs, batch) in [(0u64, 64u64), (1, 64), (64, 64), (130, 64), (130, 1), (5, 7)] {
            let mut closed = NetStats::new();
            closed.exchange_pairs(pairs, batch);
            let mut scalar = NetStats::new();
            let mut left = pairs;
            while left > 0 {
                scalar.exchange(left.min(batch));
                left -= left.min(batch);
            }
            assert_eq!(closed, scalar, "{pairs} pairs at batch {batch}");
            assert_eq!(closed.rounds, pairs.div_ceil(batch));
            assert_eq!(closed.bytes, 16 * pairs, "one word each way per pair");
        }
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = NetStats::new();
        a.exchange(2);
        let mut b = NetStats::new();
        b.exchange(5);
        a.merge(&b);
        assert_eq!(a.elements, 14);
        assert_eq!(a.rounds, 2);
        assert_eq!(a.peak_batch, 5);
    }

    #[test]
    fn display_is_readable() {
        let mut s = NetStats::new();
        s.exchange(1);
        assert!(s.to_string().contains("2 ring elements"));
        assert!(!s.to_string().contains("offline"), "no offline suffix");
        s.offline.bytes = 100;
        assert!(s.to_string().contains("offline"));
    }

    #[test]
    fn offline_ledger_merges_and_strips() {
        let mut a = NetStats::new();
        a.exchange(2);
        a.offline.merge(&OfflineLedger {
            base_ots: 256,
            extended_ots: 512,
            bytes: 12_336,
            rounds: 5,
        });
        let mut b = NetStats::new();
        b.exchange(2);
        assert_ne!(a, b, "offline ledger participates in equality");
        assert_eq!(a.online(), b, "online() strips the offline ledger");
        let mut c = a;
        c.merge(&a);
        assert_eq!(c.offline.extended_ots, 1024);
        assert_eq!(c.offline.base_ots, 512);
        assert_eq!(c.offline.bytes, 24_672);
        assert_eq!(c.offline.rounds, 10);
        assert!(OfflineLedger::new().is_empty());
        assert!(!a.offline.is_empty());
    }
}
