//! # cargo-mpc — additive secret sharing substrate
//!
//! Implements the cryptographic machinery of the CARGO paper
//! (Section II-C and Section III-D):
//!
//! * [`Ring64`] — elements of the ring `Z_{2^l}` with `l = 64`
//!   (wrapping two's-complement arithmetic with a signed decoding).
//! * [`share`] — two-party additive secret sharing: `⟨x⟩₁ = r`,
//!   `⟨x⟩₂ = x − r`, reconstruction by addition.
//! * [`beaver`] — Beaver multiplication triples for products of *two*
//!   shared values (the classic protocol the paper builds on).
//! * [`triple_mul`] — the paper's novel protocol for multiplying
//!   *three* shared values at once using **Multiplication Groups**
//!   `(x, y, z, w = xyz, o = xy, p = xz, q = yz)` — Algorithm 4's inner
//!   kernel and Theorem 1 — with the Count's masks keyed by pair, so
//!   each adjacency pair is opened once per Count ([`PairTable`]).
//! * [`dealer`] — a streaming trusted dealer producing the offline
//!   correlated randomness from seeds, so that `O(n³)` groups never
//!   need to be materialised. The paper precomputes MGs with oblivious
//!   transfer \[42, 43\]; both options exist here behind
//!   [`OfflineMode`] — the dealer as the zero-cost baseline
//!   (DESIGN.md §4 item 6), the OT extension below as the costed real
//!   thing, opening the same counts.
//! * [`ot`] — IKNP-style correlated-OT extension (simulated base OTs,
//!   column-wise extension, correlation-robust hashing, transcript
//!   consistency digests): the machinery the paper's offline phase
//!   \[42, 43\] is built from.
//! * [`offline`] — the offline phase itself: [`OfflineMode`] selects
//!   the trusted dealer or the OT-extension dialogue that makes the
//!   dealer's `P + 1` words a Count bit for bit while paying (and
//!   recording) the real preprocessing cost — one vector-OLE key per
//!   pair, extended once per Count ([`pair_offline_in_process`],
//!   [`pair_offline_over_wire`] on a link).
//! * [`channel`] — communication accounting: every reconstruction in
//!   the online phase is tallied in a [`NetStats`] so experiments can
//!   report message/byte/round counts; the [`OfflineLedger`] inside it
//!   carries the preprocessing cost, and [`NetStats::wire_bytes`]
//!   carries the bytes a real transport measured.
//! * [`wire`] — the wire codec: a versioned, length-prefixed frame
//!   format with explicit little-endian serialization for every
//!   party↔party message ([`PairOpeningMsg`], the offline dialogue,
//!   the final noisy-count opening, the serve-mode commit).
//! * [`transport`] — pluggable byte transports carrying those frames:
//!   the [`Transport`] trait with in-memory ([`InMemoryTransport`])
//!   and TCP ([`TcpTransport`]) backends, both byte-counting every
//!   frame, so the modeled ledger is *measured*, not asserted.
//! * [`view`] — the semi-honest security story (Definition 6): helpers
//!   that record exactly what each server observes, plus a simulator
//!   that produces the same view from public information only; tests
//!   verify the two are statistically indistinguishable.

#![deny(missing_docs)]

pub mod beaver;
pub mod channel;
pub mod dealer;
pub mod offline;
pub mod ot;
pub mod prg;
pub mod ring;
pub mod share;
pub mod simd;
pub mod transport;
pub mod triple_mul;
pub mod view;
pub mod wire;

pub use beaver::{beaver_mul, BeaverShare};
pub use channel::{NetStats, OfflineLedger, RecvError};
pub use dealer::{split_mg_words, Dealer, PairDealer, GROUP_WORDS, MG_WORDS};
pub use offline::{
    count_offline_ledger, ot_setup_ledger, pair_flights, pair_offline_in_process,
    pair_offline_over_wire, push_triples, MgDraw, OfflineMode, OfflineS1, OfflineS2, OtMgEngine,
    SlotTriple, MAX_FLIGHT_PAIRS, MAX_FLIGHT_TRIPLES,
};
pub use transport::{
    memory_pair, memory_pair_with_timeout, recv_msg, send_msg, FaultKind, FaultPlan,
    FaultyTransport, InMemoryTransport, TcpConfig, TcpTransport, Transport, WireStats,
    DEFAULT_RECV_TIMEOUT,
};
pub use wire::{
    CommitMsg, FinalOpeningMsg, Frame, IntoFrame, OfflineMsg, OpeningMsg, PairOpeningMsg, Payload,
    WireError, WireMessage, FRAME_HEADER_BYTES, WIRE_VERSION,
};
pub use ot::{
    cols_to_rows_scalar, cols_to_rows_simd, cols_to_rows_simd_into, cr_hash_batch, cr_hash_scalar,
    transpose64,
};
pub use prg::SplitMix64;
pub use ring::Ring64;
pub use share::{
    mask_prf, reconstruct, reconstruct_vec, share_prf, share_with, share_vec_with, SharePair,
};
pub use simd::{SimdTier, U64x4, U64x8, U64xN, LANES};
pub use triple_mul::{
    expand_input_shares, mask_round, mul3, mul3_combine, pair_key, weighted_pass, Mul3Opening,
    MulGroupShare, PairRun, PairTable, PAIR_KEY_STEP,
};

/// Identifies one of the two non-colluding servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerId {
    /// Server S₁.
    S1,
    /// Server S₂.
    S2,
}

impl ServerId {
    /// The paper's `(i − 1)` factor: 0 for S₁, 1 for S₂ (the `efg`
    /// correction term is added by exactly one server).
    pub fn index(self) -> u64 {
        match self {
            ServerId::S1 => 0,
            ServerId::S2 => 1,
        }
    }

    /// The other server.
    pub fn other(self) -> ServerId {
        match self {
            ServerId::S1 => ServerId::S2,
            ServerId::S2 => ServerId::S1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_id_roundtrip() {
        assert_eq!(ServerId::S1.other(), ServerId::S2);
        assert_eq!(ServerId::S2.other(), ServerId::S1);
        assert_eq!(ServerId::S1.index(), 0);
        assert_eq!(ServerId::S2.index(), 1);
    }
}
