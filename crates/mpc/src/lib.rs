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
//!   kernel and Theorem 1.
//! * [`dealer`] — a streaming trusted dealer producing the offline
//!   correlated randomness from seeds, so that `O(n³)` groups never
//!   need to be materialised. The paper precomputes MGs with oblivious
//!   transfer \[42, 43\]; both options exist here behind
//!   [`OfflineMode`] — the dealer as the zero-cost baseline
//!   (DESIGN.md §4 item 6), the OT extension below as the costed real
//!   thing, emitting bit-identical shares.
//! * [`ot`] — IKNP-style correlated-OT extension (simulated base OTs,
//!   column-wise extension, correlation-robust hashing, transcript
//!   consistency digests): the machinery the paper's offline phase
//!   \[42, 43\] is built from.
//! * [`offline`] — the offline phase itself: [`OfflineMode`] selects
//!   the trusted dealer or the OT-extension engines that generate the
//!   same MG material bit for bit while paying (and recording)
//!   the real preprocessing cost.
//! * [`pool`] — the offline *triple factory*: a bounded, background
//!   [`TriplePool`] whose factory threads run [`OtMgEngine`] chunk
//!   sessions ahead of the online phase, decoupling preprocessing from
//!   the query path while keeping shares bit-identical to inline
//!   generation.
//! * [`channel`] — communication accounting: every reconstruction in
//!   the online phase is tallied in a [`NetStats`] so experiments can
//!   report message/byte/round counts; the [`OfflineLedger`] inside it
//!   carries the preprocessing cost, and [`NetStats::wire_bytes`]
//!   carries the bytes a real transport measured.
//! * [`wire`] — the wire codec: a versioned, length-prefixed frame
//!   format with explicit little-endian serialization for every
//!   party↔party message ([`OpeningMsg`], the offline flight dialogue,
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
pub mod pool;
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
pub use dealer::{split_mg_words, Dealer, PairDealer, MG_WORDS};
pub use offline::{
    chunk_offline_ledger, mg_flight_ledger, mg_offline_over_wire, ot_setup_ledger, plan_flights,
    plan_rounds, MgChunkMaterial, MgDraw, MgOfflineS1, MgOfflineS2, OfflineMode, OtMgEngine,
    PlanRounds, RoundSegment, MAX_FLIGHT_GROUPS,
};
pub use transport::{
    memory_pair, memory_pair_with_timeout, recv_msg, send_msg, FaultKind, FaultPlan,
    FaultyTransport, InMemoryTransport, TcpConfig, TcpTransport, Transport, WireStats,
    DEFAULT_RECV_TIMEOUT,
};
pub use wire::{
    CommitMsg, FinalOpeningMsg, Frame, OfflineMsg, OpeningMsg, WireError, WireMessage,
    FRAME_HEADER_BYTES, WIRE_VERSION,
};
pub use ot::{
    cols_to_rows_scalar, cols_to_rows_simd, cols_to_rows_simd_into, cr_hash_batch, cr_hash_scalar,
    transpose64,
};
pub use pool::{Backpressure, PoolError, PoolPolicy, PoolStats, TriplePool, DEFAULT_POOL_DEPTH};
pub use prg::SplitMix64;
pub use ring::Ring64;
pub use share::{reconstruct, reconstruct_vec, share_with, share_vec_with, SharePair};
pub use simd::{SimdTier, U64x4, U64x8, U64xN, LANES};
pub use triple_mul::{
    mul3, mul3_batch, mul3_combine, mul3_combine_batch, mul3_mask_batch, mul3_open_batch,
    mul3_tile_batch, Mul3Opening, MulGroupShare,
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
