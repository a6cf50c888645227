//! The wire codec: a versioned, length-prefixed frame format for every
//! protocol message.
//!
//! Until this module existed the two servers exchanged *typed Rust
//! structs* over in-process channels and the communication numbers were
//! asserted by a modeled ledger ([`crate::NetStats`]) — no bytes ever
//! existed. This codec makes the cost model falsifiable: every message
//! of the protocol has an explicit little-endian serialization, the
//! byte transports ([`crate::transport`]) carry exactly these frames,
//! and the measured byte counts are pinned against the model.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset size field
//! 0      1    version        (= WIRE_VERSION)
//! 1      1    msg_type       (OpeningMsg = 1, DealerMsg = 2,
//!                             OfflineMsg = 3, FinalOpeningMsg = 4,
//!                             CommitMsg = 5)
//! 2      2    step           (OfflineMsg step; 0 otherwise)
//! 4      4    tag            (chunk id — the demux key)
//! 8      4    a              (pair.i | flight | 0)
//! 12     4    b              (pair.j | 0)
//! 16     4    c              (k0 | 0)
//! 20     4    payload_len    (bytes; always a multiple of 8)
//! 24     8    checksum       (FNV-1a 64 over bytes 0..24 ‖ payload)
//! 32     …    payload        (payload_len bytes of u64 LE words)
//! ```
//!
//! The header carries **all** metadata; the payload is exactly the
//! ring-element words of the message. That split is load-bearing for
//! the cost accounting: the modeled ledgers count 8 bytes per ring
//! element, so "payload bytes" measured by a transport equals the
//! modeled byte count *exactly* — header overhead (checksum included)
//! is reported separately ([`crate::transport::WireStats`]) and never
//! muddies the measured-vs-modeled equivalence (DESIGN.md §8).
//!
//! The checksum (version 2) makes link corruption *loud*: every FNV-1a
//! step xors a byte into the state and multiplies by an odd prime —
//! both invertible maps — so any single flipped bit anywhere in the
//! covered bytes propagates to a different final hash and the frame
//! decodes to [`WireError::BadChecksum`] instead of garbage ring words.
//! Truncation is caught by the explicit length checks before the
//! checksum is even consulted.
//!
//! The format is pinned by a byte-level fixture in
//! `crates/mpc/tests/wire_format.rs`, so it cannot drift silently;
//! bump [`WIRE_VERSION`] on any layout change.

use crate::ring::Ring64;
use crate::triple_mul::MulGroupShare;

/// Version byte every frame starts with; receivers reject anything
/// else ([`WireError::BadVersion`]). Version 2 added the header
/// checksum field.
pub const WIRE_VERSION: u8 = 2;

/// Fixed frame header size in bytes (see the module-level layout).
pub const FRAME_HEADER_BYTES: usize = 32;

/// Byte offset of the checksum field inside the header.
const CHECKSUM_OFFSET: usize = 24;

/// Upper bound on a frame's payload (64 MiB). The largest legitimate
/// frame is an offline flight's extension-column message (~4 MB at
/// [`crate::MAX_FLIGHT_GROUPS`]); anything bigger means a desynced or
/// hostile stream, and the bound is enforced *before* any allocation
/// so a corrupt 4-byte length field can never drive a multi-gigabyte
/// zero-fill.
pub const MAX_FRAME_PAYLOAD_BYTES: usize = 64 << 20;

/// Decoding failure: the frame is malformed, truncated, corrupted, or
/// from an incompatible peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header (or the announced payload) needs.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it got.
        got: usize,
    },
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The type byte names no known message (or not the expected one).
    BadMsgType(u8),
    /// The payload length is not what the message type requires.
    BadLength {
        /// What the decoder found wrong, e.g. `"payload not a
        /// multiple of 8"`.
        what: &'static str,
        /// The offending length in bytes.
        len: usize,
    },
    /// The header checksum does not match the frame contents: at least
    /// one bit changed between the sender's encoder and here.
    BadChecksum {
        /// The checksum the frame announced.
        announced: u64,
        /// The checksum recomputed over the received bytes.
        computed: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::BadVersion(v) => write!(f, "bad wire version {v} (want {WIRE_VERSION})"),
            WireError::BadMsgType(t) => write!(f, "bad message type {t}"),
            WireError::BadLength { what, len } => write!(f, "bad length: {what} ({len} bytes)"),
            WireError::BadChecksum {
                announced,
                computed,
            } => write!(
                f,
                "checksum mismatch: frame announced {announced:#018x}, bytes hash to {computed:#018x}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// One decoded frame: the parsed header plus the raw payload bytes.
/// The typed layer above ([`WireMessage`]) converts to/from the
/// concrete message structs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type byte (a `MSG_TYPE` constant).
    pub msg_type: u8,
    /// Offline-dialogue step; 0 for every other message.
    pub step: u16,
    /// Chunk id — the key the transports demultiplex by.
    pub tag: u32,
    /// First metadata word (`pair.i`, flight index, or 0).
    pub a: u32,
    /// Second metadata word (`pair.j` or 0).
    pub b: u32,
    /// Third metadata word (`k0` or 0).
    pub c: u32,
    /// Raw payload: the message's ring-element words, little-endian.
    pub payload: Vec<u8>,
}

/// FNV-1a 64-bit over the checksummed portion of a frame: the header
/// bytes *before* the checksum field, then the payload. Every step is
/// an invertible state update (xor, multiply by an odd prime), so two
/// inputs differing in any bit hash differently with probability
/// 1 for single-bit flips and ~1 − 2⁻⁶⁴ in general.
fn frame_checksum(header_prefix: &[u8], payload: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = FNV_OFFSET;
    for &b in header_prefix.iter().chain(payload) {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl Frame {
    /// Serialises the frame (header + payload) into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        out.push(WIRE_VERSION);
        out.push(self.msg_type);
        out.extend_from_slice(&self.step.to_le_bytes());
        out.extend_from_slice(&self.tag.to_le_bytes());
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.c.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        let sum = frame_checksum(&out[..CHECKSUM_OFFSET], &self.payload);
        out.extend_from_slice(&sum.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a complete frame from `bytes`. Strict: the slice must
    /// hold exactly one frame (header + announced payload, nothing
    /// more), the version must match, the payload length must be a
    /// multiple of 8, and the checksum must verify — any drift is an
    /// error, never a guess.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        if bytes.len() < FRAME_HEADER_BYTES {
            return Err(WireError::Truncated {
                needed: FRAME_HEADER_BYTES,
                got: bytes.len(),
            });
        }
        if bytes[0] != WIRE_VERSION {
            return Err(WireError::BadVersion(bytes[0]));
        }
        let u16le = |at: usize| u16::from_le_bytes([bytes[at], bytes[at + 1]]);
        let u32le = |at: usize| {
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
        };
        let payload_len = u32le(20) as usize;
        if !payload_len.is_multiple_of(8) {
            return Err(WireError::BadLength {
                what: "payload not a multiple of 8",
                len: payload_len,
            });
        }
        if payload_len > MAX_FRAME_PAYLOAD_BYTES {
            return Err(WireError::BadLength {
                what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES",
                len: payload_len,
            });
        }
        let total = FRAME_HEADER_BYTES + payload_len;
        if bytes.len() < total {
            return Err(WireError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(WireError::BadLength {
                what: "trailing bytes after the announced payload",
                len: bytes.len(),
            });
        }
        let u64le = |at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte slice"))
        };
        let announced = u64le(CHECKSUM_OFFSET);
        let computed = frame_checksum(&bytes[..CHECKSUM_OFFSET], &bytes[FRAME_HEADER_BYTES..total]);
        if announced != computed {
            return Err(WireError::BadChecksum {
                announced,
                computed,
            });
        }
        Ok(Frame {
            msg_type: bytes[1],
            step: u16le(2),
            tag: u32le(4),
            a: u32le(8),
            b: u32le(12),
            c: u32le(16),
            payload: bytes[FRAME_HEADER_BYTES..total].to_vec(),
        })
    }

    /// The payload parsed back into `u64` little-endian words.
    pub fn payload_words(&self) -> Vec<u64> {
        self.payload
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
            .collect()
    }
}

/// Appends `words` to `out` as little-endian bytes.
fn push_words(out: &mut Vec<u8>, words: &[u64]) {
    out.reserve(8 * words.len());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// A protocol message with a wire form: a frame type byte plus lossless
/// encode/decode (round trips are property-tested in
/// `crates/mpc/tests/wire_format.rs`).
pub trait WireMessage: Sized {
    /// The frame type byte identifying this message on the wire.
    const MSG_TYPE: u8;

    /// The demux tag this message's frame travels under (the chunk id;
    /// 0 for the final opening).
    fn tag(&self) -> u32;

    /// Lowers the message to its frame.
    fn to_frame(&self) -> Frame;

    /// Raises a frame (already version-checked by [`Frame::decode`])
    /// back to the message.
    fn from_frame(frame: &Frame) -> Result<Self, WireError>;

    /// Serialises straight to wire bytes.
    fn encode(&self) -> Vec<u8> {
        self.to_frame().encode()
    }

    /// Parses from wire bytes, checking the type byte.
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let frame = Frame::decode(bytes)?;
        if frame.msg_type != Self::MSG_TYPE {
            return Err(WireError::BadMsgType(frame.msg_type));
        }
        Self::from_frame(&frame)
    }
}

/// One online round's message between the servers: this side's
/// `⟨e⟩, ⟨f⟩, ⟨g⟩` maskings for the round's `block` triples — one
/// `[e.. | f.. | g..]` sub-slab ([`crate::mul3_mask_batch`]'s layout)
/// per segment of the round ([`crate::plan_rounds`]), back to back in a
/// single contiguous buffer. The payload is exactly the `3·block` slab
/// words, so its byte length is the modeled per-round cost
/// (`8 · 3·block` per direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpeningMsg {
    /// Which pair-space shard this round belongs to — the tag the
    /// multiplexed link routes by.
    pub chunk: u32,
    /// Pair of the round's first triple, for lockstep sanity checking.
    pub pair: (u32, u32),
    /// `k` of the round's first triple (lockstep sanity checking).
    pub k0: u32,
    /// The `3·block` slab of this server's maskings.
    pub efg: Vec<u64>,
}

impl WireMessage for OpeningMsg {
    const MSG_TYPE: u8 = 1;

    fn tag(&self) -> u32 {
        self.chunk
    }

    fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        push_words(&mut payload, &self.efg);
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: self.chunk,
            a: self.pair.0,
            b: self.pair.1,
            c: self.k0,
            payload,
        }
    }

    fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let efg = frame.payload_words();
        if !efg.len().is_multiple_of(3) {
            return Err(WireError::BadLength {
                what: "opening slab not a multiple of 3 words",
                len: frame.payload.len(),
            });
        }
        Ok(OpeningMsg {
            chunk: frame.tag,
            pair: (frame.a, frame.b),
            k0: frame.c,
            efg,
        })
    }
}

/// The trusted dealer's preprocessing message: one server's
/// Multiplication-Group shares for one online round, in plan order.
/// Payload: 7 words per group (`x, y, z, w, o, p, q`). Dealer traffic
/// is a simulation device (DESIGN.md §4.6) and is deliberately *not*
/// part of the modeled server↔server ledger; its frames are still
/// byte-counted by the transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DealerMsg {
    /// Pair-space shard the batch belongs to.
    pub chunk: u32,
    /// Pair of the round's first triple (lockstep sanity checking).
    pub pair: (u32, u32),
    /// `k` of the round's first triple (lockstep sanity checking).
    pub k0: u32,
    /// This server's group shares for the round.
    pub groups: Vec<MulGroupShare>,
}

impl WireMessage for DealerMsg {
    const MSG_TYPE: u8 = 2;

    fn tag(&self) -> u32 {
        self.chunk
    }

    fn to_frame(&self) -> Frame {
        let mut payload = Vec::with_capacity(8 * 7 * self.groups.len());
        for g in &self.groups {
            push_words(
                &mut payload,
                &[g.x.0, g.y.0, g.z.0, g.w.0, g.o.0, g.p.0, g.q.0],
            );
        }
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: self.chunk,
            a: self.pair.0,
            b: self.pair.1,
            c: self.k0,
            payload,
        }
    }

    fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let words = frame.payload_words();
        if !words.len().is_multiple_of(7) {
            return Err(WireError::BadLength {
                what: "dealer payload not a multiple of 7 words",
                len: frame.payload.len(),
            });
        }
        let groups = words
            .chunks_exact(7)
            .map(|w| MulGroupShare {
                x: Ring64(w[0]),
                y: Ring64(w[1]),
                z: Ring64(w[2]),
                w: Ring64(w[3]),
                o: Ring64(w[4]),
                p: Ring64(w[5]),
                q: Ring64(w[6]),
            })
            .collect();
        Ok(DealerMsg {
            chunk: frame.tag,
            pair: (frame.a, frame.b),
            k0: frame.c,
            groups,
        })
    }
}

/// One message of the OT-extension offline dialogue (the five-message
/// flight flow documented in [`crate::offline`]): extension columns,
/// correction words, or derandomisation offsets, with lockstep
/// metadata in the header. `step` numbers the message within a
/// flight's flow *per direction*. The payload words are exactly what
/// the offline ledger formula counts, so measured offline payload
/// bytes equal [`crate::mg_flight_ledger`] exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineMsg {
    /// Chunk whose amortised session this message belongs to.
    pub chunk: u32,
    /// Flight index within the chunk session (lockstep checking).
    pub flight: u32,
    /// Step within the flight's flow, per direction.
    pub step: u8,
    /// The message body (columns / corrections / offsets; digests ride
    /// as trailing words where the protocol says so).
    pub words: Vec<u64>,
}

impl WireMessage for OfflineMsg {
    const MSG_TYPE: u8 = 3;

    fn tag(&self) -> u32 {
        self.chunk
    }

    fn to_frame(&self) -> Frame {
        let mut payload = Vec::new();
        push_words(&mut payload, &self.words);
        Frame {
            msg_type: Self::MSG_TYPE,
            step: self.step as u16,
            tag: self.chunk,
            a: self.flight,
            b: 0,
            c: 0,
            payload,
        }
    }

    fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        if frame.step > u8::MAX as u16 {
            return Err(WireError::BadLength {
                what: "offline step out of range",
                len: frame.step as usize,
            });
        }
        Ok(OfflineMsg {
            chunk: frame.tag,
            flight: frame.a,
            step: frame.step as u8,
            words: frame.payload_words(),
        })
    }
}

/// The final noisy-count opening of Algorithm 5: one server's share of
/// the noised, fixed-point-encoded count. One ring element of payload
/// — the modeled cost of the pipeline's last exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinalOpeningMsg {
    /// `⟨T'⟩ᵢ = lift(⟨T⟩ᵢ) + ⟨γ⟩ᵢ`.
    pub share: Ring64,
}

impl WireMessage for FinalOpeningMsg {
    const MSG_TYPE: u8 = 4;

    fn tag(&self) -> u32 {
        0
    }

    fn to_frame(&self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: 0,
            a: 0,
            b: 0,
            c: 0,
            payload: self.share.0.to_le_bytes().to_vec(),
        }
    }

    fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let words = frame.payload_words();
        let [share] = words[..] else {
            return Err(WireError::BadLength {
                what: "final opening must be exactly one word",
                len: frame.payload.len(),
            });
        };
        Ok(FinalOpeningMsg {
            share: Ring64(share),
        })
    }
}

/// The continuous-release epoch-commit acknowledgement: before a
/// serve-mode epoch's final opening is exchanged, each party announces
/// the epoch id it is about to release and a digest of its (public)
/// post-batch state. Carrying *control-plane* data only, it belongs to
/// neither the online nor the offline cost class — its payload never
/// mixes into the modeled ring-element ledgers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitMsg {
    /// The 1-based epoch id this party is about to commit.
    pub epoch: u64,
    /// Digest of the party's post-batch public state (epoch count +
    /// live edge set); both parties must agree before a release opens.
    pub digest: u64,
}

impl WireMessage for CommitMsg {
    const MSG_TYPE: u8 = 5;

    fn tag(&self) -> u32 {
        0
    }

    fn to_frame(&self) -> Frame {
        let mut payload = Vec::with_capacity(16);
        push_words(&mut payload, &[self.epoch, self.digest]);
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: 0,
            a: 0,
            b: 0,
            c: 0,
            payload,
        }
    }

    fn from_frame(frame: &Frame) -> Result<Self, WireError> {
        let words = frame.payload_words();
        let [epoch, digest] = words[..] else {
            return Err(WireError::BadLength {
                what: "commit must be exactly two words",
                len: frame.payload.len(),
            });
        };
        Ok(CommitMsg { epoch, digest })
    }
}

/// True when `msg_type` belongs to the *online* phase of the cost
/// model (the `e, f, g` openings and the final noisy-count opening) —
/// the classification [`crate::transport::WireStats`] buckets payload
/// bytes by.
pub fn is_online_msg(msg_type: u8) -> bool {
    msg_type == OpeningMsg::MSG_TYPE || msg_type == FinalOpeningMsg::MSG_TYPE
}

/// True when `msg_type` belongs to the offline (preprocessing) phase.
pub fn is_offline_msg(msg_type: u8) -> bool {
    msg_type == OfflineMsg::MSG_TYPE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opening_round_trips() {
        let m = OpeningMsg {
            chunk: 7,
            pair: (3, 9),
            k0: 10,
            efg: vec![1, u64::MAX, 0x0123_4567_89AB_CDEF],
        };
        assert_eq!(OpeningMsg::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.tag(), 7);
    }

    #[test]
    fn dealer_round_trips() {
        let g = MulGroupShare {
            x: Ring64(1),
            y: Ring64(2),
            z: Ring64(3),
            w: Ring64(4),
            o: Ring64(5),
            p: Ring64(6),
            q: Ring64(7),
        };
        let m = DealerMsg {
            chunk: 1,
            pair: (0, 2),
            k0: 3,
            groups: vec![g, g],
        };
        assert_eq!(DealerMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn offline_round_trips() {
        let m = OfflineMsg {
            chunk: 63,
            flight: 2,
            step: 4,
            words: (0..100u64).collect(),
        };
        assert_eq!(OfflineMsg::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn final_opening_round_trips() {
        let m = FinalOpeningMsg {
            share: Ring64(0xDEAD_BEEF_CAFE_F00D),
        };
        assert_eq!(FinalOpeningMsg::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.tag(), 0);
    }

    #[test]
    fn commit_round_trips() {
        let m = CommitMsg {
            epoch: 42,
            digest: 0xFACE_FEED_0123_4567,
        };
        assert_eq!(CommitMsg::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.tag(), 0);
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut bytes = OpeningMsg {
            chunk: 0,
            pair: (0, 1),
            k0: 2,
            efg: vec![1, 2, 3],
        }
        .encode();
        bytes[0] = WIRE_VERSION + 1;
        assert_eq!(
            Frame::decode(&bytes),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let bytes = OpeningMsg {
            chunk: 3,
            pair: (1, 4),
            k0: 0,
            efg: vec![5, 6, 7],
        }
        .encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 1 << bit;
                assert!(
                    Frame::decode(&mutated).is_err(),
                    "flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = OfflineMsg {
            chunk: 1,
            flight: 0,
            step: 1,
            words: vec![9, 8, 7],
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut at {cut}: {err}"
            );
        }
        assert!(Frame::decode(&bytes).is_ok());
    }

    #[test]
    fn wrong_type_and_trailing_bytes_are_rejected() {
        let mut bytes = FinalOpeningMsg { share: Ring64(1) }.encode();
        assert_eq!(
            OpeningMsg::decode(&bytes),
            Err(WireError::BadMsgType(FinalOpeningMsg::MSG_TYPE))
        );
        bytes.push(0);
        assert!(matches!(
            Frame::decode(&bytes),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn message_class_split_is_total_over_known_types() {
        assert!(is_online_msg(OpeningMsg::MSG_TYPE));
        assert!(is_online_msg(FinalOpeningMsg::MSG_TYPE));
        assert!(is_offline_msg(OfflineMsg::MSG_TYPE));
        assert!(!is_online_msg(DealerMsg::MSG_TYPE));
        assert!(!is_offline_msg(DealerMsg::MSG_TYPE));
        // Control-plane commits are in *neither* cost class: they must
        // never perturb the measured-vs-modeled ledger equivalence.
        assert!(!is_online_msg(CommitMsg::MSG_TYPE));
        assert!(!is_offline_msg(CommitMsg::MSG_TYPE));
    }
}
