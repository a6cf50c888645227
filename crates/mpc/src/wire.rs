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
//! 1      1    msg_type       (PairOpeningMsg = 6, OfflineMsg = 3,
//!                             FinalOpeningMsg = 4, CommitMsg = 5,
//!                             OpeningMsg = 1 (no longer sent by a
//!                             Count); 2 is retired — see below)
//! 2      2    step           (OfflineMsg step; 0 otherwise)
//! 4      4    tag            (PairOpeningMsg round | OpeningMsg chunk | 0)
//! 8      4    a              (pair.i | flight | 0)
//! 12     4    b              (pair.j | 0)
//! 16     4    c              (k0 | new pair key fold | 0)
//! 20     4    payload_len    (bytes; always a multiple of 8)
//! 24     8    checksum       (8-lane xor-multiply fold over the words of
//!                             bytes 0..24 ‖ payload — see below)
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
//! The checksum makes link corruption *loud*. The covered bytes — the
//! 24 header bytes before the checksum field, then the payload — are
//! read as little-endian `u64` words and dealt round-robin onto
//! eight independent lanes with distinct seeds (header
//! word `i` → lane `i`, payload word `j` → lane `j mod 8`). A lane
//! absorbs a word as `s ← rotl((s ⊕ w) · P, 29)`: xor with a constant,
//! multiplication by an odd constant and a rotation are each
//! invertible, so the step is a bijection of the lane state for a fixed
//! word *and* of the word for a fixed state. The lanes are then folded
//! **in lane order** into one accumulator seeded with the payload
//! length, by the same step, and finished with `h ⊕ (h ≫ 32)` (also
//! invertible). A single flipped bit anywhere in
//! the covered bytes changes exactly one word, hence exactly one lane's
//! final state, hence — every later step being a bijection — the
//! checksum: the frame decodes to [`WireError::BadChecksum`] instead of
//! garbage ring words, always, not with high probability. Anything
//! wider (several words, permuted words, words moved between lanes) is
//! caught with probability ≈ 1 − 2⁻⁶⁴: the distinct seeds and the
//! ordered fold make the lanes non-interchangeable. Truncation is
//! caught by the explicit length checks before the checksum is even
//! consulted.
//!
//! Version 2 computed the same field as a byte-serial FNV-1a chain —
//! one dependent multiply per *byte*, 1.4 ns/B, which made the
//! checksum > 90 % of the codec and the codec half of a release
//! (DESIGN.md §8). The lanes absorb eight *words* per five-cycle step;
//! the field, its offset and its guarantee are unchanged.
//!
//! Type id 2 was the trusted dealer's per-round material message,
//! which only ever travelled on in-process dealer links, never
//! party↔party. It is retired and reserved: no message decodes from it
//! and it is never reused, which is why dropping it did not bump
//! [`WIRE_VERSION`].
//!
//! The format is pinned by a byte-level fixture in
//! `crates/mpc/tests/wire_format.rs`, so it cannot drift silently;
//! bump [`WIRE_VERSION`] on any layout change.
//!
//! ## Two parts, no byte buffer
//!
//! A [`Frame`]'s payload is a [`Payload`]: the message's words
//! themselves, which already *are* the wire bytes on a little-endian
//! host. So the transports never build a frame's bytes. A sender
//! computes the 32-byte [`Frame::header`] and hands the link the header
//! and the payload as two parts; a receiver checks both with
//! [`Frame::from_parts`], which makes every check [`Frame::decode`]
//! makes. The in-memory link moves the word vector from sender to
//! receiver; the TCP link writes and reads its bytes in place.
//! [`Frame::encode`] / [`Frame::decode`] (header ‖ payload bytes) remain
//! for tests, fault injection and fixtures.

use crate::ring::Ring64;
use std::borrow::Cow;

/// Version byte every frame starts with; receivers reject anything
/// else ([`WireError::BadVersion`]). Version 2 added the header
/// checksum field; version 3 computes it word-parallel (same field,
/// different function — a v2 peer's frames could only ever fail the
/// checksum, so they are refused by version instead).
pub const WIRE_VERSION: u8 = 3;

/// Fixed frame header size in bytes (see the module-level layout).
pub const FRAME_HEADER_BYTES: usize = 32;

/// Byte offset of the checksum field inside the header.
const CHECKSUM_OFFSET: usize = 24;

/// Upper bound on a frame's payload (64 MiB). The largest legitimate
/// frame is an offline key flight's extension columns (2 MiB at
/// [`crate::MAX_FLIGHT_PAIRS`]); anything bigger means a desynced or
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

/// A frame's payload: the ring-element words it carries.
///
/// On the wire the words are little-endian `u64`s, so crossing a link
/// needs no conversion: the in-memory link moves the vector and the TCP
/// link writes and reads its bytes in place ([`Payload::as_bytes`]).
/// Lengths are in **bytes**, as on the wire and in every byte counter;
/// a payload is whole words by construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Payload(Vec<u64>);

impl Payload {
    /// The payload carrying `words` (moved, not copied).
    pub fn from_words(words: Vec<u64>) -> Self {
        Payload(words)
    }

    /// The payload of `bytes`, read as little-endian words (whole words
    /// only; a trailing partial word is dropped).
    fn from_le_bytes(bytes: &[u8]) -> Self {
        Payload(le_words(bytes).collect())
    }

    /// A `len`-byte payload (`len` a multiple of 8, checked by the
    /// caller) read straight into its words: `fill` gets the words'
    /// memory as bytes and must fill all of it with wire bytes. No
    /// staging buffer, so a socket read lands in the payload itself.
    pub(crate) fn read_with<E>(
        len: usize,
        fill: impl FnOnce(&mut [u8]) -> Result<(), E>,
    ) -> Result<Payload, E> {
        let mut words = vec![0u64; len / 8];
        // SAFETY: the slice covers exactly the `8 * words.len()`
        // initialised bytes of `words`' allocation; `u8` has alignment 1
        // and no invalid values, so every write through it leaves valid
        // `u64`s; and it is the only access to `words` until `fill`
        // returns and the borrow ends.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), 8 * words.len())
        };
        fill(bytes)?;
        // Memory order → value: the identity on little-endian targets.
        for w in &mut words {
            *w = u64::from_le(*w);
        }
        Ok(Payload(words))
    }

    /// The words.
    pub fn words(&self) -> &[u64] {
        &self.0
    }

    /// The words, moved out.
    pub fn into_words(self) -> Vec<u64> {
        self.0
    }

    /// Length in **bytes** (8 per word).
    pub fn len(&self) -> usize {
        8 * self.0.len()
    }

    /// True for a payload of no words.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload's wire bytes: a view of the words' memory on a
    /// little-endian target, a little-endian copy elsewhere.
    pub fn as_bytes(&self) -> Cow<'_, [u8]> {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: the slice covers exactly the `8 * self.0.len()`
            // initialised bytes of the vector's allocation, `u8` has
            // alignment 1, and the shared borrow of `self` keeps the
            // words alive and unmodified for the slice's lifetime. On a
            // little-endian target those bytes are the wire's
            // little-endian words.
            Cow::Borrowed(unsafe {
                std::slice::from_raw_parts(self.0.as_ptr().cast::<u8>(), 8 * self.0.len())
            })
        }
        #[cfg(not(target_endian = "little"))]
        {
            Cow::Owned(self.0.iter().flat_map(|w| w.to_le_bytes()).collect())
        }
    }
}

/// One frame: the parsed header plus the payload words. The typed
/// layer above ([`WireMessage`]) converts to/from the concrete message
/// structs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type byte (a `MSG_TYPE` constant).
    pub msg_type: u8,
    /// Offline-dialogue step; 0 for every other message.
    pub step: u16,
    /// The pair round of a [`PairOpeningMsg`]; 0 for every other
    /// message a Count or release sends. A receive names the
    /// `(msg_type, tag)` it awaits and refuses another.
    pub tag: u32,
    /// First metadata word (`pair.i`, flight index, or 0).
    pub a: u32,
    /// Second metadata word (`pair.j` or 0).
    pub b: u32,
    /// Third metadata word (`k0` or 0).
    pub c: u32,
    /// The message's ring-element words.
    pub payload: Payload,
}

/// Independent lanes of the frame checksum (see the module docs).
const CHECKSUM_LANES: usize = 8;

/// Per-lane initial states: distinct, so moving a run of words from one
/// lane to another changes what they hash to.
const LANE_SEEDS: [u64; CHECKSUM_LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
    0x510E_527F_ADE6_82D1,
    0x9B05_688C_2B3E_6C1F,
    0x1F83_D9AB_FB41_BD6B,
    0x5BE0_CD19_137E_2179,
];

/// Initial state of the fold over the lanes (the payload length is
/// xored in).
const FOLD_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// The odd multiplier of every absorb step.
const ABSORB_MUL: u64 = 0x9E37_79B1_85EB_CA87;

/// One absorb step, shared by the lanes and the final fold: a bijection
/// of `state` for a fixed `word` and of `word` for a fixed `state`
/// (xor, odd multiply and rotate are each invertible). The rotation
/// carries the well-mixed high product bits down, where the next
/// multiply spreads them again.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(ABSORB_MUL).rotate_left(29)
}

/// The little-endian `u64` words of `bytes` (whole words only).
fn le_words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
}

/// Checksum over the covered portion of a frame: the 24 header bytes
/// *before* the checksum field, read as little-endian words, then the
/// payload words. It is defined over word *values*, so no target needs
/// a byte view of the payload to compute it. Eight independent
/// multiply chains run side by side, so the cost is one multiply per
/// word *per lane in flight* instead of one dependent multiply per
/// byte. Detects any single flipped bit with certainty and anything
/// else with probability ~1 − 2⁻⁶⁴ (module docs). Public for the
/// microbench and for anyone writing a v3 peer; the codec calls it on
/// every send and every receive.
pub fn frame_checksum(header_prefix: &[u8], payload: &[u64]) -> u64 {
    debug_assert_eq!(header_prefix.len(), CHECKSUM_OFFSET);
    let mut lanes = LANE_SEEDS;
    for (lane, word) in lanes.iter_mut().zip(le_words(header_prefix)) {
        *lane = absorb(*lane, word);
    }
    let absorb_row = |lanes: &mut [u64; CHECKSUM_LANES], row: &[u64]| {
        for (lane, &word) in lanes.iter_mut().zip(row) {
            *lane = absorb(*lane, word);
        }
    };
    let mut rows = payload.chunks_exact(CHECKSUM_LANES);
    for row in &mut rows {
        absorb_row(&mut lanes, row);
    }
    absorb_row(&mut lanes, rows.remainder());
    let folded = lanes
        .into_iter()
        .fold(FOLD_SEED ^ (8 * payload.len()) as u64, absorb);
    folded ^ (folded >> 32)
}

impl Frame {
    /// The frame's 32-byte header, checksum included, or a refusal of
    /// a payload the peer's receive would reject: longer than
    /// [`MAX_FRAME_PAYLOAD_BYTES`] (which also keeps the 4-byte length
    /// field from wrapping). The transports send through this, so an
    /// oversized message fails on the sending side, typed, with nothing
    /// on the link.
    pub fn header(&self) -> Result<[u8; FRAME_HEADER_BYTES], WireError> {
        let len = self.payload.len();
        if len > MAX_FRAME_PAYLOAD_BYTES {
            return Err(WireError::BadLength {
                what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES",
                len,
            });
        }
        let mut header = [0u8; FRAME_HEADER_BYTES];
        header[0] = WIRE_VERSION;
        header[1] = self.msg_type;
        header[2..4].copy_from_slice(&self.step.to_le_bytes());
        let fields = [(4, self.tag), (8, self.a), (12, self.b), (16, self.c), (20, len as u32)];
        for (at, field) in fields {
            header[at..at + 4].copy_from_slice(&field.to_le_bytes());
        }
        let sum = frame_checksum(&header[..CHECKSUM_OFFSET], self.payload.words());
        header[CHECKSUM_OFFSET..].copy_from_slice(&sum.to_le_bytes());
        Ok(header)
    }

    /// [`Frame::encode`], refusing what [`Frame::header`] refuses.
    fn try_encode(&self) -> Result<Vec<u8>, WireError> {
        let header = self.header()?;
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        out.extend_from_slice(&header);
        out.extend_from_slice(&self.payload.as_bytes());
        Ok(out)
    }

    /// Serialises the frame into one buffer, header ‖ payload bytes —
    /// the wire bytes, for tests, fault injection and fixtures (the
    /// transports send the two parts as they are).
    ///
    /// # Panics
    /// Panics if the payload exceeds [`MAX_FRAME_PAYLOAD_BYTES`].
    pub fn encode(&self) -> Vec<u8> {
        self.try_encode()
            .unwrap_or_else(|e| panic!("unencodable frame: {e}"))
    }

    /// Parses a complete frame from `bytes`. Strict: the slice must
    /// hold exactly one frame (header + announced payload, nothing
    /// more), the version must match, the payload length must be a
    /// multiple of 8, and the checksum must verify — any drift is an
    /// error, never a guess.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let Some((header, payload)) = bytes.split_first_chunk::<FRAME_HEADER_BYTES>() else {
            return Err(WireError::Truncated {
                needed: FRAME_HEADER_BYTES,
                got: bytes.len(),
            });
        };
        Self::check_lengths(header, payload.len())?;
        Self::verify(header, Payload::from_le_bytes(payload))
    }

    /// Checks a frame that arrived as its two parts, header and payload
    /// words — every check [`Frame::decode`] makes on `header ‖ bytes`,
    /// with the same error for the same bytes.
    pub fn from_parts(
        header: &[u8; FRAME_HEADER_BYTES],
        payload: Payload,
    ) -> Result<Frame, WireError> {
        Self::check_lengths(header, payload.len())?;
        Self::verify(header, payload)
    }

    /// The payload length a received header announces, after the checks
    /// that need no payload: the version, whole words and the cap. A
    /// receiver calls this before it allocates for the payload, so a
    /// desynced or hostile length can never drive a huge allocation.
    pub(crate) fn announced_len(header: &[u8; FRAME_HEADER_BYTES]) -> Result<usize, WireError> {
        if header[0] != WIRE_VERSION {
            return Err(WireError::BadVersion(header[0]));
        }
        let len = u32::from_le_bytes([header[20], header[21], header[22], header[23]]) as usize;
        if !len.is_multiple_of(8) {
            return Err(WireError::BadLength {
                what: "payload not a multiple of 8",
                len,
            });
        }
        if len > MAX_FRAME_PAYLOAD_BYTES {
            return Err(WireError::BadLength {
                what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES",
                len,
            });
        }
        Ok(len)
    }

    /// [`Frame::announced_len`], then the announced length against the
    /// `got` payload bytes that came with the header.
    fn check_lengths(header: &[u8; FRAME_HEADER_BYTES], got: usize) -> Result<(), WireError> {
        let total = FRAME_HEADER_BYTES + Self::announced_len(header)?;
        let got = FRAME_HEADER_BYTES + got;
        if got < total {
            return Err(WireError::Truncated { needed: total, got });
        }
        if got > total {
            return Err(WireError::BadLength {
                what: "trailing bytes after the announced payload",
                len: got,
            });
        }
        Ok(())
    }

    /// The checksum, then the header fields, of a frame whose lengths
    /// [`Frame::check_lengths`] accepted.
    fn verify(header: &[u8; FRAME_HEADER_BYTES], payload: Payload) -> Result<Frame, WireError> {
        let u16le = |at: usize| u16::from_le_bytes([header[at], header[at + 1]]);
        let u32le = |at: usize| {
            u32::from_le_bytes([header[at], header[at + 1], header[at + 2], header[at + 3]])
        };
        let announced = u64::from_le_bytes(
            header[CHECKSUM_OFFSET..].try_into().expect("8-byte checksum field"),
        );
        let computed = frame_checksum(&header[..CHECKSUM_OFFSET], payload.words());
        if announced != computed {
            return Err(WireError::BadChecksum {
                announced,
                computed,
            });
        }
        Ok(Frame {
            msg_type: header[1],
            step: u16le(2),
            tag: u32le(4),
            a: u32le(8),
            b: u32le(12),
            c: u32le(16),
            payload,
        })
    }
}

/// Lowers a message to the frame it travels as, by value — what
/// [`crate::send_msg`] takes. An owned message moves its words into the
/// frame's [`Payload`]; a borrowed one (`&M`) copies them
/// ([`WireMessage::to_frame`]), for a sender that keeps its message.
pub trait IntoFrame {
    /// The frame this message travels as.
    fn into_frame(self) -> Frame;
}

impl<M: WireMessage> IntoFrame for &M {
    fn into_frame(self) -> Frame {
        self.to_frame()
    }
}

/// A protocol message with a wire form: a frame type byte plus lossless
/// encode/decode (round trips are property-tested in
/// `crates/mpc/tests/wire_format.rs`).
pub trait WireMessage: IntoFrame + Clone {
    /// The frame type byte identifying this message on the wire.
    const MSG_TYPE: u8;

    /// Lowers a copy of the message to its frame
    /// ([`IntoFrame::into_frame`] moves the words instead).
    fn to_frame(&self) -> Frame {
        self.clone().into_frame()
    }

    /// Raises a checked frame ([`Frame::from_parts`] /
    /// [`Frame::decode`]) back to the message, taking its words.
    fn from_frame(frame: Frame) -> Result<Self, WireError>;

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
        Self::from_frame(frame)
    }
}

/// One online round's message between the servers: this side's
/// maskings of a Count's pairs — `⟨e⟩ = ⟨a⟩ − λ⁽ⁱ⁾` per pair
/// ([`crate::mask_round`]) — for the round's pairs of the plan's pair
/// set, in its canonical order, which both servers derive from the
/// public plan. The payload is exactly one word per pair, so its byte
/// length is the modeled per-round cost (`8` bytes per pair per
/// direction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairOpeningMsg {
    /// The round's index in the Count's pair phase, carried as the
    /// frame's tag: a receive awaiting round `r` refuses a frame of
    /// another round.
    pub round: u32,
    /// The round's first pair, for lockstep sanity checking.
    pub pair: (u32, u32),
    /// Where the Counts of a run keep their openings, a fold of the
    /// round's new pair keys, for lockstep checking of the pairs after
    /// the first; 0 otherwise.
    pub fold: u32,
    /// This server's maskings of the round's pairs.
    pub words: Vec<u64>,
}

impl IntoFrame for PairOpeningMsg {
    fn into_frame(self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: self.round,
            a: self.pair.0,
            b: self.pair.1,
            c: self.fold,
            payload: Payload::from_words(self.words),
        }
    }
}

impl WireMessage for PairOpeningMsg {
    const MSG_TYPE: u8 = 6;

    fn from_frame(frame: Frame) -> Result<Self, WireError> {
        Ok(PairOpeningMsg {
            round: frame.tag,
            pair: (frame.a, frame.b),
            fold: frame.c,
            words: frame.payload.into_words(),
        })
    }
}

/// The per-triple opening a Count round sent before the Count's masks
/// were keyed by pair: a `[e | f | g]` slab of `3·block` words. No
/// Count sends it; it is pinned by the benchmark's trace probes, which
/// time the codec and the link on a frame of it.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpeningMsg {
    /// Which pair-space shard this round belonged to, carried as the
    /// frame's tag.
    pub chunk: u32,
    /// Pair of the round's first triple, for lockstep sanity checking.
    pub pair: (u32, u32),
    /// `k` of the round's first triple (lockstep sanity checking).
    pub k0: u32,
    /// The `3·block` slab of this server's maskings.
    pub efg: Vec<u64>,
}

impl IntoFrame for OpeningMsg {
    fn into_frame(self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: self.chunk,
            a: self.pair.0,
            b: self.pair.1,
            c: self.k0,
            payload: Payload::from_words(self.efg),
        }
    }
}

impl WireMessage for OpeningMsg {
    const MSG_TYPE: u8 = 1;

    fn from_frame(frame: Frame) -> Result<Self, WireError> {
        if !frame.payload.words().len().is_multiple_of(3) {
            return Err(WireError::BadLength {
                what: "opening slab not a multiple of 3 words",
                len: frame.payload.len(),
            });
        }
        Ok(OpeningMsg {
            chunk: frame.tag,
            pair: (frame.a, frame.b),
            k0: frame.c,
            efg: frame.payload.into_words(),
        })
    }
}

/// One message of the OT-extension offline dialogue (the flow
/// documented in [`crate::offline`]): key columns, correction words, or
/// the tail of `W` corrections, offsets and digest, with lockstep
/// metadata in the header. `step` numbers the message kind (1, 2, 3)
/// and `flight` the flight within it; the frame's tag is 0. The
/// payload words are exactly what the offline ledger formula counts, so
/// measured offline payload bytes equal [`crate::count_offline_ledger`]
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfflineMsg {
    /// Flight index within the step (lockstep checking).
    pub flight: u32,
    /// Message kind: 1 key columns, 2 corrections, 3 tail.
    pub step: u8,
    /// The message body (columns / corrections / offsets; digests ride
    /// as trailing words where the protocol says so).
    pub words: Vec<u64>,
}

impl IntoFrame for OfflineMsg {
    fn into_frame(self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: self.step as u16,
            tag: 0,
            a: self.flight,
            b: 0,
            c: 0,
            payload: Payload::from_words(self.words),
        }
    }
}

impl WireMessage for OfflineMsg {
    const MSG_TYPE: u8 = 3;

    fn from_frame(frame: Frame) -> Result<Self, WireError> {
        if frame.step > u8::MAX as u16 {
            return Err(WireError::BadLength {
                what: "offline step out of range",
                len: frame.step as usize,
            });
        }
        Ok(OfflineMsg {
            flight: frame.a,
            step: frame.step as u8,
            words: frame.payload.into_words(),
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

impl IntoFrame for FinalOpeningMsg {
    fn into_frame(self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: 0,
            a: 0,
            b: 0,
            c: 0,
            payload: Payload::from_words(vec![self.share.0]),
        }
    }
}

impl WireMessage for FinalOpeningMsg {
    const MSG_TYPE: u8 = 4;

    fn from_frame(frame: Frame) -> Result<Self, WireError> {
        let [share] = frame.payload.words()[..] else {
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

impl IntoFrame for CommitMsg {
    fn into_frame(self) -> Frame {
        Frame {
            msg_type: Self::MSG_TYPE,
            step: 0,
            tag: 0,
            a: 0,
            b: 0,
            c: 0,
            payload: Payload::from_words(vec![self.epoch, self.digest]),
        }
    }
}

impl WireMessage for CommitMsg {
    const MSG_TYPE: u8 = 5;

    fn from_frame(frame: Frame) -> Result<Self, WireError> {
        let [epoch, digest] = frame.payload.words()[..] else {
            return Err(WireError::BadLength {
                what: "commit must be exactly two words",
                len: frame.payload.len(),
            });
        };
        Ok(CommitMsg { epoch, digest })
    }
}

/// True when `msg_type` belongs to the *online* phase of the cost
/// model (the pair openings and the final noisy-count opening; the
/// retired per-triple slab too) — the classification
/// [`crate::transport::WireStats`] buckets payload bytes by.
pub fn is_online_msg(msg_type: u8) -> bool {
    [PairOpeningMsg::MSG_TYPE, OpeningMsg::MSG_TYPE, FinalOpeningMsg::MSG_TYPE].contains(&msg_type)
}

/// True when `msg_type` belongs to the offline (preprocessing) phase.
pub fn is_offline_msg(msg_type: u8) -> bool {
    msg_type == OfflineMsg::MSG_TYPE
}

/// The message a frame of type `msg_type` carries, for error texts.
pub fn msg_name(msg_type: u8) -> &'static str {
    match msg_type {
        PairOpeningMsg::MSG_TYPE => "a pair opening",
        OfflineMsg::MSG_TYPE => "an offline flight",
        FinalOpeningMsg::MSG_TYPE => "a final opening",
        CommitMsg::MSG_TYPE => "a commit",
        OpeningMsg::MSG_TYPE => "a per-triple opening",
        _ => "an unknown message",
    }
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
        assert_eq!(m.to_frame().tag, 7);
    }

    #[test]
    fn offline_round_trips() {
        let m = OfflineMsg {
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
        assert_eq!(m.to_frame().tag, 0);
    }

    #[test]
    fn commit_round_trips() {
        let m = CommitMsg {
            epoch: 42,
            digest: 0xFACE_FEED_0123_4567,
        };
        assert_eq!(CommitMsg::decode(&m.encode()).unwrap(), m);
        assert_eq!(m.to_frame().tag, 0);
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

    /// [`Frame::from_parts`] on the two parts of whole-word wire bytes.
    fn from_parts(bytes: &[u8]) -> Result<Frame, WireError> {
        let (header, payload) = bytes.split_first_chunk().expect("a whole header");
        Frame::from_parts(header, Payload::from_le_bytes(payload))
    }

    #[test]
    fn every_bit_flip_is_caught() {
        // 0..=9 payload words: no payload at all, lanes 0..=7 one by
        // one, the wrap back to lane 0, and a remainder row after a
        // full one.
        for words in 0..=9u64 {
            let bytes = OfflineMsg {
                flight: 1,
                step: 4,
                words: (0..words).map(|w| w.wrapping_mul(0x0101_0101_0101_0101)).collect(),
            }
            .encode();
            for pos in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutated = bytes.clone();
                    mutated[pos] ^= 1 << bit;
                    let decoded = Frame::decode(&mutated);
                    assert!(
                        decoded.is_err(),
                        "{words} words: flip at byte {pos} bit {bit} went undetected"
                    );
                    assert_eq!(from_parts(&mutated), decoded, "one set of checks");
                }
            }
            assert_eq!(from_parts(&bytes), Frame::decode(&bytes));
        }
    }

    #[test]
    fn unencodable_payloads_are_refused_on_the_sending_side() {
        let frame = |payload| Frame { payload, ..FinalOpeningMsg { share: Ring64(1) }.to_frame() };
        let over = MAX_FRAME_PAYLOAD_BYTES + 8;
        assert_eq!(
            frame(Payload::from_words(vec![0; over / 8])).try_encode(),
            Err(WireError::BadLength { what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES", len: over })
        );
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = OfflineMsg {
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
    fn the_retired_type_id_is_refused_by_every_message() {
        // Well-formed in every other respect — version, lengths,
        // checksum — with a payload every message's length rule admits
        // at some size, so only the type byte can refuse it.
        for words in [1usize, 2, 3, 7] {
            let payload = Payload::from_words(vec![0; words]);
            let frame = Frame { msg_type: 2, step: 0, tag: 0, a: 0, b: 0, c: 0, payload };
            let bytes = frame.encode();
            assert_eq!(Frame::decode(&bytes), Ok(frame), "the frame layer carries any type");
            let refused = Err(WireError::BadMsgType(2));
            assert_eq!(OpeningMsg::decode(&bytes).map(|_| ()), refused);
            assert_eq!(PairOpeningMsg::decode(&bytes).map(|_| ()), refused);
            assert_eq!(OfflineMsg::decode(&bytes).map(|_| ()), refused);
            assert_eq!(FinalOpeningMsg::decode(&bytes).map(|_| ()), refused);
            assert_eq!(CommitMsg::decode(&bytes).map(|_| ()), refused);
        }
        assert!(!is_online_msg(2) && !is_offline_msg(2), "in neither cost class");
    }

    #[test]
    fn pair_opening_round_trips() {
        let m = PairOpeningMsg { round: 3, pair: (4, 17), fold: 0xF01D, words: vec![1, u64::MAX, 5, 0, 9] };
        let bytes = m.encode();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + 8 * m.words.len());
        assert_eq!(PairOpeningMsg::decode(&bytes).unwrap(), m);
        assert_eq!(m.to_frame().tag, 3);
        let empty = PairOpeningMsg { round: 0, pair: (0, 1), fold: 0, words: Vec::new() };
        assert_eq!(PairOpeningMsg::decode(&empty.encode()).unwrap(), empty);
        assert_eq!(OpeningMsg::decode(&bytes), Err(WireError::BadMsgType(PairOpeningMsg::MSG_TYPE)));
    }

    #[test]
    fn message_class_split_is_total_over_known_types() {
        assert!(is_online_msg(PairOpeningMsg::MSG_TYPE));
        assert!(is_online_msg(OpeningMsg::MSG_TYPE));
        assert!(is_online_msg(FinalOpeningMsg::MSG_TYPE));
        assert!(is_offline_msg(OfflineMsg::MSG_TYPE));
        // Control-plane commits are in *neither* cost class: they must
        // never perturb the measured-vs-modeled ledger equivalence.
        assert!(!is_online_msg(CommitMsg::MSG_TYPE));
        assert!(!is_offline_msg(CommitMsg::MSG_TYPE));
    }
}
