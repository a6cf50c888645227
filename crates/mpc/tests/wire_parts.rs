//! The two-part frame path the transports take: a sender's
//! [`Frame::header`] plus the payload words, checked on arrival by
//! [`Frame::from_parts`]. It must be the byte codec in another shape:
//! the same bytes on the wire, the same frame back, and the same typed
//! rejection of every corrupted bit.

use cargo_mpc::{
    CommitMsg, FinalOpeningMsg, Frame, IntoFrame, OfflineMsg, OpeningMsg, Payload, Ring64,
    WireError, FRAME_HEADER_BYTES,
};
use proptest::prelude::*;

/// A frame of message type `kind` (0..4) over `words`, with the header
/// fields drawn from `meta`.
fn frame_of(kind: u8, meta: (u32, u32, u32, u32), words: Vec<u64>) -> Frame {
    let (chunk, a, b, k0) = meta;
    match kind {
        0 => {
            let whole = words.len() - words.len() % 3;
            let efg = words[..whole].to_vec();
            OpeningMsg { chunk, pair: (a, b), k0, efg }.into_frame()
        }
        1 => OfflineMsg { flight: a, step: b as u8, words }.into_frame(),
        2 => FinalOpeningMsg { share: Ring64(words.first().copied().unwrap_or(k0.into())) }
            .into_frame(),
        _ => CommitMsg { epoch: a.into(), digest: words.first().copied().unwrap_or(b.into()) }
            .into_frame(),
    }
}

/// [`Frame::from_parts`] on whole-word wire bytes, split as a transport
/// carries them.
fn from_parts(bytes: &[u8]) -> Result<Frame, WireError> {
    let (header, payload) = bytes
        .split_first_chunk::<FRAME_HEADER_BYTES>()
        .expect("a whole header");
    let words = payload
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")))
        .collect();
    Frame::from_parts(header, Payload::from_words(words))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn two_parts_are_the_byte_codec(
        kind in 0u8..4,
        meta in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        words in proptest::collection::vec(any::<u64>(), 0..24),
    ) {
        let frame = frame_of(kind, meta, words);
        let header = frame.header().unwrap();
        let bytes = frame.encode();
        let mut parts = header.to_vec();
        parts.extend_from_slice(&frame.payload.as_bytes());
        prop_assert!(parts == bytes, "header ++ payload bytes is not the encoding");
        let received = Frame::from_parts(&header, frame.payload.clone());
        prop_assert_eq!(&received, &Frame::decode(&bytes));
        prop_assert_eq!(received, Ok(frame));
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[pos] ^= 1 << bit;
                let decoded = Frame::decode(&flipped);
                prop_assert!(decoded.is_err(), "flip at byte {} bit {} decoded", pos, bit);
                let split = from_parts(&flipped);
                prop_assert!(
                    split == decoded,
                    "byte {} bit {}: {:?}, not {:?}",
                    pos,
                    bit,
                    split,
                    decoded
                );
            }
        }
    }
}
