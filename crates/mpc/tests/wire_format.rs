//! Wire-codec suite: the frame format cannot drift silently.
//!
//! Property tests: every [`WireMessage`] encode/decode round-trips for
//! arbitrary field values, truncating an encoded frame at *any* byte
//! boundary is rejected as [`WireError::Truncated`], and a foreign
//! version byte is rejected as [`WireError::BadVersion`]. Fixture
//! tests: the exact wire bytes of a small [`OpeningMsg`] (and the
//! header of every other message type) are pinned byte for byte — any
//! layout change must bump [`WIRE_VERSION`] and update the fixture
//! consciously, never by accident.

use cargo_mpc::wire::MAX_FRAME_PAYLOAD_BYTES;
use cargo_mpc::{
    CommitMsg, FinalOpeningMsg, Frame, OfflineMsg, OpeningMsg, Ring64, WireError, WireMessage,
    FRAME_HEADER_BYTES, WIRE_VERSION,
};
use proptest::prelude::*;

fn arb_words(max_len: usize) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(any::<u64>(), 0..max_len)
}

proptest! {
    #[test]
    fn opening_round_trips(
        chunk in any::<u32>(),
        i in any::<u32>(),
        j in any::<u32>(),
        k0 in any::<u32>(),
        blocks in 0usize..40,
        seed in any::<u64>(),
    ) {
        let efg: Vec<u64> = (0..3 * blocks as u64)
            .map(|x| x.wrapping_mul(seed | 1))
            .collect();
        let msg = OpeningMsg { chunk, pair: (i, j), k0, efg };
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), FRAME_HEADER_BYTES + 8 * 3 * blocks);
        prop_assert_eq!(OpeningMsg::decode(&bytes).unwrap(), msg);
    }

    #[test]
    fn offline_round_trips(
        flight in any::<u32>(),
        step in any::<u8>(),
        words in arb_words(200),
    ) {
        let msg = OfflineMsg { flight, step, words };
        prop_assert_eq!(OfflineMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn final_opening_round_trips(share in any::<u64>()) {
        let msg = FinalOpeningMsg { share: Ring64(share) };
        prop_assert_eq!(FinalOpeningMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn commit_round_trips(epoch in any::<u64>(), digest in any::<u64>()) {
        let msg = CommitMsg { epoch, digest };
        prop_assert_eq!(CommitMsg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn truncated_frames_are_rejected_at_every_cut(
        words in arb_words(20),
    ) {
        let bytes = OfflineMsg { flight: 1, step: 2, words }.encode();
        for cut in 0..bytes.len() {
            prop_assert!(matches!(
                Frame::decode(&bytes[..cut]),
                Err(WireError::Truncated { .. })
            ), "cut at {}", cut);
        }
        prop_assert!(Frame::decode(&bytes).is_ok());
    }

    #[test]
    fn foreign_versions_are_rejected(version in any::<u8>(), share in any::<u64>()) {
        prop_assume!(version != WIRE_VERSION);
        let mut bytes = FinalOpeningMsg { share: Ring64(share) }.encode();
        bytes[0] = version;
        prop_assert_eq!(Frame::decode(&bytes), Err(WireError::BadVersion(version)));
    }

    #[test]
    fn type_confusion_is_rejected(words in arb_words(9)) {
        // A frame of one type never decodes as another.
        let bytes = OfflineMsg { flight: 0, step: 1, words }.encode();
        prop_assert_eq!(
            OpeningMsg::decode(&bytes),
            Err(WireError::BadMsgType(OfflineMsg::MSG_TYPE))
        );
    }
}

/// The format anchor: the exact frame bytes of a one-block
/// [`OpeningMsg`]. If this test fails, the wire format changed — bump
/// [`WIRE_VERSION`] and update the fixture deliberately.
#[test]
fn opening_frame_bytes_are_pinned() {
    let msg = OpeningMsg {
        chunk: 7,
        pair: (2, 5),
        k0: 6,
        efg: vec![0x1111, 0x2222, 0x0123_4567_89AB_CDEF],
    };
    let bytes = msg.encode();
    #[rustfmt::skip]
    let want: Vec<u8> = vec![
        // version, msg_type, step (u16 LE)
        0x03, 0x01, 0x00, 0x00,
        // tag = chunk = 7
        0x07, 0x00, 0x00, 0x00,
        // a = pair.i = 2
        0x02, 0x00, 0x00, 0x00,
        // b = pair.j = 5
        0x05, 0x00, 0x00, 0x00,
        // c = k0 = 6
        0x06, 0x00, 0x00, 0x00,
        // payload_len = 24
        0x18, 0x00, 0x00, 0x00,
        // checksum: 8-lane xor-multiply fold over the words of
        // header[..24] ‖ payload, u64 LE (see `reference_checksum`)
        0x9C, 0x33, 0xCF, 0x3A, 0x11, 0x4A, 0xC6, 0xB3,
        // payload: e, f, g as u64 LE
        0x11, 0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x22, 0x22, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,
    ];
    assert_eq!(bytes, want, "the wire format drifted — bump WIRE_VERSION");
    assert_eq!(WIRE_VERSION, 3, "fixture matches version 3 only");
    assert_eq!(
        checksum_field(&bytes),
        reference_checksum(&bytes),
        "the pinned checksum is the documented function of the pinned bytes"
    );
}

/// The checksum field of an encoded frame.
fn checksum_field(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[24..32].try_into().unwrap())
}

/// The v3 checksum written out longhand from the `cargo_mpc::wire`
/// module docs — word by word, no chunking, no shared code — over an
/// encoded frame's covered bytes.
fn reference_checksum(bytes: &[u8]) -> u64 {
    const SEEDS: [u64; 8] = [
        0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1,
        0x510E_527F_ADE6_82D1, 0x9B05_688C_2B3E_6C1F, 0x1F83_D9AB_FB41_BD6B, 0x5BE0_CD19_137E_2179,
    ];
    let absorb =
        |s: u64, w: u64| (s ^ w).wrapping_mul(0x9E37_79B1_85EB_CA87).rotate_left(29);
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut lanes = SEEDS;
    for (i, lane) in lanes.iter_mut().enumerate().take(3) {
        *lane = absorb(*lane, word(8 * i));
    }
    let payload_words = (bytes.len() - FRAME_HEADER_BYTES) / 8;
    for j in 0..payload_words {
        lanes[j % 8] = absorb(lanes[j % 8], word(FRAME_HEADER_BYTES + 8 * j));
    }
    let mut acc = 0x243F_6A88_85A3_08D3 ^ (8 * payload_words as u64);
    for lane in lanes {
        acc = absorb(acc, lane);
    }
    acc ^ (acc >> 32)
}

/// An encoded [`OfflineMsg`] of `words` distinct payload words.
fn offline_frame(words: usize) -> Vec<u8> {
    OfflineMsg {
        flight: 2,
        step: 1,
        words: (1..=words as u64).map(|w| w.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect(),
    }
    .encode()
}

/// The production checksum is the documented one at every payload
/// shape: empty, a partial row, exactly one row, rows plus a remainder.
#[test]
fn checksum_matches_the_longhand_reference_at_every_shape() {
    for words in (0..=17).chain([64, 100]) {
        let bytes = offline_frame(words);
        assert_eq!(checksum_field(&bytes), reference_checksum(&bytes), "{words} words");
    }
}

/// A peer still speaking wire v2 is refused by version — its FNV field
/// could only ever fail the checksum, and "incompatible peer" is the
/// truer error.
#[test]
fn a_v2_stamped_frame_is_refused_by_version() {
    let mut bytes = offline_frame(3);
    bytes[0] = 2;
    assert_eq!(Frame::decode(&bytes), Err(WireError::BadVersion(2)));
}

/// Decodes `bytes` with its payload words rearranged by `permute`
/// (header and checksum field untouched).
fn decode_permuted(bytes: &[u8], permute: impl Fn(&mut Vec<[u8; 8]>)) -> Result<Frame, WireError> {
    let mut words: Vec<[u8; 8]> = bytes[FRAME_HEADER_BYTES..]
        .chunks_exact(8)
        .map(|c| c.try_into().unwrap())
        .collect();
    permute(&mut words);
    let mut moved = bytes[..FRAME_HEADER_BYTES].to_vec();
    moved.extend(words.iter().flatten());
    Frame::decode(&moved)
}

/// Word permutations — the classic blind spot of lane checksums that
/// fold commutatively — all change the checksum: the lanes are
/// order-sensitive inside, seeded apart, and folded in order.
#[test]
fn word_permutations_are_rejected() {
    let bytes = offline_frame(29); // three full rows and a remainder
    let rejected = |what: &str, permute: &dyn Fn(&mut Vec<[u8; 8]>)| {
        let got = decode_permuted(&bytes, permute);
        assert!(
            matches!(got, Err(WireError::BadChecksum { .. })),
            "{what}: decoded to {got:?}"
        );
    };
    assert!(decode_permuted(&bytes, |_| {}).is_ok(), "identity decodes");
    for at in [0, 6, 7, 8, 23, 27] {
        rejected("adjacent swap", &|w| w.swap(at, at + 1));
    }
    for at in [0, 3, 7, 12, 20] {
        rejected("swap at the lane stride (same lane)", &|w| w.swap(at, at + 8));
    }
    rejected("rotate left by one word", &|w| w.rotate_left(1));
    rejected("rotate right by one word", &|w| w.rotate_right(1));
    rejected("rotate by one row", &|w| w.rotate_left(8));
    for (a, b) in [(0, 1), (2, 7), (4, 5)] {
        rejected("two lanes' whole contents exchanged", &|w| {
            for row in (0..w.len()).step_by(8) {
                if row + a.max(b) < w.len() {
                    w.swap(row + a, row + b);
                }
            }
        });
    }
}

/// Growing the payload by zero words and patching the length field to
/// match passes every structural check — and fails the checksum.
#[test]
fn zero_extension_with_a_patched_length_is_rejected() {
    for words in [0usize, 1, 5, 8, 13] {
        for extra in [1usize, 3, 8] {
            let mut bytes = offline_frame(words);
            bytes.extend(std::iter::repeat_n(0u8, 8 * extra));
            let len = (8 * (words + extra)) as u32;
            bytes[20..24].copy_from_slice(&len.to_le_bytes());
            let got = Frame::decode(&bytes);
            assert!(
                matches!(got, Err(WireError::BadChecksum { .. })),
                "{words} + {extra} zero words decoded to {got:?}"
            );
        }
    }
}

/// An announced payload length past the cap is rejected before any
/// allocation could happen — a desynced or hostile stream fails
/// loudly, it never drives a multi-gigabyte zero-fill.
#[test]
fn oversized_announced_payloads_are_rejected() {
    let mut bytes = FinalOpeningMsg { share: Ring64(1) }.encode();
    let huge = (MAX_FRAME_PAYLOAD_BYTES as u32) + 8;
    bytes[20..24].copy_from_slice(&huge.to_le_bytes());
    assert!(matches!(
        Frame::decode(&bytes),
        Err(WireError::BadLength {
            what: "payload exceeds MAX_FRAME_PAYLOAD_BYTES",
            ..
        })
    ));
}

/// The other message types' headers, pinned at the byte level.
#[test]
fn header_bytes_of_every_type_are_pinned() {
    let offline = OfflineMsg {
        flight: 2,
        step: 4,
        words: vec![],
    }
    .encode();
    assert_eq!(&offline[..4], &[0x03, 0x03, 0x04, 0x00], "step rides the header");
    assert_eq!(&offline[8..12], &[0x02, 0x00, 0x00, 0x00], "flight in a");
    let fin = FinalOpeningMsg { share: Ring64(1) }.encode();
    assert_eq!(&fin[..2], &[0x03, 0x04]);
    assert_eq!(fin.len(), FRAME_HEADER_BYTES + 8, "one ring element");
    let commit = CommitMsg { epoch: 1, digest: 2 }.encode();
    assert_eq!(&commit[..2], &[0x03, 0x05], "version, CommitMsg type");
    assert_eq!(commit.len(), FRAME_HEADER_BYTES + 16, "two words");
}
