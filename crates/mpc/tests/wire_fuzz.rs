//! Wire-frame fuzzing: corruption can never decode silently.
//!
//! For every [`WireMessage`] type, every byte position of an encoded
//! frame is bit-flipped (all eight bits) and truncated, and the decode
//! must return `Err` — never panic, and never yield a *valid* message
//! of any type. Version 2's header checksum is what makes the
//! bit-flip property exhaustive: flips the structural checks cannot
//! see (payload words, metadata fields) fail the checksum instead.

use cargo_mpc::{CommitMsg, FinalOpeningMsg, Frame, OfflineMsg, OpeningMsg, Ring64, WireMessage};
use proptest::prelude::*;

/// Asserts that no mutation of `bytes` — any single bit flipped, or
/// any truncation — decodes to a frame (and therefore to any message).
fn assert_all_mutations_rejected(bytes: &[u8], label: &str) {
    assert!(Frame::decode(bytes).is_ok(), "{label}: fixture must decode");
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.to_vec();
            mutated[pos] ^= 1 << bit;
            let decoded = Frame::decode(&mutated);
            assert!(
                decoded.is_err(),
                "{label}: flip at byte {pos} bit {bit} decoded to {decoded:?}"
            );
        }
        let decoded = Frame::decode(&bytes[..pos]);
        assert!(
            decoded.is_err(),
            "{label}: truncation to {pos} bytes decoded to {decoded:?}"
        );
    }
}

/// A typed decode of mutated bytes never "succeeds as another type":
/// exhaustively check all four message decoders against every single-
/// bit mutation.
fn assert_no_type_accepts(bytes: &[u8], label: &str) {
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.to_vec();
            mutated[pos] ^= 1 << bit;
            assert!(OpeningMsg::decode(&mutated).is_err(), "{label} @{pos}.{bit}");
            assert!(OfflineMsg::decode(&mutated).is_err(), "{label} @{pos}.{bit}");
            assert!(
                FinalOpeningMsg::decode(&mutated).is_err(),
                "{label} @{pos}.{bit}"
            );
            assert!(CommitMsg::decode(&mutated).is_err(), "{label} @{pos}.{bit}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn opening_mutations_are_rejected(
        chunk in any::<u32>(),
        k0 in any::<u32>(),
        seed in any::<u64>(),
        blocks in 1usize..4,
    ) {
        let efg: Vec<u64> = (0..3 * blocks as u64)
            .map(|x| x.wrapping_mul(seed | 1))
            .collect();
        let bytes = OpeningMsg { chunk, pair: (1, 2), k0, efg }.encode();
        assert_all_mutations_rejected(&bytes, "OpeningMsg");
    }

    #[test]
    fn offline_mutations_are_rejected(
        flight in any::<u32>(),
        step in any::<u8>(),
        words in proptest::collection::vec(any::<u64>(), 0..6),
    ) {
        let bytes = OfflineMsg { flight, step, words }.encode();
        assert_all_mutations_rejected(&bytes, "OfflineMsg");
    }

    #[test]
    fn final_opening_mutations_are_rejected(share in any::<u64>()) {
        let bytes = FinalOpeningMsg { share: Ring64(share) }.encode();
        assert_all_mutations_rejected(&bytes, "FinalOpeningMsg");
        assert_no_type_accepts(&bytes, "FinalOpeningMsg");
    }

    #[test]
    fn commit_mutations_are_rejected(epoch in any::<u64>(), digest in any::<u64>()) {
        let bytes = CommitMsg { epoch, digest }.encode();
        assert_all_mutations_rejected(&bytes, "CommitMsg");
        assert_no_type_accepts(&bytes, "CommitMsg");
    }
}
