//! Property tests for the wire codec: every message kind round-trips,
//! empty, tiny and multi-KiB payloads survive intact, and
//! damaged frames (truncated, padded, bit-flipped, count-corrupted, or
//! outright random) are rejected with an error rather than misparsed or
//! panicking — the decode path is what every chaos-injected frame flows
//! through.
//!
//! Messages are generated *from the table*: a kind index into
//! `Msg::KINDS` plus a seed for `Msg::sample`, so a kind added to the
//! table later is covered by every property here without touching this
//! file.

use comm::msg::{CodecError, Msg};
use comm::SplitMix64;
use proptest::collection;
use proptest::prelude::*;

/// One pseudo-random message of any kind in the table.
fn arb_msg() -> impl Strategy<Value = Msg> {
    (0..Msg::KINDS.len(), any::<u64>())
        .prop_map(|(kind, seed)| Msg::sample(kind, &mut SplitMix64::new(seed)))
}

/// Payload lengths concentrated around interesting sizes: empty, tiny,
/// and around 4 KiB (512 f64s).
fn arb_payload() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        Just(Vec::new()),
        collection::vec(-1e9..1e9f64, 1..8),
        collection::vec(-1e9..1e9f64, 510..515),
    ]
}

#[test]
fn the_protocol_has_exactly_12_kinds() {
    assert_eq!(Msg::KINDS.len(), 12, "{:?}", Msg::KINDS);
}

/// A tag byte no row declares is rejected, whatever follows it.
#[test]
fn every_undeclared_tag_is_rejected() {
    for tag in (0..=255u8).filter(|t| Msg::KINDS.iter().all(|k| k.1 != *t)) {
        let mut frame = vec![tag];
        frame.extend_from_slice(&[0; 64]);
        assert_eq!(Msg::decode(&frame), Err(CodecError::UnknownTag(tag)));
    }
}

proptest! {
    // Enough cases that every row of the table is drawn many times over.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// encode → decode is the identity for every kind in the table.
    #[test]
    fn roundtrip(msg in arb_msg()) {
        let frame = msg.encode();
        let back = Msg::decode(&frame)
            .map_err(|e| TestCaseError::fail(format!("{msg:?}: {e}")))?;
        prop_assert_eq!(back, msg);
    }

    /// Data payloads of every size class survive intact in every frame
    /// that carries one.
    #[test]
    fn payloads_roundtrip(data in arb_payload(), token in any::<u64>(), alpha in any::<f64>()) {
        for msg in [
            Msg::Put { token, seq: 3, array: 1, offset: 9, data: data.clone() },
            Msg::Acc { token, seq: 4, array: 1, offset: 9, alpha, data: data.clone() },
            Msg::GetReply { token, parts: vec![data.clone()] },
            Msg::GetReply { token, parts: vec![data.clone(), Vec::new(), data.clone()] },
        ] {
            prop_assert_eq!(Msg::decode(&msg.encode()), Ok(msg));
        }
    }

    /// Any strict prefix of a valid frame is rejected, never misparsed
    /// into some other message.
    #[test]
    fn truncation_is_rejected(msg in arb_msg(), cut in any::<u64>()) {
        let frame = msg.encode();
        let cut = (cut % frame.len() as u64) as usize;
        prop_assert!(Msg::decode(&frame[..cut]).is_err());
    }

    /// Trailing garbage after a complete message is rejected: frames and
    /// messages correspond one to one.
    #[test]
    fn trailing_bytes_are_rejected(msg in arb_msg(), junk in any::<u8>()) {
        let mut frame = msg.encode();
        frame.push(junk);
        prop_assert!(Msg::decode(&frame).is_err());
    }

    /// Overwriting any 8 bytes of a valid frame with `u64::MAX` — which
    /// turns every element count it lands on into an absurd one — never
    /// allocates for the bogus count and never misparses: decode either
    /// errors, or yields a message whose own encoding is exactly the
    /// damaged frame (the bytes hit were plain field values).
    #[test]
    fn corrupt_counts_never_allocate_or_misparse(msg in arb_msg()) {
        let frame = msg.encode();
        for at in 1..frame.len().saturating_sub(7) {
            let mut bad = frame.clone();
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            if let Ok(back) = Msg::decode(&bad) {
                prop_assert_eq!(back.encode(), bad, "{:?} damaged at {}", msg, at);
            }
        }
    }

    /// Flipping any single byte of a valid frame never panics: decode
    /// either errors or yields some (different or equal) message — it
    /// must not abort the progress thread. Field-value corruption can be
    /// undetectable (there is no checksum, by design: TCP provides one),
    /// but structural corruption (tag, counts) must fail cleanly.
    #[test]
    fn byte_flip_never_panics(msg in arb_msg(), pos in any::<u64>(), flip in 1..=255u8) {
        let mut frame = msg.encode();
        let pos = (pos % frame.len() as u64) as usize;
        frame[pos] ^= flip;
        let _ = Msg::decode(&frame); // must return, not panic
    }

    /// Entirely arbitrary byte strings never panic the decoder, and the
    /// corrupt-count guard keeps it from allocating absurd buffers.
    #[test]
    fn random_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let _ = Msg::decode(&bytes); // must return, not panic
    }

    /// A corrupted payload count in a data-carrying frame is always an
    /// error (the count no longer matches the bytes present).
    #[test]
    fn corrupt_count_is_rejected(data in arb_payload(), bogus in any::<u64>()) {
        let msg = Msg::GetReply { token: 1, parts: vec![data] };
        let mut frame = msg.encode();
        // The payload count is the 8 bytes after tag, token and the part
        // count.
        let count_at = 1 + 8 + 8;
        let real = u64::from_le_bytes(frame[count_at..count_at + 8].try_into().unwrap());
        let bogus = real ^ (bogus | 1); // xor with nonzero: always != real
        frame[count_at..count_at + 8].copy_from_slice(&bogus.to_le_bytes());
        prop_assert!(Msg::decode(&frame).is_err());
    }
}
