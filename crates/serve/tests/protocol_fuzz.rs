//! Deterministic fuzz of the request decoder.
//!
//! Valid payloads for all 8 request tags are cut at every length and
//! mutated with seeded ChaCha8 byte flips and insertions. Every input must
//! either decode to a frame that re-encodes to exactly the input bytes (the
//! encoding is canonical, so nothing decodes "almost right") or fail with a
//! typed [`WireError`]; a panic fails the test. Counts past
//! [`MAX_VERIFY_PAIRS`] and [`MAX_INSERT_DIM`] must be rejected from the
//! header alone, before the decoder reads or reserves space for the body.

use exea_serve::protocol::{
    decode_request, encode_request, WireError, MAX_INSERT_DIM, MAX_VERIFY_PAIRS,
};
use exea_serve::{Request, RequestFrame, Tier};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Mutants drawn per valid payload.
const MUTANTS: usize = 2_000;

/// Byte offset of the request tag: after the `u64` id and `u32` deadline.
const TAG_AT: usize = 12;

/// Wire tags of the two requests that carry a count.
const TAG_VERIFY: u8 = 3;
const TAG_INSERT: u8 = 7;

/// One valid payload per request tag, with non-trivial field values.
fn valid_payloads() -> Vec<Vec<u8>> {
    let requests = [
        Request::Predict {
            source: 42,
            k: 10,
            tier: Some(Tier::Partial),
        },
        Request::Explain {
            source: 3,
            target: 0x0102_0304,
        },
        Request::Verify {
            pairs: vec![(0, 1), (7, 9), (u32::MAX, 5)],
        },
        Request::Repair,
        Request::Health,
        Request::Stats,
        Request::Insert {
            entity: 77,
            vector: vec![0.5, -0.0, f32::NAN, 3.25],
        },
        Request::Remove { entity: 1 << 20 },
    ];
    requests
        .into_iter()
        .enumerate()
        .map(|(i, request)| {
            encode_request(&RequestFrame {
                id: 0x5eed_0000 + i as u64,
                deadline_ms: 250,
                request,
            })
        })
        .collect()
}

/// Decodes `bytes`: a decoded frame must re-encode to exactly `bytes`, and
/// an unknown tag must be the byte at the tag offset.
fn check(bytes: &[u8]) -> Result<(), WireError> {
    match decode_request(bytes) {
        Ok(frame) => assert_eq!(encode_request(&frame), bytes, "decoded {frame:?}"),
        Err(WireError::UnknownTag(tag)) => {
            assert_eq!(Some(&tag), bytes.get(TAG_AT), "{bytes:?}");
            assert!(!(1..=8).contains(&tag), "known tag {tag} rejected");
            return Err(WireError::UnknownTag(tag));
        }
        Err(e) => return Err(e),
    }
    Ok(())
}

#[test]
fn every_strict_prefix_of_a_valid_payload_is_truncated() {
    for bytes in valid_payloads() {
        assert_eq!(check(&bytes), Ok(()));
        for cut in 0..bytes.len() {
            assert_eq!(
                check(&bytes[..cut]),
                Err(WireError::Truncated),
                "prefix of {cut} bytes of {bytes:?}"
            );
        }
    }
}

#[test]
fn mutated_payloads_decode_canonically_or_fail_typed() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xf022);
    let mut seen = BTreeSet::new();
    let mut record = |outcome: Result<(), WireError>| {
        seen.insert(match outcome {
            Ok(()) => "decoded",
            Err(WireError::Truncated) => "truncated",
            Err(WireError::UnknownTag(_)) => "unknown tag",
            Err(WireError::Malformed(_)) => "malformed",
        })
    };
    for valid in valid_payloads() {
        for _ in 0..MUTANTS {
            let mut bytes = valid.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                if rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                } else {
                    let at = rng.gen_range(0..=bytes.len());
                    bytes.insert(at, rng.gen_range(0..=255u8));
                }
            }
            record(check(&bytes));
            record(check(&bytes[..rng.gen_range(0..=bytes.len())]));
        }
    }
    // The mutants reach every outcome, so none of the checks is vacuous.
    assert_eq!(seen.len(), 4, "outcomes reached: {seen:?}");
}

/// A header-only payload of `tag` whose count field holds `count`.
fn header_only(tag: u8, count: &[u8]) -> Vec<u8> {
    let mut bytes = encode_request(&RequestFrame {
        id: 1,
        deadline_ms: 0,
        request: Request::Repair,
    });
    bytes[TAG_AT] = tag;
    if tag == TAG_INSERT {
        // Insert: entity id before the u16 dimension.
        bytes.extend_from_slice(&5u32.to_le_bytes());
    }
    bytes.extend_from_slice(count);
    bytes
}

#[test]
fn oversized_counts_are_rejected_from_the_header_alone() {
    // Verify: a header announcing more than MAX_VERIFY_PAIRS pairs with no
    // body is Malformed, not Truncated — the cap fires before any pair is
    // read or space for them reserved.
    let mut rng = ChaCha8Rng::seed_from_u64(4096);
    let max = MAX_VERIFY_PAIRS as u32;
    let counts = (max + 1..=max + 1024)
        .chain([u32::MAX / 8, u32::MAX / 8 + 1, u32::MAX - 1, u32::MAX])
        .chain((0..1024).map(|_| rng.gen_range(max + 1..=u32::MAX)));
    for count in counts {
        assert_eq!(
            decode_request(&header_only(TAG_VERIFY, &count.to_le_bytes())),
            Err(WireError::Malformed("too many verify pairs")),
            "verify count {count}"
        );
    }
    assert_eq!(
        decode_request(&header_only(TAG_VERIFY, &max.to_le_bytes())),
        Err(WireError::Truncated),
        "a count at the cap reads the body"
    );

    // Insert: every dimension the u16 field can carry past the cap.
    let max = MAX_INSERT_DIM as u16;
    for dim in max + 1..=u16::MAX {
        assert_eq!(
            decode_request(&header_only(TAG_INSERT, &dim.to_le_bytes())),
            Err(WireError::Malformed("insert vector too wide")),
            "insert dim {dim}"
        );
    }
    assert_eq!(
        decode_request(&header_only(TAG_INSERT, &max.to_le_bytes())),
        Err(WireError::Truncated),
        "a dimension at the cap reads the body"
    );
}
