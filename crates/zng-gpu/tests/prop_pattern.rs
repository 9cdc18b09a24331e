//! Property tests for the packed `AccessPattern` encoding.
//!
//! The reference is the unpacked three-variant enum `AccessPattern` was
//! before it became two bytes, with its sector expansion written out
//! here rather than borrowed from the coalescer.

use std::collections::HashSet;

use proptest::prelude::*;
use zng_gpu::{AccessPattern, PatternShape};

/// The widest stride the 14-bit payload holds, written out so a change to
/// the encoding's own limit shows up here.
const MAX_STRIDE: u32 = 16_383;

/// The unpacked pattern, as it was before packing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reference {
    Sequential,
    Strided(u32),
    Scatter(u8),
}

impl Reference {
    /// Picks a pattern from a generated (selector, payload) pair.
    fn from_parts(selector: u8, payload: u16) -> Reference {
        match selector % 3 {
            0 => Reference::Sequential,
            1 => Reference::Strided(u32::from(payload) % (MAX_STRIDE + 1)),
            _ => Reference::Scatter(payload as u8),
        }
    }

    fn pack(self) -> AccessPattern {
        match self {
            Reference::Sequential => AccessPattern::sequential(),
            Reference::Strided(s) => AccessPattern::strided(s).unwrap(),
            Reference::Scatter(n) => AccessPattern::scatter(n),
        }
    }

    fn shape(self) -> PatternShape {
        match self {
            Reference::Sequential => PatternShape::Sequential,
            Reference::Strided(s) => PatternShape::Strided(s as u16),
            Reference::Scatter(n) => PatternShape::Scatter(n),
        }
    }

    /// The coalesced 128 B sector bases the pattern touches from `base`.
    fn sectors(self, base: u64) -> Vec<u64> {
        match self {
            Reference::Sequential => vec![line_of(base)],
            Reference::Strided(stride) => {
                let mut out: Vec<u64> = Vec::new();
                for thread in 0..32 {
                    let sector = line_of(base + thread * u64::from(stride));
                    if !out.contains(&sector) {
                        out.push(sector);
                    }
                }
                out
            }
            // Scatter(0) still touches one sector; sectors are 33 lines
            // apart so each lands on its own 4 KiB page.
            Reference::Scatter(n) => (0..u64::from(n.max(1)))
                .map(|i| line_of(base + i * 33 * 128))
                .collect(),
        }
    }
}

/// The 128 B sector holding byte `a`.
fn line_of(a: u64) -> u64 {
    a - a % 128
}

/// Every pattern the old enum could express within the packed limits.
fn every_reference() -> impl Iterator<Item = Reference> {
    std::iter::once(Reference::Sequential)
        .chain((0..=MAX_STRIDE).map(Reference::Strided))
        .chain((0..=u8::MAX).map(Reference::Scatter))
}

/// Checks `sectors` and `sectors_into` (appending after existing
/// entries) against the reference expansion.
fn check_expansion(r: Reference, base: u64) -> Result<(), TestCaseError> {
    let packed = r.pack();
    let want = r.sectors(base);
    prop_assert_eq!(packed.sectors(base), want.clone());
    let mut out = vec![u64::MAX, line_of(base)];
    packed.sectors_into(base, &mut out);
    prop_assert_eq!(&out[..2], &[u64::MAX, line_of(base)][..]);
    prop_assert_eq!(&out[2..], &want[..]);
    Ok(())
}

#[test]
fn every_shape_round_trips_and_packs_distinctly() {
    let mut seen = HashSet::new();
    for r in every_reference() {
        let packed = r.pack();
        assert_eq!(packed.shape(), r.shape(), "{r:?}");
        assert!(seen.insert(packed), "{r:?} packs like an earlier pattern");
    }
    assert_eq!(seen.len(), 1 + 16_384 + 256);
    assert_eq!(AccessPattern::MAX_STRIDE, MAX_STRIDE);
}

#[test]
fn every_shape_expands_like_the_reference() {
    for base in [0, 4096 + 17, (1 << 40) + 127] {
        for r in every_reference() {
            check_expansion(r, base).unwrap();
        }
    }
}

#[test]
fn edge_shapes_expand_like_the_reference() {
    let edges = [0, 1, 127, 128, 4096, 16_383]
        .map(Reference::Strided)
        .into_iter()
        .chain([Reference::Scatter(0), Reference::Scatter(255)])
        .chain([Reference::Sequential]);
    for r in edges {
        for base in [0, 1, 127, 128, 4095, 123_456_789] {
            check_expansion(r, base).unwrap();
        }
    }
    assert_eq!(AccessPattern::scatter(0).sectors(4096), vec![4096]);
    assert_eq!(AccessPattern::strided(0).unwrap().sectors(130), vec![128]);
    assert_eq!(AccessPattern::strided(16_383).unwrap().sectors(0).len(), 32);
}

#[test]
fn strides_past_the_payload_are_rejected() {
    for bytes in [16_384, 16_385, 1 << 20, u32::MAX] {
        let err = AccessPattern::strided(bytes).unwrap_err().to_string();
        assert!(
            err.contains("stride") && err.contains(&bytes.to_string()),
            "{err}"
        );
    }
}

proptest! {
    #[test]
    fn packed_patterns_match_the_unpacked_enum(
        ops in prop::collection::vec((0u8..3, any::<u16>(), 0u64..(1 << 48)), 1..64),
    ) {
        for &(selector, payload, base) in &ops {
            let r = Reference::from_parts(selector, payload);
            prop_assert_eq!(r.pack().shape(), r.shape());
            check_expansion(r, base)?;
        }
    }
}
