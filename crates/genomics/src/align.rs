//! Banded dynamic-programming alignment (§4.3, Fig. 6 step 4).
//!
//! A banded global (Needleman–Wunsch) aligner with linear gap costs —
//! enough to verify candidate regions from chaining and report identity.

/// Alignment scoring parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlignParams {
    /// Score for a base match (positive).
    pub match_score: i32,
    /// Penalty for a mismatch (positive value, subtracted).
    pub mismatch: i32,
    /// Penalty per gap base (positive value, subtracted).
    pub gap: i32,
    /// Band half-width around the main diagonal.
    pub band: usize,
}

impl Default for AlignParams {
    fn default() -> AlignParams {
        AlignParams {
            match_score: 1,
            mismatch: 1,
            gap: 2,
            band: 16,
        }
    }
}

/// Result of an alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Alignment {
    /// Best global alignment score.
    pub score: i32,
    /// Number of matching bases along the traceback-free estimate
    /// (upper-bounded by min(len_a, len_b)).
    pub matches: u32,
}

impl Alignment {
    /// Fraction of the shorter sequence that matched.
    #[must_use]
    pub fn identity(&self, len_a: usize, len_b: usize) -> f64 {
        let denom = len_a.min(len_b);
        if denom == 0 {
            0.0
        } else {
            f64::from(self.matches) / denom as f64
        }
    }
}

const NEG_INF: i32 = i32::MIN / 4;

/// Banded global alignment of `a` against `b`.
///
/// Cells outside the band around the main diagonal are treated as
/// unreachable. For sequences whose true alignment stays within the band
/// this equals full Needleman–Wunsch. Each row touches only its band, so
/// the cost is O(n · band).
#[must_use]
pub fn banded_align(a: &[u8], b: &[u8], p: AlignParams) -> Alignment {
    let (n, m) = (a.len(), b.len());
    if n == 0 || m == 0 {
        return Alignment {
            score: -(p.gap * (n + m) as i32),
            matches: 0,
        };
    }
    let band = p.band.max(n.abs_diff(m)) + 1;
    // dp[j] for current row i; j indexes b. The two row buffers are reused,
    // so left of the band a buffer may hold a value from two rows back:
    // the one such cell the band reads is reset before each row. The band's
    // right edge never moves left, so past the previous row's band (where
    // `prev[hi]` may lie) a buffer still holds its initial NEG_INF / 0.
    let mut prev = vec![NEG_INF; m + 1];
    let mut prev_matches = vec![0u32; m + 1];
    for (j, cell) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
        *cell = -(p.gap * j as i32);
    }
    let mut cur = vec![NEG_INF; m + 1];
    let mut cur_matches = vec![0u32; m + 1];
    for i in 1..=n {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(m);
        if lo == 0 {
            cur[0] = -(p.gap * i as i32);
        } else {
            cur[lo - 1] = NEG_INF;
            cur_matches[lo - 1] = 0;
        }
        for j in lo.max(1)..=hi {
            let sub = if a[i - 1] == b[j - 1] {
                p.match_score
            } else {
                -p.mismatch
            };
            let diag = prev[j - 1].saturating_add(sub);
            let up = prev[j].saturating_add(-p.gap);
            let left = cur[j - 1].saturating_add(-p.gap);
            let best = diag.max(up).max(left);
            cur[j] = best;
            cur_matches[j] = if best == diag {
                prev_matches[j - 1] + u32::from(a[i - 1] == b[j - 1])
            } else if best == up {
                prev_matches[j]
            } else {
                cur_matches[j - 1]
            };
        }
        core::mem::swap(&mut prev, &mut cur);
        core::mem::swap(&mut prev_matches, &mut cur_matches);
    }
    Alignment {
        score: prev[m],
        matches: prev_matches[m],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_score_length() {
        let s = [0u8, 1, 2, 3, 0, 1, 2, 3];
        let al = banded_align(&s, &s, AlignParams::default());
        assert_eq!(al.score, 8);
        assert_eq!(al.matches, 8);
        assert!((al.identity(8, 8) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_mismatch() {
        let a = [0u8, 1, 2, 3];
        let b = [0u8, 1, 0, 3];
        let al = banded_align(&a, &b, AlignParams::default());
        assert_eq!(al.score, 3 - 1);
        assert_eq!(al.matches, 3);
    }

    #[test]
    fn single_gap() {
        let a = [0u8, 1, 2, 3];
        let b = [0u8, 1, 3]; // deletion of '2'
        let al = banded_align(&a, &b, AlignParams::default());
        assert_eq!(al.score, 3 - 2);
    }

    #[test]
    fn empty_sequences() {
        let al = banded_align(&[], &[0, 1], AlignParams::default());
        assert_eq!(al.score, -4);
        assert_eq!(al.matches, 0);
        assert_eq!(al.identity(0, 2), 0.0);
    }

    #[test]
    fn band_covers_length_difference() {
        // Length difference larger than the nominal band must still align.
        let a = vec![1u8; 40];
        let mut b = vec![1u8; 80];
        b.truncate(40 + 30);
        let p = AlignParams {
            band: 2,
            ..AlignParams::default()
        };
        let al = banded_align(&a, &b, p);
        // 40 matches, 30 gap bases.
        assert_eq!(al.score, 40 - 2 * 30);
    }

    #[test]
    fn mismatch_vs_gap_tradeoff() {
        // With cheap gaps the aligner prefers gapping over mismatching.
        let a = [0u8, 1, 2, 3, 0];
        let b = [0u8, 1, 3, 0];
        let p = AlignParams {
            gap: 1,
            mismatch: 5,
            ..AlignParams::default()
        };
        let al = banded_align(&a, &b, p);
        assert_eq!(al.score, 4 - 1);
        assert_eq!(al.matches, 4);
    }

    #[test]
    fn noisy_sequence_identity() {
        use impact_core::rng::SimRng;
        let mut rng = SimRng::seed(5);
        let a: Vec<u8> = (0..200).map(|_| rng.below(4) as u8).collect();
        let mut b = a.clone();
        // 5% substitutions.
        for i in (0..b.len()).step_by(20) {
            b[i] = (b[i] + 1) % 4;
        }
        let al = banded_align(&a, &b, AlignParams::default());
        let id = al.identity(a.len(), b.len());
        assert!(id > 0.9, "identity = {id}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The full-row banded aligner: resets whole rows (O(n · m)) before
    /// filling each band. [`banded_align`] must agree with it exactly.
    fn reference_banded_align(a: &[u8], b: &[u8], p: AlignParams) -> Alignment {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            return Alignment {
                score: -(p.gap * (n + m) as i32),
                matches: 0,
            };
        }
        let band = p.band.max(n.abs_diff(m)) + 1;
        // dp[j] for current row i; j indexes b.
        let mut prev = vec![NEG_INF; m + 1];
        let mut prev_matches = vec![0u32; m + 1];
        prev[0] = 0;
        #[allow(clippy::needless_range_loop)]
        for j in 1..=m {
            prev[j] = if j <= band {
                -(p.gap * j as i32)
            } else {
                NEG_INF
            };
        }
        let mut cur = vec![NEG_INF; m + 1];
        let mut cur_matches = vec![0u32; m + 1];
        for i in 1..=n {
            cur.fill(NEG_INF);
            cur_matches.fill(0);
            let lo = i.saturating_sub(band);
            let hi = (i + band).min(m);
            if lo == 0 {
                cur[0] = -(p.gap * i as i32);
            }
            for j in lo.max(1)..=hi {
                let sub = if a[i - 1] == b[j - 1] {
                    p.match_score
                } else {
                    -p.mismatch
                };
                let diag = prev[j - 1].saturating_add(sub);
                let up = prev[j].saturating_add(-p.gap);
                let left = cur[j - 1].saturating_add(-p.gap);
                let best = diag.max(up).max(left);
                cur[j] = best;
                cur_matches[j] = if best == diag {
                    prev_matches[j - 1] + u32::from(a[i - 1] == b[j - 1])
                } else if best == up {
                    prev_matches[j]
                } else {
                    cur_matches[j - 1]
                };
            }
            core::mem::swap(&mut prev, &mut cur);
            core::mem::swap(&mut prev_matches, &mut cur_matches);
        }
        Alignment {
            score: prev[m],
            matches: prev_matches[m],
        }
    }

    proptest! {
        /// Resetting only the band's out-of-band neighbours gives the same
        /// score and match count as resetting whole rows.
        #[test]
        fn band_limited_matches_full_row_reset(
            a in prop::collection::vec(0u8..4, 0..120),
            b in prop::collection::vec(0u8..4, 0..120),
            band in 0usize..40,
            gap in 1u8..4,
            mismatch in 0u8..4,
        ) {
            let p = AlignParams {
                match_score: 1,
                mismatch: i32::from(mismatch),
                gap: i32::from(gap),
                band,
            };
            prop_assert_eq!(banded_align(&a, &b, p), reference_banded_align(&a, &b, p));
        }

        /// Near-identical sequences (the mapper's case) with a narrow band.
        #[test]
        fn band_limited_matches_on_noisy_copies(
            a in prop::collection::vec(0u8..4, 1..300),
            edits in prop::collection::vec((0usize..300, 0u8..3), 0..12),
            band in 0usize..20,
        ) {
            let mut b = a.clone();
            for (pos, kind) in edits {
                let pos = pos % (b.len() + 1);
                match kind {
                    0 if pos < b.len() => b[pos] = (b[pos] + 1) % 4,
                    1 => b.insert(pos, 0),
                    _ if pos < b.len() => {
                        b.remove(pos);
                    }
                    _ => {}
                }
            }
            let p = AlignParams {
                band,
                ..AlignParams::default()
            };
            prop_assert_eq!(banded_align(&a, &b, p), reference_banded_align(&a, &b, p));
        }
    }
}
