//! Minimizer extraction and the bank-distributed seed hash table.
//!
//! Seeding (§4.3, Fig. 6) hashes small segments (k-mers) of the reference
//! and stores their positions in a hash table. Like minimap2 we keep only
//! window minimizers. The table is interleaved across DRAM banks
//! ([`BankLayout`]) — the paper argues this is realistic because modern
//! controllers interleave consecutive chunks across banks for parallelism.

use impact_core::rng::SimRng;

use crate::genome::Genome;

/// 64-bit finalizer (splitmix64-style) used as the k-mer hash.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Packs `k` bases (2 bits each) starting at `pos` into an integer.
///
/// Returns `None` if the window exceeds the sequence.
#[must_use]
pub fn pack_kmer(seq: &[u8], pos: usize, k: usize) -> Option<u64> {
    if pos + k > seq.len() || k == 0 || k > 32 {
        return None;
    }
    let mut v = 0u64;
    for &b in &seq[pos..pos + k] {
        v = (v << 2) | u64::from(b);
    }
    Some(v)
}

/// A selected minimizer: position and hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Minimizer {
    /// Start position of the k-mer in the sequence.
    pub pos: usize,
    /// Hash of the k-mer.
    pub hash: u64,
}

/// Extracts window minimizers: the minimal-hash k-mer of every window of
/// `w` consecutive k-mers, deduplicated.
#[must_use]
pub fn minimizers(seq: &[u8], k: usize, w: usize) -> Vec<Minimizer> {
    if seq.len() < k || k == 0 {
        return Vec::new();
    }
    let n_kmers = seq.len() - k + 1;
    let hashes: Vec<u64> = (0..n_kmers)
        .map(|i| mix64(pack_kmer(seq, i, k).expect("bounds checked")))
        .collect();
    let w = w.max(1);
    let mut out: Vec<Minimizer> = Vec::new();
    for win_start in 0..n_kmers.saturating_sub(w - 1) {
        let (best_off, best_hash) = hashes[win_start..win_start + w]
            .iter()
            .enumerate()
            .min_by_key(|(_, &h)| h)
            .map(|(i, &h)| (i, h))
            .expect("window non-empty");
        let m = Minimizer {
            pos: win_start + best_off,
            hash: best_hash,
        };
        if out.last() != Some(&m) {
            out.push(m);
        }
    }
    out
}

/// The seeding step's hash-table probes of `seq`, in probe order: each
/// window minimizer with the bucket (`hash % num_buckets`) it looks up.
///
/// [`KmerIndex::build`] files reference minimizers under these buckets and
/// [`crate::mapper::ReadMapper`] probes exactly these buckets for a read,
/// so the victim's observable probe stream needs no index to compute.
///
/// # Panics
///
/// Panics if `num_buckets` is 0.
pub fn seed_probes(
    seq: &[u8],
    k: usize,
    w: usize,
    num_buckets: usize,
) -> impl Iterator<Item = (Minimizer, usize)> {
    assert!(num_buckets > 0, "need at least one bucket");
    minimizers(seq, k, w)
        .into_iter()
        .map(move |m| (m, (m.hash % num_buckets as u64) as usize))
}

/// Placement of hash-table buckets across DRAM banks (§4.3, Fig. 7):
/// bucket `b` lives in bank `b % banks`; the buckets of one bank pack into
/// rows of `buckets_per_row` entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankLayout {
    /// Number of DRAM banks holding the table.
    pub banks: usize,
    /// Total hash-table buckets.
    pub buckets: usize,
    /// Buckets stored per DRAM row.
    pub buckets_per_row: usize,
}

impl BankLayout {
    /// Creates a layout; `buckets_per_row` defaults from an 8 KiB row of
    /// 8-byte entries when 0 is passed.
    #[must_use]
    pub fn new(banks: usize, buckets: usize, buckets_per_row: usize) -> BankLayout {
        BankLayout {
            banks: banks.max(1),
            buckets: buckets.max(1),
            buckets_per_row: if buckets_per_row == 0 {
                1024
            } else {
                buckets_per_row
            },
        }
    }

    /// Bank holding `bucket`.
    #[must_use]
    pub fn bank_of(&self, bucket: usize) -> usize {
        bucket % self.banks
    }

    /// Row (within the bank's table region) holding `bucket`.
    #[must_use]
    pub fn row_of(&self, bucket: usize) -> u64 {
        ((bucket / self.banks) / self.buckets_per_row) as u64
    }

    /// Buckets co-resident in `bucket`'s bank — the attacker's residual
    /// ambiguity after identifying the bank (§6.3: 16 entries at 1024
    /// banks, 8 at 2048, ...).
    #[must_use]
    pub fn buckets_per_bank(&self) -> usize {
        self.buckets.div_ceil(self.banks)
    }

    /// Information (bits) leaked by one correctly identified bank access:
    /// log2(buckets) − log2(buckets_per_bank) = log2(banks) for an evenly
    /// divided table.
    #[must_use]
    pub fn bits_per_identified_access(&self) -> f64 {
        (self.buckets as f64).log2() - (self.buckets_per_bank() as f64).log2()
    }
}

/// The seed hash table: bucketized minimizer → reference positions.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    k: usize,
    w: usize,
    buckets: Vec<Vec<u32>>,
}

impl KmerIndex {
    /// Builds the index over `genome` with k-mer size `k`, window `w` and
    /// `num_buckets` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds 32, or `num_buckets` is 0.
    #[must_use]
    pub fn build(genome: &Genome, k: usize, w: usize, num_buckets: usize) -> KmerIndex {
        assert!(k > 0 && k <= 32, "k must be in 1..=32");
        let mut buckets = vec![Vec::new(); num_buckets];
        for (m, bucket) in seed_probes(genome.bases(), k, w, num_buckets) {
            buckets[bucket].push(m.pos as u32);
        }
        KmerIndex { k, w, buckets }
    }

    /// K-mer size.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Minimizer window.
    #[must_use]
    pub fn w(&self) -> usize {
        self.w
    }

    /// Number of buckets.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Reference positions stored in bucket `bucket`: what a seeding
    /// probe ([`seed_probes`]) reads, and the attacker-side candidate
    /// enumeration in the completion attack.
    #[must_use]
    pub fn bucket_positions(&self, bucket: usize) -> &[u32] {
        &self.buckets[bucket]
    }

    /// Number of non-empty buckets (diagnostics).
    #[must_use]
    pub fn occupied_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| !b.is_empty()).count()
    }

    /// A random occupied bucket (test helper for synthetic victims).
    pub fn random_occupied_bucket(&self, rng: &mut SimRng) -> usize {
        loop {
            let b = rng.below(self.buckets.len() as u64) as usize;
            if !self.buckets[b].is_empty() {
                return b;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_kmer_bounds() {
        let seq = [0u8, 1, 2, 3];
        assert_eq!(pack_kmer(&seq, 0, 4), Some(0b00_01_10_11));
        assert_eq!(pack_kmer(&seq, 1, 4), None);
        assert_eq!(pack_kmer(&seq, 0, 0), None);
    }

    #[test]
    fn minimizers_cover_sequence() {
        let g = Genome::synthesize(1000, 11);
        let ms = minimizers(g.bases(), 15, 5);
        assert!(!ms.is_empty());
        // Density ~ 2/(w+1) per position: expect roughly 2*986/6 = 330.
        assert!((150..=500).contains(&ms.len()), "count = {}", ms.len());
        // Positions strictly increasing after dedup? (non-decreasing and
        // unique as (pos,hash) pairs)
        for pair in ms.windows(2) {
            assert!(pair[0].pos <= pair[1].pos);
            assert_ne!(pair[0], pair[1]);
        }
    }

    #[test]
    fn identical_windows_share_minimizers() {
        let g = Genome::synthesize(500, 3);
        let a = minimizers(g.bases(), 11, 4);
        let b = minimizers(g.bases(), 11, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn index_lookup_finds_origin() {
        let g = Genome::synthesize(5_000, 13);
        let idx = KmerIndex::build(&g, 15, 5, 4096);
        // Every minimizer of the genome must be findable at its position.
        for (m, bucket) in seed_probes(g.bases(), 15, 5, idx.num_buckets()).take(100) {
            assert!(
                idx.bucket_positions(bucket).contains(&(m.pos as u32)),
                "minimizer at {} missing",
                m.pos
            );
        }
    }

    #[test]
    fn bank_layout_paper_example() {
        // 16384 entries over 1024 banks -> 16 entries per bank (§6.3).
        let l = BankLayout::new(1024, 16384, 0);
        assert_eq!(l.buckets_per_bank(), 16);
        assert!((l.bits_per_identified_access() - 10.0).abs() < 1e-9);
        // 2048 banks -> 8 entries, more precise leak (11 bits).
        let l2 = BankLayout::new(2048, 16384, 0);
        assert_eq!(l2.buckets_per_bank(), 8);
        assert!(l2.bits_per_identified_access() > l.bits_per_identified_access());
    }

    #[test]
    fn bank_layout_mapping_consistent() {
        let l = BankLayout::new(16, 1 << 14, 1024);
        for bucket in [0usize, 1, 15, 16, 17, 9999] {
            assert_eq!(l.bank_of(bucket), bucket % 16);
            assert!(l.row_of(bucket) <= 1);
        }
    }

    #[test]
    fn occupied_buckets_reasonable() {
        let g = Genome::synthesize(20_000, 17);
        let idx = KmerIndex::build(&g, 15, 5, 16384);
        let occ = idx.occupied_buckets();
        // ~6.6k minimizers into 16k buckets: expect thousands occupied.
        assert!(occ > 2000, "occupied = {occ}");
    }

    #[test]
    fn random_occupied_bucket_is_occupied() {
        let g = Genome::synthesize(5_000, 19);
        let idx = KmerIndex::build(&g, 15, 5, 512);
        let mut rng = SimRng::seed(1);
        for _ in 0..20 {
            let b = idx.random_occupied_bucket(&mut rng);
            assert!(!idx.bucket_positions(b).is_empty());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every window of w consecutive k-mers contains at least one
        /// selected minimizer (the coverage guarantee seeding relies on).
        #[test]
        fn minimizers_cover_every_window(
            seq in prop::collection::vec(0u8..4, 30..200),
            k in 5usize..12,
            w in 2usize..8,
        ) {
            prop_assume!(seq.len() >= k + w);
            let ms = minimizers(&seq, k, w);
            let n_kmers = seq.len() - k + 1;
            for win in 0..(n_kmers - w + 1) {
                let covered = ms.iter().any(|m| m.pos >= win && m.pos < win + w);
                prop_assert!(covered, "window {win} uncovered");
            }
        }

        /// Selected minimizers really are the minimal hash of some window.
        #[test]
        fn minimizers_are_window_minima(
            seq in prop::collection::vec(0u8..4, 30..150),
        ) {
            let (k, w) = (7usize, 4usize);
            prop_assume!(seq.len() >= k + w);
            let ms = minimizers(&seq, k, w);
            for m in &ms {
                let h = mix64(pack_kmer(&seq, m.pos, k).unwrap());
                prop_assert_eq!(h, m.hash);
            }
        }

        /// pack_kmer is injective over its window for fixed k.
        #[test]
        fn pack_kmer_injective(
            a in prop::collection::vec(0u8..4, 8),
            b in prop::collection::vec(0u8..4, 8),
        ) {
            let pa = pack_kmer(&a, 0, 8).unwrap();
            let pb = pack_kmer(&b, 0, 8).unwrap();
            prop_assert_eq!(pa == pb, a == b);
        }

        /// Bank layout: every bucket maps to a valid bank; buckets of one
        /// bank are exactly those congruent mod banks.
        #[test]
        fn layout_partition(banks in 1usize..64, buckets in 1usize..4096, probe in 0usize..4096) {
            let l = BankLayout::new(banks, buckets, 0);
            prop_assume!(probe < buckets);
            let bank = l.bank_of(probe);
            prop_assert!(bank < banks);
            prop_assert_eq!(bank, probe % banks);
        }
    }
}
