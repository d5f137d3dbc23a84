//! The end-to-end read mapper with an observable seeding stage.
//!
//! The IMPACT side channel watches the victim's hash-table probes. The
//! mapper reports every bucket access through a [`SeedAccessObserver`];
//! it probes exactly the buckets of [`seed_probes`], which is how the side
//! channel records the same stream without mapping.

use crate::align::{banded_align, AlignParams, Alignment};
use crate::chain::{chain_anchors, Anchor, Chain};
use crate::genome::{Genome, ReadSeq};
use crate::index::{seed_probes, KmerIndex};

/// Observer of the seeding stage's hash-table accesses.
pub trait SeedAccessObserver {
    /// Called once per hash-table bucket probe.
    fn on_bucket_access(&mut self, bucket: usize);
}

/// A no-op observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SeedAccessObserver for NullObserver {
    fn on_bucket_access(&mut self, _bucket: usize) {}
}

/// An observer that records the bucket sequence (ground truth for leak
/// scoring).
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    /// The observed bucket sequence.
    pub buckets: Vec<usize>,
}

impl SeedAccessObserver for RecordingObserver {
    fn on_bucket_access(&mut self, bucket: usize) {
        self.buckets.push(bucket);
    }
}

/// Result of mapping one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapResult {
    /// Best mapping position on the reference.
    pub position: usize,
    /// Chain score from seeding.
    pub chain_score: i64,
    /// Alignment of the read against the candidate region.
    pub alignment: Alignment,
    /// Number of anchors supporting the mapping.
    pub anchors: usize,
}

/// The read mapper: seeding → chaining → alignment (Fig. 6).
#[derive(Debug, Clone, Copy)]
pub struct ReadMapper<'a> {
    genome: &'a Genome,
    index: &'a KmerIndex,
    align_params: AlignParams,
}

impl<'a> ReadMapper<'a> {
    /// Creates a mapper over a genome and its index.
    #[must_use]
    pub fn new(genome: &'a Genome, index: &'a KmerIndex) -> ReadMapper<'a> {
        ReadMapper {
            genome,
            index,
            align_params: AlignParams::default(),
        }
    }

    /// Overrides the alignment parameters.
    #[must_use]
    pub fn with_align_params(mut self, p: AlignParams) -> ReadMapper<'a> {
        self.align_params = p;
        self
    }

    /// Maps a read, reporting every hash-table probe to `obs`.
    ///
    /// Returns `None` when no seed of the read occurs in the index.
    pub fn map_read_observed(
        &self,
        read: &ReadSeq,
        obs: &mut dyn SeedAccessObserver,
    ) -> Option<MapResult> {
        let probes = seed_probes(
            &read.bases,
            self.index.k(),
            self.index.w(),
            self.index.num_buckets(),
        );
        let mut anchors = Vec::new();
        for (m, bucket) in probes {
            obs.on_bucket_access(bucket);
            for &ref_pos in self.index.bucket_positions(bucket) {
                anchors.push(Anchor {
                    read_pos: m.pos as u32,
                    ref_pos,
                });
            }
        }
        if anchors.is_empty() {
            return None;
        }
        let chain: Chain = chain_anchors(&anchors, 10, 1);
        let position = chain.mapping_position(&anchors)?.max(0) as usize;
        let region = self
            .genome
            .slice(position, read.len() + self.align_params.band);
        let alignment = banded_align(&read.bases, region, self.align_params);
        Some(MapResult {
            position,
            chain_score: chain.score,
            alignment,
            anchors: chain.anchors.len(),
        })
    }

    /// Maps a read without observation.
    pub fn map_read(&self, read: &ReadSeq) -> Option<MapResult> {
        self.map_read_observed(read, &mut NullObserver)
    }

    /// Maps a batch of reads, observing all probes.
    pub fn map_reads_observed(
        &self,
        reads: &[ReadSeq],
        obs: &mut dyn SeedAccessObserver,
    ) -> Vec<Option<MapResult>> {
        reads
            .iter()
            .map(|r| self.map_read_observed(r, obs))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::ReadSampler;

    fn setup() -> (Genome, KmerIndex) {
        let g = Genome::synthesize(20_000, 21);
        let idx = KmerIndex::build(&g, 15, 5, 16384);
        (g, idx)
    }

    #[test]
    fn exact_reads_map_to_origin() {
        let (g, idx) = setup();
        let mapper = ReadMapper::new(&g, &idx);
        let mut s = ReadSampler::new(1);
        let reads = s.sample(&g, 40, 150, 0.0);
        let mut correct = 0;
        for r in &reads {
            if let Some(m) = mapper.map_read(r) {
                if m.position.abs_diff(r.true_position) <= 20 {
                    correct += 1;
                }
            }
        }
        assert!(correct >= 38, "correct = {correct}/40");
    }

    #[test]
    fn noisy_reads_still_map() {
        let (g, idx) = setup();
        let mapper = ReadMapper::new(&g, &idx);
        let mut s = ReadSampler::new(2);
        let reads = s.sample(&g, 40, 150, 0.02);
        let correct = reads
            .iter()
            .filter(|r| {
                mapper
                    .map_read(r)
                    .is_some_and(|m| m.position.abs_diff(r.true_position) <= 20)
            })
            .count();
        assert!(correct >= 30, "correct = {correct}/40");
    }

    #[test]
    fn observer_sees_probes() {
        let (g, idx) = setup();
        let mapper = ReadMapper::new(&g, &idx);
        let mut s = ReadSampler::new(3);
        let reads = s.sample(&g, 5, 150, 0.0);
        let mut obs = RecordingObserver::default();
        mapper.map_reads_observed(&reads, &mut obs);
        assert!(!obs.buckets.is_empty());
        assert!(obs.buckets.iter().all(|&b| b < idx.num_buckets()));
    }

    #[test]
    fn alignment_identity_high_for_exact_reads() {
        let (g, idx) = setup();
        let mapper = ReadMapper::new(&g, &idx);
        let mut s = ReadSampler::new(4);
        let reads = s.sample(&g, 10, 120, 0.0);
        for r in &reads {
            let m = mapper.map_read(r).expect("mapped");
            let id = m.alignment.identity(r.len(), r.len());
            assert!(id > 0.95, "identity = {id}");
        }
    }

    #[test]
    fn foreign_read_unmapped_or_low_score() {
        let (g, idx) = setup();
        let mapper = ReadMapper::new(&g, &idx);
        // A read from a different genome should either fail to seed or map
        // with a weak chain.
        let other = Genome::synthesize(1_000, 999);
        let read = ReadSeq {
            bases: other.slice(0, 150).to_vec(),
            true_position: 0,
        };
        match mapper.map_read(&read) {
            None => {}
            Some(m) => assert!(m.anchors <= 3, "foreign read chained {} anchors", m.anchors),
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::genome::ReadSampler;
    use proptest::prelude::*;

    proptest! {
        /// The seeding probes alone, with no index, chaining or alignment,
        /// are exactly the bucket stream the full mapper reports: the
        /// side channel's victim stream is the mapper's by construction.
        #[test]
        fn seed_probes_are_the_mappers_probe_stream(
            genome_seed in 0u64..1_000_000,
            genome_len in 1_000usize..20_000,
            reads in 0usize..24,
            read_len in 5usize..200,
            error_permille in 0u32..150,
            focus_percent in 0u32..101,
            focus_len in 1usize..400,
            buckets_pick in 0usize..4,
            random_buckets in 1usize..40_000,
        ) {
            // Powers of two, a non-power-of-two count, a count below the
            // 1024-bank minimum of Fig. 11, and an arbitrary one.
            let buckets = [16_384, 1_000, 96, random_buckets][buckets_pick];
            let genome = Genome::synthesize(genome_len, genome_seed);
            let focus_start = genome_len / 3;
            let reads = ReadSampler::new(genome_seed ^ 0xBEEF).sample_focused(
                &genome,
                reads,
                read_len,
                f64::from(error_permille) / 1000.0,
                f64::from(focus_percent) / 100.0,
                focus_start,
                focus_len.min(genome_len - focus_start - read_len),
            );
            let index = KmerIndex::build(&genome, 15, 5, buckets);
            let mut recorder = RecordingObserver::default();
            ReadMapper::new(&genome, &index).map_reads_observed(&reads, &mut recorder);
            let seeded: Vec<usize> = reads
                .iter()
                .flat_map(|r| seed_probes(&r.bases, 15, 5, buckets))
                .map(|(_, bucket)| bucket)
                .collect();
            prop_assert_eq!(seeded, recorder.buckets);
        }
    }
}
