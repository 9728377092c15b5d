//! The combinatorial search space `Alg^K`: token sequences, sampling
//! (uniform and Latin hypercube), Hamming geometry and pretty-printing.

use boils_synth::Transform;
use rand::Rng;

/// The space of synthesis sequences: length-`K` strings over the `n = 11`
/// transform alphabet (`|Alg^K| = 11^20 ≈ 6.7·10^20` at the paper's K).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SequenceSpace {
    length: usize,
    alphabet: usize,
}

impl SequenceSpace {
    /// The paper's search space: `K = 20` over all eleven transforms.
    pub fn paper() -> SequenceSpace {
        SequenceSpace::new(20, Transform::ALL.len())
    }

    /// A custom space.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0` or `alphabet` is 0 or exceeds the transform
    /// alphabet (11).
    pub fn new(length: usize, alphabet: usize) -> SequenceSpace {
        assert!(length > 0, "sequences must be non-empty");
        assert!(
            (1..=Transform::ALL.len()).contains(&alphabet),
            "alphabet must be 1..=11"
        );
        SequenceSpace { length, alphabet }
    }

    /// Sequence length `K`.
    pub fn length(&self) -> usize {
        self.length
    }

    /// Alphabet size `n`.
    pub fn alphabet(&self) -> usize {
        self.alphabet
    }

    /// Draws one uniform random sequence.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> Vec<u8> {
        (0..self.length)
            .map(|_| rng.gen_range(0..self.alphabet) as u8)
            .collect()
    }

    /// Draws `count` sequences by categorical Latin-hypercube sampling
    /// (pymoo-style): per position, category counts are balanced across the
    /// samples before being shuffled independently.
    pub fn latin_hypercube<R: Rng>(&self, count: usize, rng: &mut R) -> Vec<Vec<u8>> {
        let mut samples = vec![vec![0u8; self.length]; count];
        for pos in 0..self.length {
            // A balanced multiset of categories, then a Fisher–Yates shuffle.
            let mut column: Vec<u8> = (0..count)
                .map(|i| ((i * self.alphabet) / count.max(1)) as u8)
                .collect();
            for i in (1..column.len()).rev() {
                let j = rng.gen_range(0..=i);
                column.swap(i, j);
            }
            for (s, &c) in samples.iter_mut().zip(&column) {
                s[pos] = c;
            }
        }
        samples
    }

    /// The Hamming distance between two sequences.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn hamming(&self, a: &[u8], b: &[u8]) -> usize {
        assert_eq!(a.len(), b.len(), "sequences from different spaces");
        a.iter().zip(b).filter(|(x, y)| x != y).count()
    }

    /// Draws a random sequence within Hamming distance `radius` of `center`,
    /// at distance ≥ 1 whenever `radius ≥ 1` **and** the alphabet has at
    /// least two symbols. A one-symbol space contains exactly one sequence,
    /// so the distance contract is vacuous there and the centre is returned
    /// unchanged (same behaviour as [`SequenceSpace::random_neighbor_into`],
    /// and without consuming any RNG draws).
    pub fn sample_in_ball<R: Rng>(&self, center: &[u8], radius: usize, rng: &mut R) -> Vec<u8> {
        let mut out = center.to_vec();
        if radius == 0 || self.alphabet < 2 {
            return out;
        }
        let flips = rng.gen_range(1..=radius.min(self.length));
        // Choose distinct positions to mutate.
        let mut positions: Vec<usize> = (0..self.length).collect();
        for i in 0..flips {
            let j = rng.gen_range(i..positions.len());
            positions.swap(i, j);
        }
        for &pos in positions.iter().take(flips) {
            // A uniform draw over the alphabet minus the current symbol:
            // sample one of the `alphabet − 1` others and shift past `old`.
            let old = out[pos];
            let mut new = rng.gen_range(0..self.alphabet - 1) as u8;
            if new >= old {
                new += 1;
            }
            out[pos] = new;
        }
        out
    }

    /// Writes a uniformly random Hamming-1 neighbour of `seq` into `out`,
    /// reusing its allocation — inner loops probe thousands of neighbours
    /// (acquisition hill climbing). For a one-symbol alphabet `out` is a
    /// copy of `seq` (no neighbour exists at distance 1; see
    /// [`SequenceSpace::sample_in_ball`] for the same contract).
    pub fn random_neighbor_into<R: Rng>(&self, seq: &[u8], out: &mut Vec<u8>, rng: &mut R) {
        out.clear();
        out.extend_from_slice(seq);
        let pos = rng.gen_range(0..self.length);
        if self.alphabet > 1 {
            let old = out[pos];
            let mut new = rng.gen_range(0..self.alphabet - 1) as u8;
            if new >= old {
                new += 1;
            }
            out[pos] = new;
        }
    }

    /// Advances `tokens` to its lexicographic successor in the space,
    /// wrapping from the all-max sequence back to all-zeros (an odometer in
    /// base `alphabet`). Starting anywhere and advancing repeatedly visits
    /// every one of the `alphabet^length` sequences exactly once before
    /// returning to the start — the deterministic sweep the optimisers fall
    /// back to when random resampling cannot find an unevaluated candidate.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` has the wrong length; debug builds also reject
    /// out-of-alphabet symbols (a cursor outside the space would break the
    /// exactly-once cycle that exhaustion detection relies on).
    pub fn advance(&self, tokens: &mut [u8]) {
        assert_eq!(tokens.len(), self.length, "sequence from a different space");
        debug_assert!(
            tokens.iter().all(|&t| (t as usize) < self.alphabet),
            "sequence outside the alphabet"
        );
        for t in tokens.iter_mut().rev() {
            if (*t as usize) + 1 < self.alphabet {
                *t += 1;
                return;
            }
            *t = 0;
        }
    }

    /// Decodes tokens into transforms.
    ///
    /// # Panics
    ///
    /// Panics if a token is outside the alphabet.
    pub fn decode(&self, tokens: &[u8]) -> Vec<Transform> {
        tokens
            .iter()
            .map(|&t| {
                assert!((t as usize) < self.alphabet, "token out of alphabet");
                Transform::from_index(t as usize)
            })
            .collect()
    }

    /// Renders a token sequence with the paper's two-letter codes.
    pub fn display(&self, tokens: &[u8]) -> String {
        tokens
            .iter()
            .map(|&t| Transform::from_index(t as usize).code())
            .collect::<Vec<_>>()
            .join(";")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_space_shape() {
        let s = SequenceSpace::paper();
        assert_eq!(s.length(), 20);
        assert_eq!(s.alphabet(), 11);
    }

    #[test]
    fn samples_stay_in_alphabet() {
        let s = SequenceSpace::new(10, 5);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            let seq = s.sample(&mut rng);
            assert_eq!(seq.len(), 10);
            assert!(seq.iter().all(|&t| t < 5));
        }
    }

    #[test]
    fn latin_hypercube_balances_categories() {
        let s = SequenceSpace::new(6, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let samples = s.latin_hypercube(8, &mut rng);
        assert_eq!(samples.len(), 8);
        // With 8 samples over 4 categories, each category appears exactly
        // twice in every position.
        for pos in 0..6 {
            let mut counts = [0usize; 4];
            for sample in &samples {
                counts[sample[pos] as usize] += 1;
            }
            assert_eq!(counts, [2, 2, 2, 2], "position {pos}: {counts:?}");
        }
    }

    #[test]
    fn ball_sampling_respects_radius() {
        let s = SequenceSpace::new(12, 11);
        let mut rng = StdRng::seed_from_u64(2);
        let center = s.sample(&mut rng);
        for radius in 1..=12 {
            for _ in 0..50 {
                let p = s.sample_in_ball(&center, radius, &mut rng);
                let d = s.hamming(&center, &p);
                assert!(d >= 1 && d <= radius, "distance {d} vs radius {radius}");
            }
        }
    }

    #[test]
    fn neighbors_are_at_distance_one() {
        let s = SequenceSpace::new(8, 11);
        let mut rng = StdRng::seed_from_u64(3);
        let seq = s.sample(&mut rng);
        let mut n = Vec::new();
        for _ in 0..100 {
            s.random_neighbor_into(&seq, &mut n, &mut rng);
            assert_eq!(s.hamming(&seq, &n), 1);
        }
    }

    #[test]
    fn ball_sampling_in_a_one_symbol_space_returns_the_centre() {
        // `alphabet == 1` has a single point: the distance-≥-1 contract is
        // vacuous and the centre must come back unchanged (and without
        // consuming RNG draws, so callers stay deterministic).
        let s = SequenceSpace::new(5, 1);
        let center = vec![0u8; 5];
        let mut rng = StdRng::seed_from_u64(4);
        for radius in [1usize, 3, 5] {
            assert_eq!(s.sample_in_ball(&center, radius, &mut rng), center);
        }
        let mut untouched = StdRng::seed_from_u64(4);
        assert_eq!(
            rng.gen_range(0..1_000_000usize),
            untouched.gen_range(0..1_000_000usize),
            "sample_in_ball consumed RNG draws in a one-symbol space"
        );
    }

    #[test]
    fn ball_sampling_keeps_its_distance_contract_for_a_binary_alphabet() {
        // The smallest alphabet where distance ≥ 1 is satisfiable: every
        // flip must toggle the bit (there is exactly one other symbol).
        let s = SequenceSpace::new(6, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let center = s.sample(&mut rng);
        for radius in 1..=6 {
            for _ in 0..50 {
                let p = s.sample_in_ball(&center, radius, &mut rng);
                let d = s.hamming(&center, &p);
                assert!((1..=radius).contains(&d), "distance {d} vs radius {radius}");
                assert!(p.iter().all(|&t| t < 2));
            }
        }
    }

    #[test]
    fn neighbors_in_tiny_alphabets() {
        let mut rng = StdRng::seed_from_u64(6);
        // alphabet 1: no Hamming-1 neighbour exists; the input comes back.
        let s1 = SequenceSpace::new(4, 1);
        let seq = vec![0u8; 4];
        let mut n = vec![1u8; 7];
        s1.random_neighbor_into(&seq, &mut n, &mut rng);
        assert_eq!(n, seq);
        // alphabet 2: the neighbour always toggles exactly one position.
        let s2 = SequenceSpace::new(4, 2);
        let seq = s2.sample(&mut rng);
        for _ in 0..50 {
            s2.random_neighbor_into(&seq, &mut n, &mut rng);
            assert_eq!(s2.hamming(&seq, &n), 1);
            assert!(n.iter().all(|&t| t < 2));
        }
    }

    #[test]
    fn advance_visits_every_sequence_exactly_once() {
        let s = SequenceSpace::new(3, 3);
        let mut seen = std::collections::HashSet::new();
        let mut cur = vec![1u8, 2, 0];
        let start = cur.clone();
        loop {
            assert!(seen.insert(cur.clone()), "revisited {cur:?}");
            s.advance(&mut cur);
            if cur == start {
                break;
            }
        }
        assert_eq!(seen.len(), 27, "odometer must cover the whole space");
    }

    #[test]
    fn advance_wraps_and_handles_a_one_symbol_space() {
        let s = SequenceSpace::new(4, 11);
        let mut cur = vec![10u8, 10, 10, 10];
        s.advance(&mut cur);
        assert_eq!(cur, vec![0, 0, 0, 0]);
        s.advance(&mut cur);
        assert_eq!(cur, vec![0, 0, 0, 1]);
        // A one-symbol space wraps immediately: its only sequence succeeds
        // itself.
        let s1 = SequenceSpace::new(3, 1);
        let mut only = vec![0u8; 3];
        s1.advance(&mut only);
        assert_eq!(only, vec![0, 0, 0]);
    }

    #[test]
    fn display_uses_paper_codes() {
        let s = SequenceSpace::paper();
        assert_eq!(s.display(&[0, 6, 7]), "Rw;Ba;Fr");
    }
}
