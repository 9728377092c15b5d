//! Multi-objective utilities for batch acquisition: random-weight
//! Chebyshev scalarisations (ParEGO-style) over the existing q-EI
//! constant-liar path, plus a 2-D hypervolume scorer for the area/delay
//! front.
//!
//! Everything here minimises: cost vectors are "lower is better" per
//! component, matching the evaluation stack's convention.

use rand::Rng;

/// An augmented Chebyshev scalarisation with fixed random weights.
///
/// `s(f) = max_i w_i f_i + ρ Σ_i w_i f_i` — the standard ParEGO form:
/// optimising `s` for weights drawn across iterations sweeps the whole
/// Pareto front, including non-convex regions a linear scalarisation
/// cannot reach; the small `ρ` term breaks ties toward dominating points.
#[derive(Clone, Debug)]
pub struct Scalarisation {
    /// Nonnegative weights summing to one.
    pub weights: Vec<f64>,
    /// The augmentation coefficient (ParEGO uses 0.05).
    pub rho: f64,
}

impl Scalarisation {
    /// Draws random weights uniformly from the `dim`-simplex.
    pub fn sample<R: Rng>(dim: usize, rng: &mut R) -> Scalarisation {
        let dim = dim.max(1);
        // Exponential spacings normalised to the simplex (the standard
        // uniform-Dirichlet construction).
        let draws: Vec<f64> = (0..dim)
            .map(|_| -(rng.gen_range(f64::EPSILON..1.0).ln()))
            .collect();
        let total: f64 = draws.iter().sum();
        Scalarisation {
            weights: draws.iter().map(|d| d / total).collect(),
            rho: 0.05,
        }
    }

    /// Scalarises one cost vector (lower is better).
    ///
    /// # Panics
    ///
    /// Panics if `costs` and the weights disagree on dimension.
    pub fn scalarise(&self, costs: &[f64]) -> f64 {
        assert_eq!(costs.len(), self.weights.len(), "dimension mismatch");
        let weighted: Vec<f64> = costs
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| c * w)
            .collect();
        let max = weighted.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        max + self.rho * weighted.iter().sum::<f64>()
    }
}

/// Whether `a` Pareto-dominates `b` (minimisation): no worse everywhere,
/// strictly better somewhere.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
}

/// The hypervolume reference of a 2-D point cloud: componentwise 1.1×
/// the worst (largest) cost plus `1e-9`, so every point, the worst
/// included, dominates some volume. The cloud holds nonnegative costs;
/// an empty one gets `(1e-9, 1e-9)`.
pub fn hypervolume_reference(points: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    let worst = points
        .into_iter()
        .fold((0.0f64, 0.0f64), |w, p| (w.0.max(p.0), w.1.max(p.1)));
    (worst.0 * 1.1 + 1e-9, worst.1 * 1.1 + 1e-9)
}

/// The 2-D hypervolume (minimisation) a point set dominates with respect
/// to `reference`: the area of `{ y : ∃p, p ≤ y ≤ reference }`. Points not
/// strictly better than the reference in both coordinates contribute
/// nothing; an empty set scores zero.
pub fn hypervolume_2d(points: &[(f64, f64)], reference: (f64, f64)) -> f64 {
    let mut front: Vec<(f64, f64)> = points
        .iter()
        .copied()
        .filter(|&(a, d)| a < reference.0 && d < reference.1)
        .collect();
    // Sort by the first coordinate; sweeping left to right, each point
    // contributes a rectangle down to the best second coordinate so far.
    front.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
    let mut volume = 0.0;
    let mut best_d = reference.1;
    for (a, d) in front {
        if d < best_d {
            volume += (reference.0 - a) * (best_d - d);
            best_d = d;
        }
    }
    volume
}

/// How much adding `candidate` grows the dominated hypervolume of `front`
/// (zero for dominated candidates) — the acquisition score steering the
/// multi-objective batch toward front expansion.
pub fn hypervolume_improvement_2d(
    front: &[(f64, f64)],
    candidate: (f64, f64),
    reference: (f64, f64),
) -> f64 {
    let mut extended = front.to_vec();
    extended.push(candidate);
    hypervolume_2d(&extended, reference) - hypervolume_2d(front, reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn scalarisation_weights_live_on_the_simplex() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let s = Scalarisation::sample(2, &mut rng);
            assert_eq!(s.weights.len(), 2);
            assert!((s.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(s.weights.iter().all(|&w| (0.0..=1.0).contains(&w)));
        }
    }

    #[test]
    fn scalarisation_prefers_dominating_points() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let s = Scalarisation::sample(2, &mut rng);
            // (0.4, 0.5) dominates (0.5, 0.6): every scalarisation with
            // the augmentation term must strictly prefer it.
            assert!(s.scalarise(&[0.4, 0.5]) < s.scalarise(&[0.5, 0.6]));
        }
    }

    #[test]
    fn nondominated_filter_matches_hand_computation() {
        assert!(dominates(&[1.0, 3.0], &[2.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[1.0, 3.0]));
    }

    #[test]
    fn hypervolume_of_known_fronts() {
        let reference = (4.0, 4.0);
        // One point: a simple rectangle.
        assert_eq!(hypervolume_2d(&[(2.0, 2.0)], reference), 4.0);
        // Two nondominated points: union of rectangles, overlap counted
        // once: (4-1)(4-3)=3 and (4-3)(4-1)=3 overlapping on 1×1.
        let hv = hypervolume_2d(&[(1.0, 3.0), (3.0, 1.0)], reference);
        assert!((hv - 5.0).abs() < 1e-12);
        // A dominated point adds nothing.
        let hv2 = hypervolume_2d(&[(1.0, 3.0), (3.0, 1.0), (3.5, 3.5)], reference);
        assert!((hv2 - 5.0).abs() < 1e-12);
        // Points at or beyond the reference contribute nothing.
        assert_eq!(hypervolume_2d(&[(4.0, 0.5), (5.0, 5.0)], reference), 0.0);
        assert_eq!(hypervolume_2d(&[], reference), 0.0);
    }

    #[test]
    fn hypervolume_improvement_rewards_front_expansion() {
        let reference = (4.0, 4.0);
        let front = [(1.0, 3.0), (3.0, 1.0)];
        // A point filling the middle gap improves the volume …
        let gain = hypervolume_improvement_2d(&front, (1.5, 1.5), reference);
        assert!(gain > 0.0);
        // … a dominated point does not.
        assert_eq!(
            hypervolume_improvement_2d(&front, (3.5, 3.5), reference),
            0.0
        );
        // Monotone: a dominating candidate gains at least as much.
        let better = hypervolume_improvement_2d(&front, (1.0, 1.0), reference);
        assert!(better >= gain);
    }
}
