//! A genetic algorithm over synthesis sequences, following the shape of the
//! `geneticalgorithm2` package the paper uses: elitism, tournament
//! selection, uniform crossover and per-gene mutation.
//!
//! Each generation's offspring are bred serially (preserving the RNG
//! stream) and then scored as one parallel batch through the shared
//! [`BatchEvaluator`], so the evolution trajectory is identical at any
//! thread count.

use boils_core::{
    BatchEvaluator, EvalRecord, OptimizationResult, RunControl, SequenceObjective, SequenceSpace,
    Termination,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Genetic-algorithm settings.
///
/// The evolution operators are private constants: `ELITES` (2 copied
/// unchanged each generation), `TOURNAMENT` (3-way selection),
/// `CROSSOVER_RATE` (0.9; the other offspring clone a parent) and
/// `MUTATION_RATE` (0.1 per gene).
#[derive(Clone, Debug)]
pub struct GaConfig {
    /// Population size (clamped to the budget).
    pub population: usize,
    /// Worker threads for scoring each generation's population.
    pub threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 20,
            threads: 1,
            seed: 0,
        }
    }
}

/// Number of elites copied unchanged each generation.
const ELITES: usize = 2;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Per-gene mutation probability.
const MUTATION_RATE: f64 = 0.1;
/// Probability that an offspring undergoes crossover (else it clones a
/// parent).
const CROSSOVER_RATE: f64 = 0.9;

/// The smallest budget the GA runs at: a population of two.
pub(crate) const MIN_BUDGET: usize = 2;

/// Runs the GA until the evaluation budget is exhausted, or until
/// `control`'s cancel or deadline stops the evolution at the next
/// evaluation boundary with best-so-far; `None` only when nothing at all
/// was evaluated.
///
/// ```no_run
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::{QorEvaluator, RunControl, SequenceSpace};
/// use boils_baselines::{genetic_algorithm, GaConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::Square).build();
/// let evaluator = QorEvaluator::new(&aig)?;
/// let config = GaConfig::default();
/// let result =
///     genetic_algorithm(&evaluator, SequenceSpace::paper(), 100, &config, &RunControl::new())
///         .expect("an uncontrolled run evaluates");
/// println!("best {:.4}", result.best_qor);
/// # Ok(())
/// # }
/// ```
pub fn genetic_algorithm<O: SequenceObjective>(
    objective: &O,
    space: SequenceSpace,
    budget: usize,
    config: &GaConfig,
    control: &RunControl,
) -> Option<OptimizationResult> {
    assert!(budget >= MIN_BUDGET, "budget too small for a population");
    let engine = BatchEvaluator::new(config.threads);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pop_size = config.population.clamp(2, budget);
    let mut history: Vec<EvalRecord> = Vec::with_capacity(budget);
    let mut quarantined: Vec<Vec<u8>> = Vec::new();

    // Initial population via Latin hypercube, scored as one batch.
    let mut seeds: Vec<Vec<u8>> = space.latin_hypercube(pop_size, &mut rng);
    seeds.truncate(budget);
    let outcome = engine.evaluate(objective, &seeds, control);
    quarantined.extend(outcome.quarantined.iter().cloned());
    let mut stop = outcome.stopped;
    let mut population: Vec<(Vec<u8>, f64)> = Vec::with_capacity(pop_size);
    for (tokens, point) in outcome.resolved_prefix(&seeds) {
        history.push(EvalRecord {
            tokens: tokens.clone(),
            point,
        });
        population.push((tokens, point.qor));
    }
    if history.is_empty() {
        return None;
    }

    while stop.is_none() && history.len() < budget {
        if let Some(reason) = control.stop_reason() {
            stop = Some(reason);
            break;
        }
        population.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite QoR"));
        let mut next: Vec<(Vec<u8>, f64)> = population
            .iter()
            .take(ELITES.min(population.len()))
            .cloned()
            .collect();
        // Breed the whole generation first (serial RNG), then score it as
        // one parallel batch.
        let brood = pop_size
            .saturating_sub(next.len())
            .min(budget - history.len());
        if brood == 0 {
            // A population of two is all elites; it would otherwise spin
            // without spending budget.
            break;
        }
        let mut offspring: Vec<Vec<u8>> = Vec::with_capacity(brood);
        for _ in 0..brood {
            let p1 = tournament(&population, TOURNAMENT, &mut rng);
            let child = if rng.gen_bool(CROSSOVER_RATE) {
                let p2 = tournament(&population, TOURNAMENT, &mut rng);
                uniform_crossover(&population[p1].0, &population[p2].0, &mut rng)
            } else {
                population[p1].0.clone()
            };
            offspring.push(mutate(&space, &child, MUTATION_RATE, &mut rng));
        }
        let outcome = engine.evaluate(objective, &offspring, control);
        quarantined.extend(outcome.quarantined.iter().cloned());
        for (mutated, point) in outcome.resolved_prefix(&offspring) {
            history.push(EvalRecord {
                tokens: mutated.clone(),
                point,
            });
            next.push((mutated, point.qor));
        }
        population = next;
        if outcome.stopped.is_some() {
            stop = outcome.stopped;
            break;
        }
    }
    let termination = stop.map(Termination::from).unwrap_or_default();
    let mut result = OptimizationResult::from_history_terminated(&space, history, termination);
    result.quarantined = quarantined;
    result.objective = objective.cost_name();
    Some(result)
}

fn tournament<R: Rng>(population: &[(Vec<u8>, f64)], k: usize, rng: &mut R) -> usize {
    let mut best = rng.gen_range(0..population.len());
    for _ in 1..k.max(1) {
        let cand = rng.gen_range(0..population.len());
        if population[cand].1 < population[best].1 {
            best = cand;
        }
    }
    best
}

fn uniform_crossover<R: Rng>(a: &[u8], b: &[u8], rng: &mut R) -> Vec<u8> {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
        .collect()
}

fn mutate<R: Rng>(space: &SequenceSpace, tokens: &[u8], rate: f64, rng: &mut R) -> Vec<u8> {
    tokens
        .iter()
        .map(|&t| {
            if rng.gen_bool(rate) {
                rng.gen_range(0..space.alphabet()) as u8
            } else {
                t
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;
    use boils_core::QorEvaluator;

    #[test]
    fn ga_spends_exactly_the_budget() {
        let e = QorEvaluator::new(&random_aig(41, 8, 300, 3)).expect("ok");
        let r = genetic_algorithm(
            &e,
            SequenceSpace::new(5, 11),
            30,
            &GaConfig {
                population: 8,
                seed: 1,
                ..GaConfig::default()
            },
            &RunControl::new(),
        )
        .expect("uncontrolled run");
        assert_eq!(r.num_evaluations(), 30);
    }

    #[test]
    fn ga_improves_over_its_initial_population() {
        let e = QorEvaluator::new(&random_aig(43, 8, 400, 3)).expect("ok");
        let r = genetic_algorithm(
            &e,
            SequenceSpace::new(6, 11),
            40,
            &GaConfig {
                population: 10,
                seed: 2,
                ..GaConfig::default()
            },
            &RunControl::new(),
        )
        .expect("uncontrolled run");
        let initial_best = r.history[..10]
            .iter()
            .map(|h| h.point.qor)
            .fold(f64::INFINITY, f64::min);
        assert!(r.best_qor <= initial_best);
    }

    #[test]
    fn crossover_and_mutation_stay_in_space() {
        let space = SequenceSpace::new(10, 11);
        let mut rng = StdRng::seed_from_u64(3);
        let a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        for _ in 0..50 {
            let child = uniform_crossover(&a, &b, &mut rng);
            assert!(child
                .iter()
                .zip(a.iter().zip(&b))
                .all(|(&c, (&x, &y))| c == x || c == y));
            let m = mutate(&space, &child, 0.5, &mut rng);
            assert!(m.iter().all(|&t| (t as usize) < space.alphabet()));
        }
    }
}
