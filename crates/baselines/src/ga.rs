//! A genetic algorithm over synthesis sequences, following the shape of the
//! `geneticalgorithm2` package the paper uses: elitism, tournament
//! selection, uniform crossover and per-gene mutation.
//!
//! Each generation's offspring are bred serially (preserving the RNG
//! stream) and then scored as one parallel batch through a
//! [`RunLedger`], so the evolution trajectory is identical at any thread
//! count.

use boils_core::{OptimizationResult, RunControl, RunLedger, SequenceObjective, SequenceSpace};
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
    /// Population size, raised to one more than the two elites (so every
    /// generation breeds) and capped at the budget.
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

/// Runs the GA until the evaluation budget is exhausted. `control` is
/// checked before each generation; cancellation and quarantine follow
/// [`RunLedger`], and `None` comes back only when nothing resolved.
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
    let mut ledger = RunLedger::new(objective, config.threads, control);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pop_size = config.population.max(ELITES + 1).min(budget);

    // Initial population via Latin hypercube, scored as one batch.
    let seeds: Vec<Vec<u8>> = space.latin_hypercube(pop_size, &mut rng);
    let mut population: Vec<(Vec<u8>, f64)> = ledger
        .evaluate(&seeds)
        .iter()
        .map(|r| (r.tokens.clone(), r.point.qor))
        .collect();

    while ledger.history().len() < budget && ledger.stopped().is_none() {
        population.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite QoR"));
        // Breed the whole generation from the whole population first
        // (serial RNG), then score it as one parallel batch; the elites
        // and the scored offspring make the next generation.
        let elites = ELITES.min(population.len());
        let brood = (pop_size - elites).min(budget - ledger.history().len());
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
        population.truncate(elites);
        let scored = ledger.evaluate(&offspring);
        population.extend(scored.iter().map(|r| (r.tokens.clone(), r.point.qor)));
    }
    ledger.finish(&space)
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
    use boils_core::{QorEvaluator, Termination};

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
    fn ga_spends_the_budget_at_any_population() {
        let e = QorEvaluator::new(&random_aig(41, 8, 300, 3)).expect("ok");
        for (population, budget) in [(0, 30), (1, 30), (2, 30), (2, 2)] {
            let r = genetic_algorithm(
                &e,
                SequenceSpace::new(5, 11),
                budget,
                &GaConfig {
                    population,
                    seed: 1,
                    ..GaConfig::default()
                },
                &RunControl::new(),
            )
            .expect("uncontrolled run");
            assert_eq!(r.num_evaluations(), budget, "population {population}");
            assert_eq!(r.termination, Termination::BudgetExhausted);
        }
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
