//! Deep-RL-style baselines: actor-critic sequence policies in the mould of
//! DRiLLS [12] (A2C and PPO over AIG-statistics features) and Graph-RL [13]
//! (graph-summary features).
//!
//! The original DRiLLS uses a small MLP over ABC statistics; Graph-RL a
//! graph convolution. Both are replaced here by linear-softmax policies
//! over hand-built feature maps with manual gradients — the reproduction
//! claim these baselines support is *sample complexity* (thousands of
//! episodes, barely beating random search), which survives the
//! substitution; see `DESIGN.md`.

use boils_aig::Aig;
use boils_core::{
    BatchEvaluator, EvalRecord, OptimizationResult, RunControl, SequenceObjective, SequenceSpace,
    Termination,
};
use boils_synth::Transform;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Policy-gradient flavour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RlAlgorithm {
    /// Advantage actor-critic (DRiLLS' A2C mode).
    A2c,
    /// Proximal policy optimisation with a clipped surrogate (DRiLLS' PPO
    /// mode).
    Ppo,
}

/// State featurisation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RlFeatures {
    /// AIG statistics + position + last action (DRiLLS-like).
    Stats,
    /// Graph-summary features: level and fanout histograms (Graph-RL-like).
    Graph,
}

/// RL baseline settings.
///
/// The learning hyperparameters are private constants: `LEARNING_RATE`
/// and `VALUE_LEARNING_RATE` (0.02 for the policy and the critic),
/// `DISCOUNT` (γ = 0.9), and for PPO `PPO_CLIP` (ε = 0.2) and
/// `PPO_EPOCHS` (4 per episode).
#[derive(Clone, Debug)]
pub struct RlConfig {
    /// Update rule.
    pub algorithm: RlAlgorithm,
    /// Feature map.
    pub features: RlFeatures,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            algorithm: RlAlgorithm::A2c,
            features: RlFeatures::Stats,
            seed: 0,
        }
    }
}

/// Policy learning rate.
const LEARNING_RATE: f64 = 0.02;
/// Critic learning rate.
const VALUE_LEARNING_RATE: f64 = 0.02;
/// Discount factor γ.
const DISCOUNT: f64 = 0.9;
/// PPO clipping ε.
const PPO_CLIP: f64 = 0.2;
/// PPO epochs per episode.
const PPO_EPOCHS: usize = 4;

/// Objectives an RL policy can roll out on: featurisation observes the
/// evolving AIG between actions, which the plain black-box interface
/// deliberately hides.
pub trait RolloutCircuit {
    /// The circuit a policy episode starts from.
    fn rollout_circuit(&self) -> &Aig;
}

impl RolloutCircuit for boils_core::QorEvaluator {
    fn rollout_circuit(&self) -> &Aig {
        self.circuit()
    }
}

/// Runs the RL baseline for `budget` episodes (one tested sequence each).
///
/// Episodes are inherently sequential — each policy update feeds the next
/// rollout — so this method evaluates through [`SequenceObjective`]
/// directly (a degenerate batch); its sample-inefficiency relative to the
/// batched methods is part of the paper's point.
///
/// `control` is polled before each episode (and inside the official
/// evaluation), so a cancel or deadline stops the run at an episode
/// boundary with best-so-far; `None` only when no episode completed.
///
/// ```no_run
/// use boils_circuits::{Benchmark, CircuitSpec};
/// use boils_core::{QorEvaluator, RunControl, SequenceSpace};
/// use boils_baselines::{reinforcement_learning, RlAlgorithm, RlConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let aig = CircuitSpec::new(Benchmark::Max).build();
/// let evaluator = QorEvaluator::new(&aig)?;
/// let config = RlConfig { algorithm: RlAlgorithm::Ppo, ..RlConfig::default() };
/// let space = SequenceSpace::paper();
/// let result = reinforcement_learning(&evaluator, space, 100, &config, &RunControl::new())
///     .expect("an uncontrolled run completes an episode");
/// println!("best {:.4}", result.best_qor);
/// # Ok(())
/// # }
/// ```
pub fn reinforcement_learning<O: SequenceObjective + RolloutCircuit>(
    objective: &O,
    space: SequenceSpace,
    budget: usize,
    config: &RlConfig,
    control: &RunControl,
) -> Option<OptimizationResult> {
    assert!(budget >= 1);
    // Episodes are sequential; the engine is a degenerate 1-element batch
    // that buys the shared interruption and panic-quarantine semantics.
    let engine = BatchEvaluator::new(1);
    let mut quarantined: Vec<Vec<u8>> = Vec::new();
    let mut stop = None;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let base = objective.rollout_circuit().cleanup();
    let norm = (base.num_ands().max(1) as f64, base.depth().max(1) as f64);
    let dim = feature_dim(config.features, space.alphabet());
    let actions = space.alphabet();
    // Linear policy W: actions × dim, linear critic v: dim.
    let mut w = vec![vec![0.0f64; dim]; actions];
    let mut v = vec![0.0f64; dim];
    let mut history: Vec<EvalRecord> = Vec::with_capacity(budget);

    for _episode in 0..budget {
        if let Some(reason) = control.stop_reason() {
            stop = Some(reason);
            break;
        }
        // --- Roll out one episode.
        let mut aig = base.clone();
        let mut tokens: Vec<u8> = Vec::with_capacity(space.length());
        let mut feats: Vec<Vec<f64>> = Vec::with_capacity(space.length());
        let mut probs: Vec<Vec<f64>> = Vec::with_capacity(space.length());
        let mut rewards: Vec<f64> = Vec::with_capacity(space.length());
        let mut proxy = proxy_cost(&aig, norm);
        for pos in 0..space.length() {
            let phi = featurise(
                config.features,
                &aig,
                norm,
                pos,
                space.length(),
                &tokens,
                actions,
            );
            let pi = softmax(&w, &phi);
            let action = sample_categorical(&pi, &mut rng);
            tokens.push(action as u8);
            aig = Transform::from_index(action).apply(&aig);
            let new_proxy = proxy_cost(&aig, norm);
            rewards.push(proxy - new_proxy);
            proxy = new_proxy;
            feats.push(phi);
            probs.push(pi);
        }
        // --- Official evaluation (one tested sequence).
        let outcome = engine.evaluate(objective, std::slice::from_ref(&tokens), control);
        quarantined.extend(outcome.quarantined.iter().cloned());
        let Some(point) = outcome.points[0] else {
            stop = outcome.stopped;
            break;
        };
        history.push(EvalRecord {
            tokens: tokens.clone(),
            point,
        });
        // Terminal reward: improvement over the resyn2 reference.
        *rewards.last_mut().expect("non-empty episode") += 2.0 - point.qor;

        // --- Discounted returns and advantages.
        let mut returns = vec![0.0f64; rewards.len()];
        let mut acc = 0.0;
        for t in (0..rewards.len()).rev() {
            acc = rewards[t] + DISCOUNT * acc;
            returns[t] = acc;
        }
        let advantages: Vec<f64> = returns
            .iter()
            .zip(&feats)
            .map(|(g, phi)| g - dot(&v, phi))
            .collect();

        // --- Critic update (TD toward the return).
        for (phi, adv) in feats.iter().zip(&advantages) {
            for (vi, p) in v.iter_mut().zip(phi) {
                *vi += VALUE_LEARNING_RATE * adv * p;
            }
        }
        // --- Actor update.
        match config.algorithm {
            RlAlgorithm::A2c => {
                for ((phi, pi), (&action, adv)) in
                    feats.iter().zip(&probs).zip(tokens.iter().zip(&advantages))
                {
                    policy_gradient_step(&mut w, phi, pi, action as usize, *adv, LEARNING_RATE);
                }
            }
            RlAlgorithm::Ppo => {
                for _ in 0..PPO_EPOCHS {
                    for ((phi, pi_old), (&action, adv)) in
                        feats.iter().zip(&probs).zip(tokens.iter().zip(&advantages))
                    {
                        let pi_new = softmax(&w, phi);
                        let a = action as usize;
                        let ratio = pi_new[a] / pi_old[a].max(1e-12);
                        let clipped = ratio.clamp(1.0 - PPO_CLIP, 1.0 + PPO_CLIP);
                        // Clipped surrogate: zero gradient when clipping binds.
                        let active = if *adv >= 0.0 {
                            ratio <= clipped + 1e-12
                        } else {
                            ratio >= clipped - 1e-12
                        };
                        if active {
                            let scale = *adv * ratio;
                            policy_gradient_step(&mut w, phi, &pi_new, a, scale, LEARNING_RATE);
                        }
                    }
                }
            }
        }
    }
    if history.is_empty() {
        return None;
    }
    let termination = stop.map(Termination::from).unwrap_or_default();
    let mut result = OptimizationResult::from_history_terminated(&space, history, termination);
    result.quarantined = quarantined;
    result.objective = objective.cost_name();
    Some(result)
}

fn feature_dim(features: RlFeatures, alphabet: usize) -> usize {
    match features {
        RlFeatures::Stats => 4 + alphabet, // bias, size, depth, position, last-action one-hot
        RlFeatures::Graph => 4 + 4 + 3,    // bias, size, depth, position, level & fanout histograms
    }
}

fn featurise(
    features: RlFeatures,
    aig: &Aig,
    norm: (f64, f64),
    pos: usize,
    k: usize,
    tokens: &[u8],
    alphabet: usize,
) -> Vec<f64> {
    let mut phi = vec![
        1.0,
        aig.num_ands() as f64 / norm.0,
        f64::from(aig.depth()) / norm.1,
        pos as f64 / k as f64,
    ];
    match features {
        RlFeatures::Stats => {
            let mut onehot = vec![0.0; alphabet];
            if let Some(&last) = tokens.last() {
                onehot[last as usize] = 1.0;
            }
            phi.extend(onehot);
        }
        RlFeatures::Graph => {
            // Level histogram (quartiles of depth) over AND nodes.
            let levels = aig.levels();
            let depth = aig.depth().max(1) as f64;
            let mut level_hist = [0.0f64; 4];
            let mut count = 0.0;
            for var in aig.ands() {
                let bin = ((f64::from(levels[var]) / depth) * 4.0).min(3.0) as usize;
                level_hist[bin] += 1.0;
                count += 1.0;
            }
            if count > 0.0 {
                for b in &mut level_hist {
                    *b /= count;
                }
            }
            phi.extend(level_hist);
            // Fanout histogram: fraction with fanout 1 / 2 / ≥3.
            let refs = aig.fanout_counts();
            let mut fan_hist = [0.0f64; 3];
            for var in aig.ands() {
                let bin = match refs[var] {
                    0 | 1 => 0,
                    2 => 1,
                    _ => 2,
                };
                fan_hist[bin] += 1.0;
            }
            if count > 0.0 {
                for b in &mut fan_hist {
                    *b /= count;
                }
            }
            phi.extend(fan_hist);
        }
    }
    phi
}

fn proxy_cost(aig: &Aig, norm: (f64, f64)) -> f64 {
    aig.num_ands() as f64 / norm.0 + f64::from(aig.depth()) / norm.1
}

fn softmax(w: &[Vec<f64>], phi: &[f64]) -> Vec<f64> {
    let logits: Vec<f64> = w.iter().map(|row| dot(row, phi)).collect();
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
    let sum: f64 = exps.iter().sum();
    exps.iter().map(|e| e / sum).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn sample_categorical<R: Rng>(probs: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if u < acc {
            return i;
        }
    }
    probs.len() - 1
}

/// `∇_W log π(a | φ) · scale`, the score-function update shared by A2C and
/// (rescaled) PPO.
fn policy_gradient_step(
    w: &mut [Vec<f64>],
    phi: &[f64],
    pi: &[f64],
    action: usize,
    scale: f64,
    lr: f64,
) {
    for (k, row) in w.iter_mut().enumerate() {
        let indicator = if k == action { 1.0 } else { 0.0 };
        let coeff = lr * scale * (indicator - pi[k]);
        for (wi, p) in row.iter_mut().zip(phi) {
            *wi += coeff * p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use boils_aig::random_aig;
    use boils_core::QorEvaluator;

    #[test]
    fn softmax_is_a_distribution() {
        let w = vec![vec![0.5, -0.2], vec![0.0, 0.3], vec![-1.0, 0.1]];
        let pi = softmax(&w, &[1.0, 2.0]);
        assert_eq!(pi.len(), 3);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(pi.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn policy_gradient_pushes_toward_rewarded_action() {
        let mut w = vec![vec![0.0, 0.0]; 3];
        let phi = vec![1.0, 0.5];
        for _ in 0..50 {
            let pi = softmax(&w, &phi);
            policy_gradient_step(&mut w, &phi, &pi, 1, 1.0, 0.1);
        }
        let pi = softmax(&w, &phi);
        assert!(pi[1] > 0.8, "rewarded action not reinforced: {pi:?}");
    }

    #[test]
    fn episodes_match_budget_for_both_algorithms() {
        let e = QorEvaluator::new(&random_aig(51, 8, 300, 3)).expect("ok");
        for alg in [RlAlgorithm::A2c, RlAlgorithm::Ppo] {
            let cfg = RlConfig {
                algorithm: alg,
                seed: 4,
                ..RlConfig::default()
            };
            let space = SequenceSpace::new(4, 11);
            let r = reinforcement_learning(&e, space, 6, &cfg, &RunControl::new())
                .expect("uncontrolled run");
            assert_eq!(r.num_evaluations(), 6, "{alg:?}");
        }
    }

    #[test]
    fn graph_features_have_documented_shape() {
        let aig = random_aig(3, 6, 80, 2);
        let phi = featurise(RlFeatures::Graph, &aig, (80.0, 10.0), 2, 10, &[1], 11);
        assert_eq!(phi.len(), feature_dim(RlFeatures::Graph, 11));
        // Histograms are normalised.
        let level_sum: f64 = phi[4..8].iter().sum();
        let fan_sum: f64 = phi[8..11].iter().sum();
        assert!((level_sum - 1.0).abs() < 1e-9);
        assert!((fan_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn stats_features_track_last_action() {
        let aig = random_aig(5, 6, 80, 2);
        let phi = featurise(RlFeatures::Stats, &aig, (80.0, 10.0), 3, 10, &[0, 7], 11);
        assert_eq!(phi.len(), feature_dim(RlFeatures::Stats, 11));
        assert_eq!(phi[4 + 7], 1.0);
        assert_eq!(phi[4..].iter().sum::<f64>(), 1.0);
    }
}
