//! The benchmark's own metric arithmetic: pure functions over recorded
//! samples, kept apart from the timing code so they can be unit-tested on
//! hand-built inputs.

/// Samples that must lie beyond a reported high percentile (the
/// choosing-metrics rule: a p90 needs at least ten samples above it).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, reported only
/// when at least [`MIN_TAIL_SAMPLES`] samples lie strictly beyond its rank.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize; // 1-based nearest rank
    if rank == 0 || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The running best (minimum) of a QoR history.
pub fn best_so_far(qors: &[f64]) -> Vec<f64> {
    let mut best = f64::INFINITY;
    qors.iter()
        .map(|&q| {
            best = best.min(q);
            best
        })
        .collect()
}

/// Mean of the best-so-far curve over the budget: the paper's Fig. 1
/// (QoR against evaluations) reduced to one number, lower is better.
pub fn qor_auc(qors: &[f64]) -> f64 {
    let curve = best_so_far(qors);
    curve.iter().sum::<f64>() / curve.len() as f64
}

/// The 1-based evaluation at which the best-so-far first reaches `target`
/// or better; `budget + 1` when it never does, so the metric stays a
/// finite number that a regression can only increase.
pub fn evals_to_target(qors: &[f64], target: f64, budget: usize) -> usize {
    best_so_far(qors)
        .iter()
        .position(|&q| q <= target)
        .map_or(budget + 1, |i| i + 1)
}

/// Quarantined evaluations as a share of evaluations attempted.
pub fn failed_frac(attempted: usize, quarantined: usize) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    quarantined as f64 / attempted as f64
}

/// The wall time between two evaluation batches of a closed-loop run,
/// keyed by how many evaluations had completed when it began (the history
/// length the optimiser saw while proposing the next batch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gap {
    pub evals_before: usize,
    pub secs: f64,
}

/// Plain gaps on each side of a retrain gap whose median estimates the
/// acquisition part of that gap.
const SPLIT_NEIGHBOURS: usize = 2;

/// Splits proposal time into `(retrain_s, acquire_s)`.
///
/// A gap whose `evals_before` is in `retrains_at` (the optimiser's own
/// record of when it refit hyperparameters) holds a retrain plus an
/// ordinary acquisition; its acquisition part is estimated by the median
/// of up to [`SPLIT_NEIGHBOURS`] plain gaps on each side, and the excess
/// (never negative) is the retrain cost. Everything else is acquisition.
pub fn split_retrain_acquire(gaps: &[Gap], retrains_at: &[usize]) -> (f64, f64) {
    let is_retrain = |g: &Gap| retrains_at.contains(&g.evals_before);
    let total: f64 = gaps.iter().map(|g| g.secs).sum();
    let mut retrain = 0.0;
    for (i, gap) in gaps.iter().enumerate() {
        if !is_retrain(gap) {
            continue;
        }
        let before = gaps[..i].iter().rev().filter(|g| !is_retrain(g));
        let after = gaps[i + 1..].iter().filter(|g| !is_retrain(g));
        let neighbours: Vec<f64> = before
            .take(SPLIT_NEIGHBOURS)
            .chain(after.take(SPLIT_NEIGHBOURS))
            .map(|g| g.secs)
            .collect();
        let plain = median(&neighbours).unwrap_or(0.0);
        retrain += (gap.secs - plain).max(0.0);
    }
    (retrain, total - retrain)
}

/// One call the timed objective observed, in seconds since the run began.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Event {
    /// A memo probe by the batch engine (`lookup`): opens a batch.
    Lookup(f64),
    /// A freshness-guard probe by the optimiser (`is_cached`): the
    /// optimiser is proposing, so any open batch has ended.
    IsCached(f64),
    /// One evaluation, `(start, end)`.
    Eval(f64, f64),
}

impl Event {
    fn start(&self) -> f64 {
        match *self {
            Event::Lookup(t) | Event::IsCached(t) | Event::Eval(t, _) => t,
        }
    }
}

/// Evaluation batches and the proposal gaps between them, recovered from
/// the order of calls into the objective.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Segments {
    /// `(start, end)` of each batch: first engine probe to last evaluation.
    pub batches: Vec<(f64, f64)>,
    pub gaps: Vec<Gap>,
}

/// Segments an event log. Every batch the engine runs starts with its
/// memo probes (`lookup`) on the calling thread and then evaluates; the
/// optimiser only probes `is_cached` while proposing. So a `lookup` after
/// anything but a `lookup` or an evaluation opens a new batch, and the
/// time from one batch's last evaluation to the next batch's first probe
/// is proposal time.
pub fn segment(events: &[Event]) -> Segments {
    let mut events = events.to_vec();
    events.sort_by(|a, b| a.start().total_cmp(&b.start()));
    let mut out = Segments::default();
    let mut open = false;
    let mut evals_done = 0usize;
    for event in events {
        match event {
            Event::Lookup(t) => {
                if !open {
                    if let Some(&(_, end)) = out.batches.last() {
                        out.gaps.push(Gap {
                            evals_before: evals_done,
                            secs: t - end,
                        });
                    }
                    out.batches.push((t, t));
                    open = true;
                }
            }
            Event::IsCached(_) => open = false,
            Event::Eval(start, end) => {
                evals_done += 1;
                match out.batches.last_mut() {
                    Some(batch) => batch.1 = batch.1.max(end),
                    // An evaluation outside any engine batch (a direct
                    // call) is a batch of its own.
                    None => out.batches.push((start, end)),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond — not reported.
        let short: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 0.9), None);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let enough: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 0.9), Some(90.0));
        // Order of the input does not matter.
        let reversed: Vec<f64> = enough.iter().rev().copied().collect();
        assert_eq!(tail_percentile(&reversed, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn qor_auc_averages_the_best_so_far_curve() {
        // Best so far: 2.0, 1.5, 1.5, 1.2.
        let auc = qor_auc(&[2.0, 1.5, 1.8, 1.2]);
        assert!((auc - (2.0 + 1.5 + 1.5 + 1.2) / 4.0).abs() < 1e-12);
        assert_eq!(qor_auc(&[1.7]), 1.7);
    }

    #[test]
    fn evals_to_target_is_one_based_and_budget_plus_one_when_missed() {
        let history = [2.0, 1.5, 1.8, 1.2, 1.9];
        assert_eq!(evals_to_target(&history, 2.0, 5), 1);
        assert_eq!(evals_to_target(&history, 1.5, 5), 2);
        // Reached exactly at equality, by the running best.
        assert_eq!(evals_to_target(&history, 1.2, 5), 4);
        assert_eq!(evals_to_target(&history, 1.3, 5), 4);
        // Never reached.
        assert_eq!(evals_to_target(&history, 1.0, 5), 6);
    }

    #[test]
    fn failed_frac_counts_quarantined_records_against_attempts() {
        use boils_core::{EvalRecord, QorPoint};
        let record = |qor: f64| EvalRecord {
            tokens: vec![0],
            point: QorPoint {
                qor,
                area: 1,
                delay: 1,
            },
        };
        let mut history: Vec<EvalRecord> = (0..8).map(|_| record(1.5)).collect();
        history.push(EvalRecord {
            tokens: vec![1],
            point: QorPoint::quarantined(),
        });
        history.push(EvalRecord {
            tokens: vec![2],
            point: QorPoint::quarantined(),
        });
        let quarantined = history.iter().filter(|r| r.point.is_quarantined()).count();
        assert_eq!(failed_frac(history.len(), quarantined), 0.2);
        assert_eq!(failed_frac(10, 0), 0.0);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn retrain_split_subtracts_the_neighbouring_plain_median() {
        let gap = |evals_before, secs| Gap { evals_before, secs };
        // Plain gaps cost ~0.1 s; retrains at 20 and 25 add 1.0 and 0.5.
        let gaps = [
            gap(20, 1.1),
            gap(21, 0.1),
            gap(22, 0.12),
            gap(23, 0.08),
            gap(24, 0.1),
            gap(25, 0.6),
            gap(26, 0.1),
            gap(27, 0.1),
        ];
        let (retrain, acquire) = split_retrain_acquire(&gaps, &[20, 25]);
        // Retrain at 20: neighbours 0.1, 0.12 (none before) → median 0.11.
        // Retrain at 25: neighbours 0.08, 0.1 | 0.1, 0.1 → median 0.1.
        assert!((retrain - (0.99 + 0.5)).abs() < 1e-12, "{retrain}");
        let total: f64 = gaps.iter().map(|g| g.secs).sum();
        assert!((retrain + acquire - total).abs() < 1e-12);
        // No retrains: everything is acquisition.
        assert_eq!(split_retrain_acquire(&gaps, &[]), (0.0, total));
        // A retrain gap cheaper than its neighbours costs nothing.
        let (r, _) = split_retrain_acquire(&[gap(1, 0.05), gap(2, 0.1)], &[1]);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn segmentation_recovers_batches_and_gaps() {
        use Event::*;
        let events = [
            // Initial design: 2 probes, 2 evaluations (overlapping).
            Lookup(0.0),
            Lookup(0.01),
            Eval(0.02, 1.0),
            Eval(0.03, 1.2),
            // Proposal: guard probe, then the engine's batch of one.
            IsCached(1.5),
            Lookup(2.0),
            Eval(2.01, 2.5),
            IsCached(3.0),
            Lookup(3.2),
            Eval(3.21, 3.4),
        ];
        let s = segment(&events);
        assert_eq!(s.batches, vec![(0.0, 1.2), (2.0, 2.5), (3.2, 3.4)]);
        assert_eq!(s.gaps.len(), 2);
        assert_eq!(s.gaps[0].evals_before, 2);
        assert!((s.gaps[0].secs - 0.8).abs() < 1e-12);
        assert_eq!(s.gaps[1].evals_before, 3);
        assert!((s.gaps[1].secs - 0.7).abs() < 1e-12);
        // A single batch (random search) has no proposal gaps.
        let rs = segment(&[Lookup(0.0), Lookup(0.0), Eval(0.1, 0.2), Eval(0.2, 0.3)]);
        assert_eq!(rs.batches, vec![(0.0, 0.3)]);
        assert!(rs.gaps.is_empty());
    }
}
