//! The Twin-Q Optimizer (Algorithm 1 of the paper).
//!
//! Before paying for a real configuration evaluation during online tuning,
//! score the recommended action with both offline-trained critics. If
//! `min(Q1, Q2)` falls below the threshold `Q_th`, the action is deemed
//! sub-optimal: perturb it with Gaussian noise and re-score, looping until
//! an estimated close-to-optimal action emerges. No configuration is
//! actually executed during the search, so sub-optimal candidates are
//! filtered at negligible cost.
//!
//! The search is scored speculatively. A perturbation never reads a Q
//! value, so the chain of candidates can be drawn ahead: blocks of 1, 2,
//! 4, 8, then 16 candidates (capped at `max_iters`), each candidate with
//! its smoothing jitters, scored by one batched forward per critic. The
//! block is then walked in order. At the first candidate that clears
//! `Q_th` the loop RNG is rewound to the copy saved right after that
//! candidate's draws, so the result and the RNG post-state equal those of
//! the one-candidate-at-a-time loop, bit for bit.

use crate::td3::Td3Agent;
use rand::Rng;
use rl::GaussianNoise;
use serde::{Deserialize, Serialize};
use tensor_nn::Matrix;

/// Largest number of candidates drawn ahead per scoring block. Blocks
/// start at one candidate and double up to this size: small first blocks
/// waste little when an early candidate clears `Q_th`, large later ones
/// cut the forwards of a search that runs to the cap.
const MAX_BLOCK: usize = 16;

/// Twin-Q Optimizer parameters.
///
/// ```
/// use deepcat::{AgentConfig, Td3Agent, TwinQOptimizer};
/// use rand::SeedableRng;
///
/// let agent = Td3Agent::new(AgentConfig::for_dims(2, 4), 7);
/// let opt = TwinQOptimizer::default(); // Q_th = 0.3, as the paper chooses
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let result = opt.optimize(&agent, &[0.1, 0.2], vec![0.5; 4], &mut rng);
/// assert!(result.action.iter().all(|v| (0.0..=1.0).contains(v)));
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TwinQOptimizer {
    /// Q-value threshold `Q_th` separating close-to-optimal from
    /// sub-optimal actions. The paper settles on 0.3 (Fig. 12).
    pub q_threshold: f64,
    /// Std-dev of the Gaussian perturbation `ε`.
    pub sigma: f64,
    /// Safety cap on perturbation rounds (Algorithm 1's loop has no bound;
    /// a cap keeps pathological critics from spinning forever).
    pub max_iters: usize,
    /// Number of jittered critic queries averaged per candidate. A single
    /// critic read can be exploited by the perturbation search (the
    /// optimizer's curse — the max over many candidates picks up
    /// estimation noise); averaging a few local queries smooths it out,
    /// the same remedy TD3 applies to its target policy.
    pub smoothing_samples: usize,
}

impl Default for TwinQOptimizer {
    fn default() -> Self {
        Self {
            q_threshold: 0.3,
            sigma: 0.08,
            max_iters: 64,
            smoothing_samples: 4,
        }
    }
}

/// Outcome of one optimization call.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TwinQResult {
    /// The action to actually evaluate.
    pub action: Vec<f64>,
    /// `min(Q1, Q2)` of the original recommended action.
    pub initial_q: f64,
    /// `min(Q1, Q2)` of the returned action.
    pub final_q: f64,
    /// Number of perturbation rounds performed (0 ⇒ the original action
    /// already cleared the threshold).
    pub iterations: usize,
    /// Whether the returned action clears `Q_th` (false only when the
    /// iteration cap was hit; the best-scoring candidate is returned).
    pub accepted: bool,
}

impl TwinQOptimizer {
    /// With the paper's chosen threshold `Q_th = 0.3`.
    pub fn with_threshold(q_threshold: f64) -> Self {
        Self {
            q_threshold,
            ..Self::default()
        }
    }

    /// Algorithm 1: optimize `action` for `state` under `agent`'s twin
    /// critics.
    pub fn optimize<R: Rng + Clone>(
        &self,
        agent: &Td3Agent,
        state: &[f64],
        action: Vec<f64>,
        rng: &mut R,
    ) -> TwinQResult {
        let noise = GaussianNoise::new(action.len(), self.sigma);
        let loop_span = telemetry::span!("twinq.loop");
        let (result, discarded) =
            self.search(agent, state, action, rng, |a, rng| noise.perturb(a, rng));
        drop(loop_span);
        telemetry::inc("twinq.calls", 1);
        // Each perturbation round scored a candidate with the critics
        // instead of paying for a real evaluation.
        telemetry::inc("twinq.eval_skipped", result.iterations as u64);
        telemetry::inc("twinq.candidates_discarded", discarded as u64);
        if result.accepted {
            telemetry::inc("twinq.accepted", 1);
        }
        telemetry::event!(
            "twinq.decision",
            iterations = result.iterations,
            initial_q = result.initial_q,
            final_q = result.final_q,
            accepted = result.accepted,
        );
        result
    }

    /// The perturb-and-rescore loop of Algorithm 1 with `perturb` as the
    /// step `current = perturb(current)`, scored in speculative blocks
    /// (module docs). Returns the result and the number of candidates
    /// scored past the accepting one.
    pub(crate) fn search<R: Rng + Clone>(
        &self,
        agent: &Td3Agent,
        state: &[f64],
        action: Vec<f64>,
        rng: &mut R,
        mut perturb: impl FnMut(&[f64], &mut R) -> Vec<f64>,
    ) -> (TwinQResult, usize) {
        let (dim, samples) = (action.len(), self.smoothing_samples.max(1));
        let jitter = GaussianNoise::new(dim, self.sigma * 0.25);
        let initial_q = {
            let _span = telemetry::span!("twinq.rescore", candidates = 1usize);
            let mut rows = Vec::with_capacity(samples * dim);
            draw_samples(&action, samples, &jitter, &mut rows, rng);
            smoothed(&agent.min_q_batch(state, &Matrix::from_vec(samples, dim, rows)))
        };
        let mut current = action;
        let mut current_q = initial_q;
        let (mut best, mut best_q) = (current.clone(), current_q);
        let mut iterations = 0;
        let mut discarded = 0;
        let mut block = 1;
        while current_q < self.q_threshold && iterations < self.max_iters {
            let k = block.min(self.max_iters - iterations);
            block = (2 * block).min(MAX_BLOCK);
            let _span = telemetry::span!("twinq.rescore", candidates = k);
            // Each candidate with a copy of the RNG as it stands after the
            // candidate's own draws.
            let mut chain: Vec<(Vec<f64>, R)> = Vec::with_capacity(k);
            let mut rows = Vec::with_capacity(k * samples * dim);
            for _ in 0..k {
                let next = perturb(chain.last().map_or(&current, |(c, _)| c), rng);
                draw_samples(&next, samples, &jitter, &mut rows, rng);
                chain.push((next, rng.clone()));
            }
            let q = agent.min_q_batch(state, &Matrix::from_vec(k * samples, dim, rows));
            let scores = q.chunks(samples).map(smoothed);
            for (i, ((candidate, rng_after), q)) in chain.into_iter().zip(scores).enumerate() {
                iterations += 1;
                if q > best_q {
                    best_q = q;
                    best = candidate.clone();
                }
                current = candidate;
                current_q = q;
                if q >= self.q_threshold {
                    *rng = rng_after;
                    discarded = k - 1 - i;
                    break;
                }
            }
        }
        let result = if current_q >= self.q_threshold {
            TwinQResult {
                action: current,
                initial_q,
                final_q: current_q,
                iterations,
                accepted: true,
            }
        } else {
            // Cap hit: fall back to the best candidate seen.
            TwinQResult {
                action: best,
                initial_q,
                final_q: best_q,
                iterations,
                accepted: false,
            }
        };
        (result, discarded)
    }
}

/// The smoothed sub-optimality indicator of one candidate from its
/// `min(Q1, Q2)` scores (laid out by [`draw_samples`]): their mean, summed
/// in draw order.
fn smoothed(q: &[f64]) -> f64 {
    let sum = q
        .iter()
        .copied()
        .reduce(|sum, x| sum + x)
        .unwrap_or(f64::NAN);
    if q.len() == 1 {
        sum
    } else {
        sum / q.len() as f64
    }
}

/// Append `action` and `samples − 1` jittered copies of it to `rows`,
/// drawing the jitters from `rng` in order.
fn draw_samples(
    action: &[f64],
    samples: usize,
    jitter: &GaussianNoise,
    rows: &mut Vec<f64>,
    rng: &mut impl Rng,
) {
    rows.extend_from_slice(action);
    for _ in 1..samples {
        rows.extend(jitter.perturb(action, rng));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rl::{Batch, Transition};

    fn trained_agent() -> Td3Agent {
        // Bandit whose reward peaks at a* = (0.8, 0.2, 0.5): after training,
        // the critics score actions near a* highly.
        let mut cfg = AgentConfig::for_dims(2, 3);
        cfg.hidden = vec![16, 16];
        let mut agent = Td3Agent::new(cfg, 11);
        let target = [0.8, 0.2, 0.5];
        for _ in 0..800 {
            let mut transitions = Vec::new();
            for _ in 0..16 {
                let s = vec![0.1, 0.2];
                let a = agent.select_action_noisy(&s);
                let d2: f64 = a.iter().zip(&target).map(|(x, t)| (x - t) * (x - t)).sum();
                transitions.push(Transition::new(s.clone(), a, 1.0 - d2, s, true));
            }
            let n = transitions.len();
            agent.train_step(&Batch {
                transitions,
                weights: vec![1.0; n],
                indices: vec![0; n],
            });
        }
        agent
    }

    #[test]
    fn good_actions_pass_untouched() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(0);
        let state = [0.1, 0.2];
        let good = agent.select_action(&state);
        let opt = TwinQOptimizer {
            q_threshold: 0.2,
            sigma: 0.08,
            max_iters: 64,
            smoothing_samples: 4,
        };
        let res = opt.optimize(&agent, &state, good.clone(), &mut rng);
        assert!(res.accepted);
        assert_eq!(res.iterations, 0, "good action must not be perturbed");
        assert_eq!(res.action, good);
    }

    #[test]
    fn bad_actions_are_improved() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(1);
        let state = [0.1, 0.2];
        let bad = vec![0.05, 0.95, 0.05]; // far from the bandit optimum
        let q_bad = agent.min_q(&state, &bad);
        // Set the threshold above the bad action's score so the optimizer
        // must search; the policy's own action comfortably clears it.
        let q_good = agent.min_q(&state, &agent.select_action(&state));
        assert!(q_good > q_bad, "critics must rank the policy action higher");
        let threshold = q_bad + 0.6 * (q_good - q_bad);
        let opt = TwinQOptimizer {
            q_threshold: threshold,
            sigma: 0.1,
            max_iters: 512,
            smoothing_samples: 4,
        };
        let res = opt.optimize(&agent, &state, bad, &mut rng);
        assert!(res.final_q > q_bad, "{} vs {q_bad}", res.final_q);
        assert!(res.iterations > 0);
    }

    #[test]
    fn iteration_cap_returns_best_seen() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(2);
        let state = [0.1, 0.2];
        // Impossible threshold forces the cap.
        let opt = TwinQOptimizer {
            q_threshold: 1e6,
            sigma: 0.05,
            max_iters: 16,
            smoothing_samples: 1,
        };
        let res = opt.optimize(&agent, &state, vec![0.5, 0.5, 0.5], &mut rng);
        assert!(!res.accepted);
        assert_eq!(res.iterations, 16);
        assert!(
            res.final_q >= res.initial_q,
            "returns the best candidate seen"
        );
    }

    #[test]
    fn actions_stay_in_unit_box() {
        let agent = trained_agent();
        let mut rng = StdRng::seed_from_u64(3);
        let opt = TwinQOptimizer {
            q_threshold: 10.0,
            sigma: 0.3,
            max_iters: 32,
            smoothing_samples: 2,
        };
        let res = opt.optimize(&agent, &[0.1, 0.2], vec![0.0, 1.0, 0.5], &mut rng);
        assert!(res.action.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn discarded_counts_candidates_scored_past_the_accepting_one() {
        let agent = trained_agent();
        let state = [0.1, 0.2];
        let bad = vec![0.05, 0.95, 0.05];
        let q_bad = agent.min_q(&state, &bad);
        let q_good = agent.min_q(&state, &agent.select_action(&state));
        let noise = GaussianNoise::new(3, 0.1);
        // Blocks of 1, 2, 4, 8, 16, then the 9 left under the cap of 40.
        let block_end = |i: usize| [1, 3, 7, 15, 31, 40].into_iter().find(|&e| e >= i);
        let mut mid_block_accepts = 0;
        for step in 0..40 {
            let opt = TwinQOptimizer {
                q_threshold: q_bad + (q_good - q_bad) * step as f64 / 40.0,
                sigma: 0.1,
                max_iters: 40,
                smoothing_samples: 2,
            };
            let mut rng = StdRng::seed_from_u64(step);
            let (res, discarded) = opt.search(&agent, &state, bad.clone(), &mut rng, |a, r| {
                noise.perturb(a, r)
            });
            if res.accepted && res.iterations > 0 {
                assert_eq!(Some(res.iterations + discarded), block_end(res.iterations));
                mid_block_accepts += usize::from(discarded > 0);
            } else {
                assert_eq!(discarded, 0);
            }
        }
        assert!(mid_block_accepts > 0, "no accept landed inside a block");
    }

    #[test]
    fn default_matches_paper_settings() {
        let opt = TwinQOptimizer::default();
        assert_eq!(opt.q_threshold, 0.3);
    }
}
