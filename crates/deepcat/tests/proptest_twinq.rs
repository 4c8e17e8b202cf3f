//! The speculative, batched Twin-Q search against the one-candidate-at-a-
//! time loop of Algorithm 1, kept here as the oracle: same action, same
//! iteration count, same accept flag, same Q bits and the same RNG
//! post-state, for the plain optimizer and for the white-box one.

use deepcat::{AgentConfig, Td3Agent, TwinQOptimizer, TwinQResult, WhiteBoxTwinQ};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use rl::GaussianNoise;
use spark_sim::RunMetrics;
use tensor_nn::Matrix;

/// Cases per property; CI prints this figure next to the property count.
const CASES: u32 = 256;

/// The smoothed indicator, one critic query at a time.
fn smoothed_min_q(
    opt: &TwinQOptimizer,
    agent: &Td3Agent,
    state: &[f64],
    action: &[f64],
    rng: &mut StdRng,
) -> f64 {
    let n = opt.smoothing_samples.max(1);
    if n == 1 {
        return agent.min_q(state, action);
    }
    let jitter = GaussianNoise::new(action.len(), opt.sigma * 0.25);
    let mut sum = agent.min_q(state, action);
    for _ in 1..n {
        let a = jitter.perturb(action, rng);
        sum += agent.min_q(state, &a);
    }
    sum / n as f64
}

/// Algorithm 1 as a sequential loop: perturb, rescore, repeat. Also
/// returns every candidate's score, the original action's first.
fn sequential(
    opt: &TwinQOptimizer,
    agent: &Td3Agent,
    state: &[f64],
    action: Vec<f64>,
    rng: &mut StdRng,
    mut perturb: impl FnMut(&[f64], &mut StdRng) -> Vec<f64>,
) -> (TwinQResult, Vec<f64>) {
    let initial_q = smoothed_min_q(opt, agent, state, &action, rng);
    let mut scores = vec![initial_q];
    let mut current = action;
    let mut current_q = initial_q;
    let (mut best, mut best_q) = (current.clone(), current_q);
    let mut iterations = 0;
    while current_q < opt.q_threshold && iterations < opt.max_iters {
        current = perturb(&current, rng);
        current_q = smoothed_min_q(opt, agent, state, &current, rng);
        scores.push(current_q);
        if current_q > best_q {
            best_q = current_q;
            best = current.clone();
        }
        iterations += 1;
    }
    let accepted = current_q >= opt.q_threshold;
    let (action, final_q) = if accepted {
        (current, current_q)
    } else {
        (best, best_q)
    };
    let result = TwinQResult {
        action,
        initial_q,
        final_q,
        iterations,
        accepted,
    };
    (result, scores)
}

fn assert_same(got: &TwinQResult, want: &TwinQResult, got_rng: &StdRng, want_rng: &StdRng) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.action), bits(&want.action), "action");
    assert_eq!(got.iterations, want.iterations, "iterations");
    assert_eq!(got.accepted, want.accepted, "accepted");
    assert_eq!(
        got.initial_q.to_bits(),
        want.initial_q.to_bits(),
        "initial_q"
    );
    assert_eq!(got.final_q.to_bits(), want.final_q.to_bits(), "final_q");
    assert_eq!(got_rng.state(), want_rng.state(), "rng post-state");
}

fn agent(state_dim: usize, action_dim: usize, hidden: usize, seed: u64) -> Td3Agent {
    let mut cfg = AgentConfig::for_dims(state_dim, action_dim);
    cfg.hidden = vec![hidden, hidden + 3];
    Td3Agent::new(cfg, seed)
}

/// A threshold near the scores the chain will see: `pick` selects one of
/// them, so the first candidate to clear it can sit at any block position;
/// picks past the chain's end give a threshold nothing clears.
fn threshold_near(scores: &[f64], pick: usize) -> f64 {
    scores.get(pick).copied().unwrap_or(f64::INFINITY)
}

/// The white-box perturbation: move only the masked knobs.
fn masked_perturb(
    mask: &'static [usize],
    sigma: f64,
) -> impl FnMut(&[f64], &mut StdRng) -> Vec<f64> {
    let normal = Normal::new(0.0, sigma).expect("valid sigma");
    move |current, rng| {
        let mut next = current.to_vec();
        for &d in mask {
            next[d] = (next[d] + normal.sample(rng)).clamp(0.0, 1.0);
        }
        next
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn speculative_search_equals_the_sequential_loop(
        dims in (1usize..4, 1usize..7, 1usize..12),
        max_iters in 0usize..70,
        smoothing_samples in 1usize..6,
        pick in 0usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let (state_dim, action_dim, hidden) = dims;
        let agent = agent(state_dim, action_dim, hidden, seed);
        let state: Vec<f64> = (0..state_dim).map(|i| 0.1 + 0.2 * i as f64).collect();
        let action = vec![0.5; action_dim];
        let probe = TwinQOptimizer { q_threshold: f64::INFINITY, sigma: 0.1, max_iters, smoothing_samples };
        let noise = GaussianNoise::new(action_dim, probe.sigma);
        let (_, scores) = sequential(&probe, &agent, &state, action.clone(), &mut StdRng::seed_from_u64(seed), |a, r| noise.perturb(a, r));
        let opt = TwinQOptimizer { q_threshold: threshold_near(&scores, pick), ..probe };

        let mut want_rng = StdRng::seed_from_u64(seed);
        let (want, _) = sequential(&opt, &agent, &state, action.clone(), &mut want_rng, |a, r| noise.perturb(a, r));
        let mut got_rng = StdRng::seed_from_u64(seed);
        let got = opt.optimize(&agent, &state, action, &mut got_rng);
        assert_same(&got, &want, &got_rng, &want_rng);
    }

    #[test]
    fn whitebox_search_equals_the_old_whitebox_loop(
        max_iters in 0usize..70,
        smoothing_samples in 1usize..6,
        pick in 0usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let agent = agent(2, 32, 8, seed);
        let mut metrics = RunMetrics::idle(3);
        metrics.io_wait = 0.9;
        let mask = deepcat::relevant_knobs(deepcat::diagnose(&metrics));
        let state = [0.3, 0.7];
        let action = vec![0.5; 32];
        let probe = TwinQOptimizer { q_threshold: f64::INFINITY, sigma: 0.2, max_iters, smoothing_samples };
        let (_, scores) = sequential(&probe, &agent, &state, action.clone(), &mut StdRng::seed_from_u64(seed), masked_perturb(mask, probe.sigma));
        let inner = TwinQOptimizer { q_threshold: threshold_near(&scores, pick), ..probe };

        let mut want_rng = StdRng::seed_from_u64(seed);
        let (want, _) = sequential(&inner, &agent, &state, action.clone(), &mut want_rng, masked_perturb(mask, inner.sigma));
        let mut got_rng = StdRng::seed_from_u64(seed);
        let (got, _) = WhiteBoxTwinQ { inner }.optimize(&agent, &state, action, Some(&metrics), &mut got_rng);
        assert_same(&got, &want, &got_rng, &want_rng);
    }

    #[test]
    fn batched_min_q_equals_one_row_min_q(
        dims in (1usize..4, 1usize..7, 1usize..12),
        rows in 1usize..10,
        seed in 0u64..u64::MAX,
    ) {
        let (state_dim, action_dim, hidden) = dims;
        let agent = agent(state_dim, action_dim, hidden, seed);
        let state: Vec<f64> = (0..state_dim).map(|i| 0.25 * i as f64).collect();
        let actions = Matrix::from_fn(rows, action_dim, |r, c| ((seed >> ((r + c) % 48)) % 1000) as f64 / 1000.0);
        let batch = agent.min_q_batch(&state, &actions);
        prop_assert_eq!(batch.len(), rows);
        for (r, q) in batch.iter().enumerate() {
            prop_assert_eq!(q.to_bits(), agent.min_q(&state, actions.row(r)).to_bits());
        }
    }
}

/// Accepts land at every position of the first five blocks (iterations
/// 1..=31 span blocks of 1, 2, 4, 8 and 16), and each equals the oracle.
#[test]
fn accepts_at_every_block_position_equal_the_sequential_loop() {
    let mut covered = [false; 32];
    covered[0] = true;
    for seed in 0..400u64 {
        let agent = agent(2, 3, 8, seed);
        let state = [0.2, 0.4];
        let probe = TwinQOptimizer {
            q_threshold: f64::INFINITY,
            sigma: 0.1,
            max_iters: 64,
            smoothing_samples: 2,
        };
        let noise = GaussianNoise::new(3, probe.sigma);
        let perturb = |a: &[f64], r: &mut StdRng| noise.perturb(a, r);
        let (_, scores) = sequential(
            &probe,
            &agent,
            &state,
            vec![0.5; 3],
            &mut StdRng::seed_from_u64(seed),
            perturb,
        );
        for (i, &q) in scores.iter().enumerate().take(32).skip(1) {
            // Only a new running maximum is the first candidate to clear
            // its own score.
            if covered[i] || scores[..i].iter().any(|&p| p >= q) {
                continue;
            }
            let opt = TwinQOptimizer {
                q_threshold: q,
                ..probe
            };
            let mut want_rng = StdRng::seed_from_u64(seed);
            let (want, _) = sequential(&opt, &agent, &state, vec![0.5; 3], &mut want_rng, perturb);
            let mut got_rng = StdRng::seed_from_u64(seed);
            let got = opt.optimize(&agent, &state, vec![0.5; 3], &mut got_rng);
            assert_eq!(want.iterations, i);
            assert!(want.accepted);
            assert_same(&got, &want, &got_rng, &want_rng);
            covered[i] = true;
        }
        if covered.iter().all(|&c| c) {
            return;
        }
    }
    panic!("accept positions not covered: {covered:?}");
}
