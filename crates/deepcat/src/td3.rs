//! Twin Delayed Deep Deterministic Policy Gradient (TD3, Fujimoto et al.
//! 2018) — the learning algorithm inside DeepCAT. Twin critics with
//! clipped double-Q targets, target-policy smoothing, and delayed actor
//! updates.

use crate::config::AgentConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use rl::{Batch, GaussianNoise};
use tensor_nn::{loss, Activation, Adam, Matrix, Mlp};

/// Diagnostics from one gradient step.
#[derive(Clone, Copy, Debug, Default)]
pub struct TrainStats {
    pub critic1_loss: f64,
    pub critic2_loss: f64,
    /// Actor objective `−E[Q1(s, μ(s))]` (only on delayed update steps).
    pub actor_loss: Option<f64>,
    /// Mean of `min(Q1, Q2)` over the batch under the current policy.
    pub mean_min_q: f64,
}

/// Serializable snapshot of a trained TD3 agent (networks + optimizer
/// moments + step counter) — what `deepcat` persists between the offline
/// and online stages.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Td3Checkpoint {
    pub cfg: AgentConfig,
    pub actor: Mlp,
    pub actor_target: Mlp,
    pub critic1: Mlp,
    pub critic2: Mlp,
    pub critic1_target: Mlp,
    pub critic2_target: Mlp,
    pub actor_opt: Adam,
    pub critic1_opt: Adam,
    pub critic2_opt: Adam,
    pub train_steps: u64,
}

/// The TD3 agent.
#[derive(Clone, Debug)]
pub struct Td3Agent {
    pub cfg: AgentConfig,
    actor: Mlp,
    actor_target: Mlp,
    critic1: Mlp,
    critic2: Mlp,
    critic1_target: Mlp,
    critic2_target: Mlp,
    actor_opt: Adam,
    critic1_opt: Adam,
    critic2_opt: Adam,
    explore: GaussianNoise,
    rng: StdRng,
    train_steps: u64,
}

fn layer_sizes(input: usize, hidden: &[usize], output: usize) -> Vec<usize> {
    let mut v = Vec::with_capacity(hidden.len() + 2);
    v.push(input);
    v.extend_from_slice(hidden);
    v.push(output);
    v
}

impl Td3Agent {
    pub fn new(cfg: AgentConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Actor: state → [0,1]^action (sigmoid head matches the paper's
        // normalized action space).
        let actor = Mlp::new(
            &layer_sizes(cfg.state_dim, &cfg.hidden, cfg.action_dim),
            Activation::Relu,
            Activation::Sigmoid,
            &mut rng,
        );
        // Critics: [state | action] → scalar Q.
        let critic_sizes = layer_sizes(cfg.state_dim + cfg.action_dim, &cfg.hidden, 1);
        let critic1 = Mlp::new(
            &critic_sizes,
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let critic2 = Mlp::new(
            &critic_sizes,
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let explore = GaussianNoise::new(cfg.action_dim, cfg.exploration_noise);
        Self {
            actor_target: actor.clone(),
            critic1_target: critic1.clone(),
            critic2_target: critic2.clone(),
            actor_opt: Adam::new(cfg.actor_lr),
            critic1_opt: Adam::new(cfg.critic_lr),
            critic2_opt: Adam::new(cfg.critic_lr),
            actor,
            critic1,
            critic2,
            explore,
            rng,
            cfg,
            train_steps: 0,
        }
    }

    /// Gradient steps taken so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Snapshot the agent's internal RNG (target-policy smoothing noise)
    /// so a resumed run continues the exact same random stream.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restore an RNG snapshot taken with [`rng_state`](Self::rng_state).
    pub fn set_rng_state(&mut self, state: [u64; 4]) {
        self.rng = StdRng::from_state(state);
    }

    /// Deterministic policy action for `state`.
    pub fn select_action(&self, state: &[f64]) -> Vec<f64> {
        assert_eq!(state.len(), self.cfg.state_dim);
        let out = self.actor.infer(&Matrix::row_vector(state));
        out.as_slice().to_vec()
    }

    /// Policy action plus exploration noise, clamped to `[0,1]`.
    pub fn select_action_noisy(&mut self, state: &[f64]) -> Vec<f64> {
        let a = self.select_action(state);
        self.explore.perturb(&a, &mut self.rng)
    }

    /// Twin critic estimates `(Q1, Q2)` for a state-action pair — the
    /// signal the Twin-Q Optimizer thresholds on.
    pub fn q_values(&self, state: &[f64], action: &[f64]) -> (f64, f64) {
        let (q1, q2) = self.q_batch(state, &Matrix::row_vector(action));
        (q1.get(0, 0), q2.get(0, 0))
    }

    /// `min(Q1, Q2)` — the paper's sub-optimality indicator.
    pub fn min_q(&self, state: &[f64], action: &[f64]) -> f64 {
        self.min_q_batch(state, &Matrix::row_vector(action))[0]
    }

    /// `min(Q1, Q2)` for every row of `actions` (`n × action_dim`) in
    /// `state`, with one forward per critic. Each entry equals
    /// [`min_q`](Self::min_q) of its row bit for bit: the forward kernels
    /// keep every row's arithmetic independent of the others.
    pub fn min_q_batch(&self, state: &[f64], actions: &Matrix) -> Vec<f64> {
        let (q1, q2) = self.q_batch(state, actions);
        q1.as_slice()
            .iter()
            .zip(q2.as_slice())
            .map(|(a, b)| a.min(*b))
            .collect()
    }

    /// Both critics on the `[state | action]` rows of `actions`.
    fn q_batch(&self, state: &[f64], actions: &Matrix) -> (Matrix, Matrix) {
        let mut sa = Matrix::zeros(actions.rows(), state.len() + actions.cols());
        for r in 0..actions.rows() {
            let row = sa.row_mut(r);
            row[..state.len()].copy_from_slice(state);
            row[state.len()..].copy_from_slice(actions.row(r));
        }
        (self.critic1.infer(&sa), self.critic2.infer(&sa))
    }

    /// One TD3 gradient step on a replay batch. Returns diagnostics and the
    /// per-sample TD errors (for priority updates).
    pub fn train_step(&mut self, batch: &Batch) -> (TrainStats, Vec<f64>) {
        let m = batch.len();
        assert!(m > 0, "empty batch");
        let states = Matrix::from_rows(
            &batch
                .transitions
                .iter()
                .map(|t| t.state.as_slice())
                .collect::<Vec<_>>(),
        );
        let actions = Matrix::from_rows(
            &batch
                .transitions
                .iter()
                .map(|t| t.action.as_slice())
                .collect::<Vec<_>>(),
        );
        let next_states = Matrix::from_rows(
            &batch
                .transitions
                .iter()
                .map(|t| t.next_state.as_slice())
                .collect::<Vec<_>>(),
        );

        // ---- targets: clipped double-Q with target policy smoothing ----
        // PANIC-SAFETY: AgentConfig keeps policy_noise finite and >= 0.
        let smooth = Normal::new(0.0, self.cfg.policy_noise).expect("valid noise");
        let mut next_actions = self.actor_target.infer(&next_states);
        {
            let clip = self.cfg.noise_clip;
            let rng = &mut self.rng;
            for v in next_actions.as_mut_slice() {
                let e = smooth.sample(rng).clamp(-clip, clip);
                *v = (*v + e).clamp(0.0, 1.0);
            }
        }
        let sa_next = next_states.hconcat(&next_actions);
        let q1_t = self.critic1_target.infer(&sa_next);
        let q2_t = self.critic2_target.infer(&sa_next);
        let y = Matrix::from_fn(m, 1, |r, _| {
            let t = &batch.transitions[r];
            let not_done = if t.done { 0.0 } else { 1.0 };
            let q_min = q1_t.get(r, 0).min(q2_t.get(r, 0));
            self.cfg.clip_reward(t.reward) + self.cfg.gamma * not_done * q_min
        });

        // ---- critic updates ----
        let critic_span = telemetry::span!("td3.critic_update");
        let sa = states.hconcat(&actions);
        let c1_cache = self.critic1.forward(&sa);
        let c2_cache = self.critic2.forward(&sa);
        let td_errors: Vec<f64> = (0..m)
            .map(|r| c1_cache.output.get(r, 0) - y.get(r, 0))
            .collect();
        let g1 = loss::weighted_mse_grad(&c1_cache.output, &y, &batch.weights);
        let g2 = loss::weighted_mse_grad(&c2_cache.output, &y, &batch.weights);
        let c1_loss = loss::mse(&c1_cache.output, &y);
        let c2_loss = loss::mse(&c2_cache.output, &y);
        let (_, mut c1_grads) = self.critic1.backward(&c1_cache, &g1);
        let (_, mut c2_grads) = self.critic2.backward(&c2_cache, &g2);
        c1_grads.clip_global_norm(10.0);
        c2_grads.clip_global_norm(10.0);
        self.critic1_opt.step(&mut self.critic1, &c1_grads);
        self.critic2_opt.step(&mut self.critic2, &c2_grads);
        drop(critic_span);

        self.train_steps += 1;
        let mut stats = TrainStats {
            critic1_loss: c1_loss,
            critic2_loss: c2_loss,
            actor_loss: None,
            mean_min_q: 0.0,
        };

        // ---- delayed policy + target updates ----
        if self.train_steps % self.cfg.policy_delay as u64 == 0 {
            let _span = telemetry::span!("td3.actor_update");
            let a_cache = self.actor.forward(&states);
            let sa_pi = states.hconcat(&a_cache.output);
            let q_cache = self.critic1.forward(&sa_pi);
            stats.actor_loss = Some(-q_cache.output.mean());
            // ∂(−mean Q)/∂Q = −1/m; propagate through critic1 to the action
            // inputs, then through the actor.
            let gq = Matrix::full(m, 1, -1.0 / m as f64);
            let (grad_sa, _) = self.critic1.backward(&q_cache, &gq);
            let (_, grad_a) = grad_sa.hsplit(self.cfg.state_dim);
            let (_, mut actor_grads) = self.actor.backward(&a_cache, &grad_a);
            actor_grads.clip_global_norm(10.0);
            self.actor_opt.step(&mut self.actor, &actor_grads);

            self.actor_target
                .soft_update_from(&self.actor, self.cfg.tau);
            self.critic1_target
                .soft_update_from(&self.critic1, self.cfg.tau);
            self.critic2_target
                .soft_update_from(&self.critic2, self.cfg.tau);
        }

        // Mean min-Q under the current policy (diagnostic, Fig. 3).
        let a_now = self.actor.infer(&states);
        let sa_now = states.hconcat(&a_now);
        let q1n = self.critic1.infer(&sa_now);
        let q2n = self.critic2.infer(&sa_now);
        stats.mean_min_q = (0..m)
            .map(|r| q1n.get(r, 0).min(q2n.get(r, 0)))
            .sum::<f64>()
            / m as f64;

        (stats, td_errors)
    }

    /// Immutable access to the actor network (tests/diagnostics).
    pub fn actor(&self) -> &Mlp {
        &self.actor
    }

    /// Snapshot all learnable state into a serializable checkpoint.
    pub fn checkpoint(&self) -> Td3Checkpoint {
        Td3Checkpoint {
            cfg: self.cfg.clone(),
            actor: self.actor.clone(),
            actor_target: self.actor_target.clone(),
            critic1: self.critic1.clone(),
            critic2: self.critic2.clone(),
            critic1_target: self.critic1_target.clone(),
            critic2_target: self.critic2_target.clone(),
            actor_opt: self.actor_opt.clone(),
            critic1_opt: self.critic1_opt.clone(),
            critic2_opt: self.critic2_opt.clone(),
            train_steps: self.train_steps,
        }
    }

    /// Restore an agent from a checkpoint. `seed` re-seeds only the
    /// exploration RNG (network and optimizer state are exact).
    pub fn from_checkpoint(cp: Td3Checkpoint, seed: u64) -> Self {
        let explore = GaussianNoise::new(cp.cfg.action_dim, cp.cfg.exploration_noise);
        Self {
            explore,
            rng: StdRng::seed_from_u64(seed),
            actor: cp.actor,
            actor_target: cp.actor_target,
            critic1: cp.critic1,
            critic2: cp.critic2,
            critic1_target: cp.critic1_target,
            critic2_target: cp.critic2_target,
            actor_opt: cp.actor_opt,
            critic1_opt: cp.critic1_opt,
            critic2_opt: cp.critic2_opt,
            train_steps: cp.train_steps,
            cfg: cp.cfg,
        }
    }

    /// True if any network parameter became non-finite.
    pub fn diverged(&self) -> bool {
        self.actor.has_non_finite()
            || self.critic1.has_non_finite()
            || self.critic2.has_non_finite()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl::Transition;

    fn toy_cfg() -> AgentConfig {
        let mut c = AgentConfig::for_dims(2, 3);
        c.hidden = vec![16, 16];
        c.batch_size = 16;
        c
    }

    /// A deterministic bandit: reward = 1 − ‖a − a*‖² with a* = (0.8, 0.2, 0.5).
    fn bandit_batch(agent: &mut Td3Agent, n: usize) -> Batch {
        let target = [0.8, 0.2, 0.5];
        let mut transitions = Vec::with_capacity(n);
        for i in 0..n {
            let s = vec![0.1, 0.2];
            let a = agent.select_action_noisy(&s);
            let d2: f64 = a.iter().zip(&target).map(|(x, t)| (x - t) * (x - t)).sum();
            let r = 1.0 - d2;
            transitions.push(Transition::new(s.clone(), a, r, s, true));
            let _ = i;
        }
        let n = transitions.len();
        Batch {
            transitions,
            weights: vec![1.0; n],
            indices: vec![0; n],
        }
    }

    #[test]
    fn actions_are_in_unit_box() {
        let mut agent = Td3Agent::new(toy_cfg(), 0);
        let s = vec![0.3, -0.1];
        for _ in 0..20 {
            let a = agent.select_action_noisy(&s);
            assert_eq!(a.len(), 3);
            assert!(a.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn learns_a_deterministic_bandit() {
        let mut agent = Td3Agent::new(toy_cfg(), 1);
        let target = [0.8, 0.2, 0.5];
        for _ in 0..1000 {
            let batch = bandit_batch(&mut agent, 16);
            agent.train_step(&batch);
        }
        assert!(!agent.diverged());
        let a = agent.select_action(&[0.1, 0.2]);
        let d2: f64 = a.iter().zip(&target).map(|(x, t)| (x - t) * (x - t)).sum();
        assert!(
            d2 < 0.05,
            "policy should approach the bandit optimum, d² = {d2}, a = {a:?}"
        );
    }

    #[test]
    fn q_values_track_bandit_reward_scale() {
        let mut agent = Td3Agent::new(toy_cfg(), 2);
        for _ in 0..1000 {
            let batch = bandit_batch(&mut agent, 16);
            agent.train_step(&batch);
        }
        let s = [0.1, 0.2];
        let a = agent.select_action(&s);
        let q = agent.min_q(&s, &a);
        // Optimal bandit reward ≈ 1.0 and episodes are single-step (done),
        // so Q should approach ≈ 1.0 (within critic error).
        assert!(q > 0.4 && q < 1.6, "min-Q = {q}");
    }

    #[test]
    fn min_q_is_min_of_twins() {
        let agent = Td3Agent::new(toy_cfg(), 3);
        let s = [0.0, 0.0];
        let a = [0.5, 0.5, 0.5];
        let (q1, q2) = agent.q_values(&s, &a);
        assert_eq!(agent.min_q(&s, &a), q1.min(q2));
    }

    #[test]
    fn delayed_updates_happen_on_schedule() {
        let mut agent = Td3Agent::new(toy_cfg(), 4);
        let b = bandit_batch(&mut agent, 16);
        let (s1, _) = agent.train_step(&b); // step 1: no actor update
        let (s2, _) = agent.train_step(&b); // step 2: actor update (delay=2)
        assert!(s1.actor_loss.is_none());
        assert!(s2.actor_loss.is_some());
    }

    #[test]
    fn td_errors_have_batch_len() {
        let mut agent = Td3Agent::new(toy_cfg(), 5);
        let b = bandit_batch(&mut agent, 16);
        let (_, tds) = agent.train_step(&b);
        assert_eq!(tds.len(), 16);
        assert!(tds.iter().all(|v| v.is_finite()));
    }
}
