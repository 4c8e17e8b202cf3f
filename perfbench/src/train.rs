//! `train`: single-threaded offline TD3 + RDPER training of the paper
//! agent for the CLI's 1500 iterations.
//!
//! `train_td3` is one call, so it cannot be timed per iteration from
//! outside. [`Offline`] runs the same loop one iteration at a time from
//! the same public calls (simulator step, replay push/sample/priority
//! update, `Td3Agent::train_step`), and every run first proves it equal
//! to `train_td3`: both must yield bit-identical agents.

use crate::round::{measure, ms, Round};
use crate::stack::{offline_env, paper_agent_cfg, round_seed, weight_digest, OFFLINE_ITERS};
use crate::stats::median;
use deepcat::{train_td3, AgentConfig, OfflineConfig, Td3Agent, TuningEnv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{ReplayMemory, Transition};
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the equality check against `train_td3`: past warm-up
/// (256), so gradient steps, delayed actor updates and RDPER sampling
/// are all covered.
const CHECK_ITERS: usize = 320;
/// Set-ups timed per round (and runs timed to their first update).
const SETUP_REPEATS: usize = 24;
/// Episodes per offline "request": two 5-iteration episodes hold a
/// whole number of delayed actor updates (policy delay 2), so the
/// request time is not bimodal.
const EPISODES_PER_REQUEST: usize = 2;

/// The offline loop of `train_td3`, stepped by the caller.
pub struct Offline {
    env: TuningEnv,
    cfg: AgentConfig,
    offline: OfflineConfig,
    agent: Td3Agent,
    replay: Box<dyn ReplayMemory>,
    rng: StdRng,
    state: Vec<f64>,
}

/// What one iteration did.
pub struct Iter {
    pub trained: bool,
    pub episode_done: bool,
}

impl Offline {
    pub fn new(seed: u64, iterations: usize) -> Self {
        let mut env = offline_env(seed);
        let cfg = paper_agent_cfg(&env);
        let offline = OfflineConfig::deepcat(iterations, seed);
        let agent = Td3Agent::new(cfg.clone(), offline.seed);
        let replay = offline.replay.build(offline.capacity);
        let rng = StdRng::seed_from_u64(offline.seed ^ 0xABCD_EF01);
        let state = env.reset();
        Self {
            env,
            cfg,
            offline,
            agent,
            replay,
            rng,
            state,
        }
    }

    pub fn iterations(&self) -> usize {
        self.offline.iterations
    }

    pub fn step(&mut self, iter: usize) -> Iter {
        let action = if iter < self.cfg.warmup_steps {
            (0..self.cfg.action_dim)
                .map(|_| self.rng.gen::<f64>())
                .collect::<Vec<_>>()
        } else {
            self.agent.select_action_noisy(&self.state)
        };
        let out = self.env.step(&action);
        if iter.is_multiple_of(self.offline.log_every) {
            // train_td3 logs min-Q here; keep the work.
            std::hint::black_box(self.agent.min_q(&self.state, &action));
        }
        let state = std::mem::take(&mut self.state);
        self.replay.push(Transition::new(
            state,
            action,
            out.reward,
            out.next_state.clone(),
            out.done,
        ));
        self.state = if out.done {
            self.env.reset()
        } else {
            out.next_state
        };
        let mut trained = false;
        if self.replay.len() >= self.cfg.warmup_steps.max(self.cfg.batch_size) {
            if let Some(batch) = self.replay.sample(self.cfg.batch_size, &mut self.rng) {
                let (_, tds) = self.agent.train_step(&batch);
                self.replay.update_priorities(&batch.indices, &tds);
                trained = true;
            }
        }
        Iter {
            trained,
            episode_done: out.done,
        }
    }

    pub fn into_agent(self) -> Td3Agent {
        self.agent
    }
}

/// The stepped loop must land on exactly the agent `train_td3` trains.
pub fn check_matches_train_td3(seed: u64) -> Result<(), String> {
    let mut off = Offline::new(seed, CHECK_ITERS);
    for i in 0..CHECK_ITERS {
        off.step(i);
    }
    let ours = weight_digest(&off.into_agent())?;
    let mut env = offline_env(seed);
    let cfg = paper_agent_cfg(&env);
    let (agent, _, _) = train_td3(
        &mut env,
        cfg,
        &OfflineConfig::deepcat(CHECK_ITERS, seed),
        &[],
    );
    let theirs = weight_digest(&agent)?;
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "stepped training loop diverged from train_td3 (digest {ours:016x} vs {theirs:016x})"
        ))
    }
}

pub fn round(seed: u64, idx: usize, traced: bool) -> Result<(Round, Td3Agent), String> {
    let base = round_seed(seed, idx);
    // Set-up is well under a millisecond and the first gradient update
    // comes a few milliseconds in, so both are sampled on several
    // identical set-ups: each runs up to its first gradient update, and
    // the last one goes on to train for the whole round.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut first_update_ms = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        let t0 = Instant::now();
        let mut off = black_box(Offline::new(base, OFFLINE_ITERS));
        setups.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        let mut i = 0;
        while i < off.iterations() && !off.step(i).trained {
            i += 1;
        }
        first_update_ms.push(ms(start, Instant::now()));
    }
    let t0 = Instant::now();
    let mut off = Offline::new(base, OFFLINE_ITERS);
    setups.push(t0.elapsed().as_secs_f64());
    let setup_s = median(&setups).expect("at least one set-up");

    let n = off.iterations();
    if traced {
        // Traced rounds need no per-iteration clock, so they run
        // `train_td3` itself with its own spans.
        drop(off);
        let mut env = offline_env(base);
        let cfg = paper_agent_cfg(&env);
        let offline = OfflineConfig::deepcat(n, base);
        let ((agent, _, _), wall_s, cpu_s, trace) =
            measure(true, || train_td3(&mut env, cfg, &offline, &[]))?;
        let mut r = Round {
            setup_s,
            wall_s,
            cpu_s,
            steps: n as u64,
            attempted: 1,
            threads: 1,
            trace,
            ..Round::default()
        };
        if agent.diverged() {
            r.fail(format!("training run {idx} diverged"));
        }
        return Ok((r, agent));
    }
    let mut step_ms = Vec::with_capacity(n);
    let mut request_ms = Vec::new();
    let mut first_trained = None;
    let ((), wall_s, cpu_s, _) = measure(false, || {
        let start = Instant::now();
        let mut prev = start;
        let mut request_start = start;
        let mut episodes = 0;
        for i in 0..n {
            let it = off.step(i);
            let now = Instant::now();
            step_ms.push(ms(prev, now));
            prev = now;
            if it.trained && first_trained.is_none() {
                first_trained = Some(ms(start, now));
            }
            if it.episode_done {
                episodes += 1;
                if episodes % EPISODES_PER_REQUEST == 0 {
                    request_ms.push(ms(request_start, now));
                    request_start = now;
                }
            }
        }
    })?;
    let agent = off.into_agent();

    let mut r = Round {
        setup_s,
        wall_s,
        cpu_s,
        steps: n as u64,
        step_ms,
        request_ms,
        first_step_ms: first_update_ms,
        attempted: 1,
        threads: 1,
        ..Round::default()
    };
    if agent.diverged() {
        r.fail(format!("training run {idx} diverged"));
    } else if first_trained.is_none() {
        r.fail(format!("training run {idx} never took a gradient step"));
    }
    Ok((r, agent))
}
