//! Layer probes: public calls timed one at a time at the workload's
//! shapes after a warm-up, reported as the median per call with the
//! sample count. Every input comes from the workload seed.

use crate::stack::{self, live_env, round_seed, STEPS};
use crate::stats::median;
use deepcat::{
    load_td3, save_td3, shared_storage, ChaosSessionConfig, Commitlog, CommitlogPolicy, EngineInit,
    EngineStep, RealStorage, SessionEngine, Td3Agent, TwinQOptimizer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{GaussianNoise, RdPer, ReplayMemory, Transition};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tensor_nn::{Activation, Matrix, Mlp};

pub struct Probe {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Median seconds per call of `f` over `n` calls after `warmup` calls.
fn time_calls(warmup: usize, n: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut s = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        s.push(t.elapsed().as_secs_f64());
    }
    median(&s).expect("at least one sample")
}

fn probe(
    name: &'static str,
    unit: &'static str,
    scale: f64,
    warmup: usize,
    n: usize,
    f: impl FnMut(),
) -> Probe {
    Probe {
        name,
        unit,
        value: time_calls(warmup, n, f) * scale,
        samples: n,
    }
}

fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen::<f64>()).collect()
}

/// A replay buffer filled the way 1500 offline iterations fill it.
fn filled_rdper(rng: &mut StdRng, state_dim: usize, action_dim: usize) -> RdPer {
    let mut replay = RdPer::new(100_000, 0.3, 0.6);
    for _ in 0..stack::OFFLINE_ITERS {
        replay.push(Transition::new(
            random_vec(rng, state_dim),
            random_vec(rng, action_dim),
            rng.gen_range(-1.0..1.0),
            random_vec(rng, state_dim),
            rng.gen::<f64>() < 0.2,
        ));
    }
    replay
}

/// Every probe, on `agent` (the loaded model, or on `train` the agent a
/// traced round trained). `work` is a scratch directory on real disk.
pub fn run_all(agent: &Td3Agent, seed: u64, work: &Path) -> Result<Vec<Probe>, String> {
    let mut rng = StdRng::seed_from_u64(round_seed(seed, 0xB0B));
    let state_dim = agent.cfg.state_dim;
    let action_dim = agent.cfg.action_dim;
    let mut out = Vec::new();

    // tensor-nn: critic-shaped MLP, 41 → 64 → 64 → 1.
    let critic = Mlp::new(
        &[state_dim + action_dim, 64, 64, 1],
        Activation::Relu,
        Activation::Identity,
        &mut rng,
    );
    let row = Matrix::row_vector(&random_vec(&mut rng, state_dim + action_dim));
    out.push(probe("nn.forward_b1_us", "us", 1e6, 200, 2000, || {
        black_box(critic.forward(black_box(&row)));
    }));
    let batch_in = Matrix::from_vec(
        64,
        state_dim + action_dim,
        random_vec(&mut rng, 64 * (state_dim + action_dim)),
    );
    let grad = Matrix::from_vec(64, 1, random_vec(&mut rng, 64));
    out.push(probe("nn.fwd_bwd_b64_us", "us", 1e6, 50, 500, || {
        let cache = critic.forward(black_box(&batch_in));
        black_box(critic.backward(&cache, black_box(&grad)));
    }));

    // rl: RDPER sample of 64.
    let mut replay = filled_rdper(&mut rng, state_dim, action_dim);
    let mut sample_rng = StdRng::seed_from_u64(round_seed(seed, 0xB0C));
    out.push(probe("replay.sample_us", "us", 1e6, 100, 2000, || {
        black_box(replay.sample(64, &mut sample_rng));
    }));

    // td3: one gradient step, batch 64, on a copy of the agent.
    let batch = replay
        .sample(64, &mut sample_rng)
        .ok_or("replay too small for a batch")?;
    let mut learner = agent.clone();
    out.push(probe("td3.train_step_ms", "ms", 1e3, 10, 200, || {
        black_box(learner.train_step(black_box(&batch)));
    }));

    // twinq: Algorithm 1 on the inputs the online loop gives it: live
    // states, and the policy's action under the loop's exploration noise.
    let mut env = live_env(round_seed(seed, 0xB0D));
    let noise = GaussianNoise::new(action_dim, stack::online_cfg(seed).exploration_sigma);
    let mut state = env.reset();
    let mut inputs = Vec::with_capacity(16);
    for _ in 0..16 {
        let action = noise.perturb(&agent.select_action(&state), &mut rng);
        inputs.push((state.clone(), action));
        state = env
            .step(&random_vec(&mut rng, action_dim))
            .outcome
            .next_state;
    }
    let opt = TwinQOptimizer::default();
    let mut tq_rng = StdRng::seed_from_u64(round_seed(seed, 0xB0E));
    let mut k = 0;
    out.push(probe("twinq.optimize_ms", "ms", 1e3, 16, 160, || {
        let (s, a) = &inputs[k % inputs.len()];
        black_box(opt.optimize(agent, s, a.clone(), &mut tq_rng));
        k += 1;
    }));

    // spark-sim: one simulator evaluation through the tuning env.
    let mut sim = env.inner().clone();
    let actions: Vec<Vec<f64>> = (0..64).map(|_| random_vec(&mut rng, action_dim)).collect();
    let mut k = 0;
    out.push(probe("sim.step_ms", "ms", 1e3, 20, 300, || {
        black_box(sim.step(&actions[k % actions.len()]));
        k += 1;
    }));

    out.extend(commitlog_probes(agent, seed, work)?);

    // persist: load the agent back from a file, as set-up does.
    let model = work.join("probe-model.json");
    save_td3(agent, &model).map_err(|e| format!("cannot save probe model: {e}"))?;
    let mut loaded = Ok(());
    out.push(probe("persist.load_model_ms", "ms", 1e3, 1, 7, || {
        if let Err(e) = load_td3(&model, seed) {
            loaded = Err(format!("cannot load probe model: {e}"));
        }
    }));
    loaded?;
    Ok(out)
}

/// Commitlog probes on real disk, from the state of one durable session
/// run with `serve`'s cadence: its snapshot (taken at step 4) and its
/// step-4 record.
fn commitlog_probes(agent: &Td3Agent, seed: u64, work: &Path) -> Result<Vec<Probe>, String> {
    let policy = CommitlogPolicy {
        snapshot_every: 2,
        segment_max_records: 2,
    };
    let session_dir = work.join("probe-session");
    let s = round_seed(seed, 0xB0F);
    let mut spec = stack::session_spec(agent, s, "probe".into(), "serve");
    spec.session = ChaosSessionConfig {
        checkpoint: Some(session_dir.clone()),
        commitlog: policy.clone(),
        ..ChaosSessionConfig::default()
    };
    let init = SessionEngine::create(spec.agent, spec.env, spec.cfg, spec.session, "serve")
        .map_err(|e| format!("probe session: {e}"))?;
    let EngineInit::Ready(mut engine) = init else {
        return Err("probe session died at creation".into());
    };
    while let EngineStep::Running = engine
        .step_once()
        .map_err(|e| format!("probe session step: {e}"))?
    {}

    let real = || shared_storage(RealStorage::new());
    let io = |e: deepcat::StorageError| format!("probe commitlog: {e}");
    let (_, recovered) = Commitlog::open(&session_dir, real(), policy.clone()).map_err(io)?;
    let recovered = recovered.ok_or("probe session left nothing durable")?;
    if recovered.snapshot_step != STEPS as u64 - 1 || recovered.tail.len() != 1 {
        return Err(format!(
            "probe session recovered snapshot {} + {} records, expected {} + 1",
            recovered.snapshot_step,
            recovered.tail.len(),
            STEPS - 1
        ));
    }
    let mut out = Vec::new();

    // Open: decode the snapshot and replay-parse the 1-record tail.
    let mut failed = None;
    out.push(probe("commitlog.open_ms", "ms", 1e3, 1, 10, || {
        if let Err(e) = Commitlog::open(&session_dir, real(), policy.clone()) {
            failed = Some(io(e));
        }
    }));

    // Append: the step-4 record, framed and fsynced, at each next seq.
    let append_dir = work.join("probe-append");
    let mut log = Commitlog::create(&append_dir, real(), policy.clone()).map_err(io)?;
    let mut delta = recovered.tail[0].clone();
    out.push(probe("commitlog.append_ms", "ms", 1e3, 4, 50, || {
        delta.seq = log.next_seq();
        if let Err(e) = log.append(&delta) {
            failed = Some(io(e));
        }
    }));

    // Snapshot: the paper-sized checkpoint, written, fsynced, renamed.
    let mut cp = recovered.checkpoint;
    out.push(probe("commitlog.snapshot_ms", "ms", 1e3, 2, 20, || {
        cp.next_step = log.next_seq() as usize;
        if let Err(e) = log.snapshot(&cp) {
            failed = Some(io(e));
        }
    }));
    if let Some(e) = failed {
        return Err(e);
    }
    let snap = std::fs::read_dir(&append_dir)
        .map_err(|e| format!("probe commitlog: {e}"))?
        .filter_map(Result::ok)
        .find(|e| e.file_name().to_string_lossy().starts_with("snapshot-"))
        .ok_or("probe snapshot missing")?;
    let bytes = snap
        .metadata()
        .map_err(|e| format!("probe snapshot: {e}"))?
        .len();
    out.push(Probe {
        name: "commitlog.snapshot_bytes",
        unit: "B",
        value: bytes as f64,
        samples: 1,
    });
    Ok(out)
}
