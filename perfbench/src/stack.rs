//! The paper-default tuning stack, assembled the way `deepcat-tune
//! serve` assembles it, plus the output checks every workload shares.

use deepcat::{
    online_tune_resilient, save_td3, train_td3, AgentConfig, ChaosSessionConfig, OfflineConfig,
    OnlineConfig, ResiliencePolicy, ResilientEnv, SessionOutcome, SessionSpec, StepRecord,
    Td3Agent, TuningEnv, TuningReport,
};
use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};
use std::path::Path;

/// Offline iterations behind the loaded model (the CLI default).
pub const OFFLINE_ITERS: usize = 1500;
/// Online steps per request or session (the paper's 5).
pub const STEPS: usize = 5;
/// Background load of the live cluster (the CLI default).
pub const BACKGROUND_LOAD: f64 = 0.15;
/// Seed of the model the online workloads load (the CLI default seed).
/// It is fixed rather than taken from the workload seed: how often the
/// Twin-Q loop clears Q_th, and so what a step costs, differs up to
/// threefold between models trained from different seeds, and the
/// spread across workload seeds would measure the models, not the code.
pub const MODEL_SEED: u64 = 2022;

/// TeraSort on input D1, the CLI default workload.
pub fn workload() -> Workload {
    Workload::new(WorkloadKind::TeraSort, InputSize::D1)
}

/// The offline (standard) environment: cluster A, no background load.
pub fn offline_env(seed: u64) -> TuningEnv {
    TuningEnv::for_workload(Cluster::cluster_a(), workload(), seed)
}

/// The paper agent: 64×64 TD3 sized for the simulator's state/action.
pub fn paper_agent_cfg(env: &TuningEnv) -> AgentConfig {
    AgentConfig::for_dims(env.state_dim(), env.action_dim())
}

/// Train the model the online workloads load and save it to `out`, as
/// `deepcat-tune train --iters 1500 --model out` does.
pub fn train_model(seed: u64, out: &Path) -> Result<(), String> {
    let mut env = offline_env(seed);
    let cfg = paper_agent_cfg(&env);
    let (agent, _, _) = train_td3(
        &mut env,
        cfg,
        &OfflineConfig::deepcat(OFFLINE_ITERS, seed),
        &[],
    );
    if agent.diverged() {
        return Err(format!("offline training diverged for seed {seed}"));
    }
    save_td3(&agent, out).map_err(|e| format!("cannot save model: {e}"))
}

/// Per-session seed, the same derivation `deepcat-tune serve` uses.
pub fn session_seed(base: u64, session_idx: usize) -> u64 {
    base ^ ((session_idx as u64 + 1).wrapping_mul(0x9E37_79B9))
}

/// A distinct, well-mixed base seed per round (SplitMix64 finalizer).
pub fn round_seed(seed: u64, round: usize) -> u64 {
    let mut z = seed
        .wrapping_add((round as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x5EED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The live environment of one online session: cluster A under the
/// default background load, behind the resilience wrapper.
pub fn live_env(seed: u64) -> ResilientEnv {
    let live = Cluster::cluster_a().with_background_load(BACKGROUND_LOAD);
    ResilientEnv::new(
        TuningEnv::for_workload(live, workload(), seed ^ 0xFACE),
        ResiliencePolicy::default(),
    )
}

/// The paper's online recipe: Twin-Q at Q_th 0.3, 4 fine-tune steps.
pub fn online_cfg(seed: u64) -> OnlineConfig {
    OnlineConfig {
        steps: STEPS,
        ..OnlineConfig::deepcat(seed)
    }
}

/// One in-memory session (no commitlog, no service) on a clone of the
/// model; callers add durability.
pub fn session_spec(agent: &Td3Agent, seed: u64, name: String, tuner: &str) -> SessionSpec {
    SessionSpec {
        name,
        agent: agent.clone(),
        env: live_env(seed),
        cfg: online_cfg(seed),
        session: ChaosSessionConfig::default(),
        tuner_name: tuner.to_string(),
    }
}

fn finite(v: f64) -> bool {
    v.is_finite()
}

/// A completed session has exactly [`STEPS`] in-order step records and
/// no NaN or infinity anywhere in them.
pub fn check_report(report: &TuningReport) -> Result<(), String> {
    if report.steps.len() != STEPS {
        return Err(format!(
            "{} step records, expected {STEPS}",
            report.steps.len()
        ));
    }
    for (i, s) in report.steps.iter().enumerate() {
        let ok = s.step == i
            && finite(s.exec_time_s)
            && finite(s.reward)
            && finite(s.recommendation_s)
            && s.q_estimate.is_none_or(finite)
            && s.action.iter().all(|v| finite(*v))
            && finite(s.resilience.overhead_s);
        if !ok {
            return Err(format!("step record {i} is out of order or not finite"));
        }
    }
    Ok(())
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Field-for-field equality of two step records, except the wall-clock
/// `recommendation_s`.
pub fn same_step(a: &StepRecord, b: &StepRecord) -> bool {
    a.step == b.step
        && a.exec_time_s.to_bits() == b.exec_time_s.to_bits()
        && a.failed == b.failed
        && a.reward.to_bits() == b.reward.to_bits()
        && a.q_estimate.map(f64::to_bits) == b.q_estimate.map(f64::to_bits)
        && a.twinq_iterations == b.twinq_iterations
        && same_bits(&a.action, &b.action)
        && a.resilience == b.resilience
        && a.guardrail == b.guardrail
}

/// Re-run one session solo through `online_tune_resilient` (no service,
/// no commitlog, no faults) and require the same step records and best
/// configuration as the measured run produced.
pub fn check_solo(
    agent: &Td3Agent,
    seed: u64,
    tuner: &str,
    got: &TuningReport,
) -> Result<(), String> {
    let spec = session_spec(agent, seed, "solo".into(), tuner);
    let (mut agent, mut env) = (spec.agent, spec.env);
    let outcome = online_tune_resilient(&mut agent, &mut env, &spec.cfg, &spec.session, tuner)
        .map_err(|e| format!("solo re-run failed: {e}"))?;
    let SessionOutcome::Completed(solo) = outcome else {
        return Err("solo re-run did not complete".into());
    };
    let steps_match = solo.steps.len() == got.steps.len()
        && solo
            .steps
            .iter()
            .zip(&got.steps)
            .all(|(a, b)| same_step(a, b));
    if !steps_match {
        return Err(format!(
            "seed {seed}: step records differ from the solo re-run"
        ));
    }
    if !same_bits(&solo.best_action, &got.best_action)
        || solo.best_exec_time_s.to_bits() != got.best_exec_time_s.to_bits()
    {
        return Err(format!(
            "seed {seed}: best configuration differs from the solo re-run"
        ));
    }
    Ok(())
}

/// Indices of `k` distinct items out of `n`, chosen from `seed`.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(k.min(n));
    let mut i = 0;
    while picked.len() < k.min(n) {
        let idx = (round_seed(seed, i) % n as u64) as usize;
        if !picked.contains(&idx) {
            picked.push(idx);
        }
        i += 1;
    }
    picked
}

/// FNV-1a digest of an agent's full checkpoint (weights, targets and
/// optimizer state), printed so runs can be compared by eye.
pub fn weight_digest(agent: &Td3Agent) -> Result<u64, String> {
    let body = serde_json::to_string(&agent.checkpoint())
        .map_err(|e| format!("cannot encode checkpoint: {e}"))?;
    Ok(body.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let v = sample_indices(7, 64, 4);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|&i| i < 64));
        let mut d = v.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 4);
        assert_eq!(sample_indices(7, 3, 10).len(), 3);
        assert_eq!(v, sample_indices(7, 64, 4), "same seed, same sample");
    }

    #[test]
    fn round_seeds_differ() {
        assert_ne!(round_seed(2022, 0), round_seed(2022, 1));
        assert_ne!(round_seed(2022, 0), round_seed(2023, 0));
    }
}
