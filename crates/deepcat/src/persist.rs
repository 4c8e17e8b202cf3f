//! Model persistence: save and load trained agents, so a model trained
//! offline once can serve many online tuning requests — the deployment
//! split the paper's architecture (Fig. 1) assumes.
//!
//! A model file is one commitlog frame (DESIGN.md §15) with sequence
//! number 0 around the [`crate::codec`]-encoded
//! [`Td3Checkpoint`]: the same binary, CRC-checked format as commitlog
//! snapshots, so weights load back bit-for-bit and a corrupt file is
//! refused rather than misread.

use crate::commitlog::{encode_framed, unframe_file};
use crate::guardrail::GuardrailSnapshot;
use crate::online::StepRecord;
use crate::resilience::ResilienceSnapshot;
use crate::td3::{Td3Agent, Td3Checkpoint};
use rl::Transition;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::path::Path;

/// Crash-safe file replacement: write to a temp file *in the target
/// directory* (rename is only atomic within a filesystem), fsync the
/// data, atomically rename over `path`, then fsync the directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// complete file or the new complete file — never a torn mix.
fn atomic_write(path: &Path, body: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(body)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Frame sequence number of a model file.
const MODEL_SEQ: u64 = 0;

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Save a TD3 agent's checkpoint to `path` (binary frame, atomic replace).
pub fn save_td3(agent: &Td3Agent, path: &Path) -> io::Result<()> {
    let body = encode_framed(MODEL_SEQ, &agent.checkpoint(), u32::MAX)?;
    atomic_write(path, &body)
}

/// Load a TD3 agent from a checkpoint written by [`save_td3`].
/// `seed` re-seeds the exploration noise only.
pub fn load_td3(path: &Path, seed: u64) -> io::Result<Td3Agent> {
    let body = std::fs::read(path)?;
    let payload = unframe_file(&body, MODEL_SEQ).ok_or_else(|| {
        invalid_data(format!(
            "{}: not a binary DeepCAT model; retrain it",
            path.display()
        ))
    })?;
    let cp: Td3Checkpoint = crate::codec::decode(payload).ok_or_else(|| {
        invalid_data(format!(
            "{}: model payload does not decode to a TD3 checkpoint; retrain it",
            path.display()
        ))
    })?;
    Ok(Td3Agent::from_checkpoint(cp, seed))
}

/// Full state of an in-flight resilient online session, written as a
/// commitlog snapshot so a killed run resumes bit-identically: agent
/// weights, both RNG streams (the agent's target-smoothing RNG and the
/// session loop's exploration/sampling RNG, as 4 xoshiro words each),
/// replay contents, per-step records, spent budget, the simulator's
/// evaluation counter (fault schedules key off it), and the observed
/// environment state.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OnlineCheckpoint {
    pub tuner: String,
    /// First step the resumed session should execute.
    pub next_step: usize,
    pub total_steps: usize,
    pub agent: Td3Checkpoint,
    pub agent_rng: Vec<u64>,
    pub loop_rng: Vec<u64>,
    pub replay: Vec<Transition>,
    pub steps: Vec<StepRecord>,
    pub spent_s: f64,
    pub eval_count: u64,
    pub env_state: Vec<f64>,
    pub step_in_episode: usize,
    pub resilience: ResilienceSnapshot,
    /// Guardrail state (canary baseline, watchdog window, envelope);
    /// `None` when the session runs without guardrails.
    pub guardrail: Option<GuardrailSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AgentConfig;
    use rl::{Batch, Transition};

    /// Unique per-test scratch directory (pid + per-process counter, so
    /// concurrent `cargo test` invocations never collide), removed on
    /// drop.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "deepcat-persist-test-{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn trained() -> Td3Agent {
        let mut cfg = AgentConfig::for_dims(2, 3);
        cfg.hidden = vec![8, 8];
        let mut agent = Td3Agent::new(cfg, 1);
        for _ in 0..50 {
            let transitions: Vec<Transition> = (0..8)
                .map(|i| {
                    let s = vec![0.1, 0.2];
                    let a = vec![0.3, 0.5, 0.7];
                    Transition::new(s.clone(), a, 0.5 - 0.01 * i as f64, s, true)
                })
                .collect();
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
    fn round_trip_preserves_policy_and_critics() {
        let agent = trained();
        let dir = TestDir::new("round-trip");
        let path = dir.join("agent.bin");
        save_td3(&agent, &path).unwrap();
        let loaded = load_td3(&path, 99).unwrap();
        let s = [0.1, 0.2];
        assert_eq!(agent.select_action(&s), loaded.select_action(&s));
        let a = [0.3, 0.5, 0.7];
        assert_eq!(agent.q_values(&s, &a), loaded.q_values(&s, &a));
        assert_eq!(agent.train_steps(), loaded.train_steps());
    }

    #[test]
    fn loaded_agent_continues_training() {
        let agent = trained();
        let dir = TestDir::new("continue");
        let path = dir.join("agent.bin");
        save_td3(&agent, &path).unwrap();
        let mut loaded = load_td3(&path, 5).unwrap();
        let transitions: Vec<Transition> = (0..8)
            .map(|_| {
                Transition::new(
                    vec![0.1, 0.2],
                    vec![0.5, 0.5, 0.5],
                    0.3,
                    vec![0.1, 0.2],
                    true,
                )
            })
            .collect();
        let n = transitions.len();
        let (stats, _) = loaded.train_step(&Batch {
            transitions,
            weights: vec![1.0; n],
            indices: vec![0; n],
        });
        assert!(stats.critic1_loss.is_finite());
        assert!(!loaded.diverged());
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_td3(Path::new("/nonexistent/agent.bin"), 0).is_err());
    }

    #[test]
    fn any_bit_flip_in_a_model_file_is_refused() {
        let dir = TestDir::new("bitflip");
        let path = dir.join("agent.bin");
        save_td3(&trained(), &path).unwrap();
        let body = std::fs::read(&path).unwrap();
        // Every bit of the header and a stride of the payload.
        for at in (0..body.len()).filter(|i| *i < 32 || i % 97 == 0) {
            let mut flipped = body.clone();
            flipped[at] ^= 0x04;
            std::fs::write(&path, &flipped).unwrap();
            assert!(load_td3(&path, 0).is_err(), "flip at byte {at} accepted");
        }
    }

    /// Every float in a serialized tree, as bit patterns.
    fn float_bits(v: &serde::Value, out: &mut Vec<u64>) {
        match v {
            serde::Value::F64(x) => out.push(x.to_bits()),
            serde::Value::Seq(items) => items.iter().for_each(|i| float_bits(i, out)),
            serde::Value::Map(entries) => entries.iter().for_each(|(_, i)| float_bits(i, out)),
            _ => {}
        }
    }

    fn checkpoint_bits(cp: &Td3Checkpoint) -> Vec<u64> {
        let mut out = Vec::new();
        float_bits(&serde::Serialize::serialize(cp), &mut out);
        out
    }

    /// A diverged agent (NaN with payloads, ±inf, −0.0, subnormal
    /// weights) must checkpoint and load back bit for bit, through both
    /// the commitlog snapshot and the model file. Text snapshots wrote
    /// non-finite weights as `null`, so recovery read back different
    /// weights or skipped the snapshot as corrupt.
    #[test]
    fn non_finite_weights_round_trip_bit_exactly() {
        use crate::commitlog::{Commitlog, CommitlogPolicy};
        use crate::storage::{shared_storage, MemStorage};

        let specials = [
            f64::NAN,
            f64::from_bits(0x7FF8_0000_0000_0001),
            f64::from_bits(0xFFF4_0000_DEAD_BEEF),
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            f64::from_bits(1),
        ];
        let mut cp = trained().checkpoint();
        for (k, mlp) in [&mut cp.actor, &mut cp.critic1, &mut cp.critic2_target]
            .into_iter()
            .enumerate()
        {
            let weights = mlp.layers_mut()[0].weight.as_mut_slice();
            for (i, x) in specials.iter().enumerate() {
                weights[(i + k) % weights.len()] = *x;
            }
            mlp.layers_mut()[1].bias.as_mut_slice()[0] = specials[k];
        }
        let agent = Td3Agent::from_checkpoint(cp, 3);
        let want = checkpoint_bits(&agent.checkpoint());
        assert!(want.contains(&f64::INFINITY.to_bits()));
        assert!(want.contains(&0x7FF8_0000_0000_0001));

        // Model file.
        let dir = TestDir::new("non-finite");
        let path = dir.join("diverged.bin");
        save_td3(&agent, &path).unwrap();
        let loaded = load_td3(&path, 3).unwrap();
        assert_eq!(checkpoint_bits(&loaded.checkpoint()), want);

        // Commitlog snapshot.
        let storage = shared_storage(MemStorage::new());
        let log_dir = Path::new("/diverged/commitlog");
        let mut log = Commitlog::create(log_dir, storage.clone(), CommitlogPolicy::default())
            .expect("create log");
        let online = OnlineCheckpoint {
            tuner: "diverged".into(),
            next_step: 0,
            total_steps: 4,
            agent: agent.checkpoint(),
            agent_rng: agent.rng_state().to_vec(),
            loop_rng: vec![1, 2, 3, 4],
            replay: Vec::new(),
            steps: Vec::new(),
            spent_s: 0.0,
            eval_count: 0,
            env_state: vec![f64::NAN, -0.0],
            step_in_episode: 0,
            resilience: ResilienceSnapshot {
                last_good_action: None,
                last_state: vec![f64::NEG_INFINITY],
                consecutive_failures: 0,
            },
            guardrail: None,
        };
        log.snapshot(&online).expect("snapshot");
        let (_, recovered) =
            Commitlog::open(log_dir, storage, CommitlogPolicy::default()).expect("open");
        let recovered = recovered.expect("snapshot recovered");
        assert_eq!(recovered.corrupt_snapshots, 0);
        assert_eq!(checkpoint_bits(&recovered.checkpoint.agent), want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&recovered.checkpoint.env_state),
            bits(&online.env_state)
        );
        assert_eq!(
            bits(&recovered.checkpoint.resilience.last_state),
            bits(&online.resilience.last_state)
        );
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let agent = trained();
        let dir = TestDir::new("atomic");
        let path = dir.join("agent.bin");
        save_td3(&agent, &path).unwrap();
        // Overwrite the existing checkpoint: still loadable, and the
        // temp file used for the atomic replace must be gone.
        save_td3(&agent, &path).unwrap();
        assert!(load_td3(&path, 1).is_ok());
        let leftovers: Vec<_> = std::fs::read_dir(&dir.0)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp file survived: {leftovers:?}");
    }
}
