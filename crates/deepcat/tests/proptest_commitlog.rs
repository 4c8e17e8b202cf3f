//! Property tests of the durable commitlog: for *arbitrary* corruption
//! (truncation at any byte offset, any single bit flipped, in any
//! segment or snapshot file), recovery must never panic, never surface a
//! corrupt record or an altered snapshot, and always yield a contiguous
//! valid prefix of what was appended — and a session
//! resumed from snapshot + tail replay must reproduce an uninterrupted
//! session exactly, whatever storage fault killed it.

use deepcat::{
    codec, online_tune_resilient, shared_storage, train_td3, AgentConfig, ChaosSessionConfig,
    Commitlog, CommitlogPolicy, FaultyStorage, MemStorage, OfflineConfig, OnlineCheckpoint,
    OnlineConfig, ResiliencePolicy, ResilienceSnapshot, ResilientEnv, SessionOutcome,
    SharedStorage, StepDelta, StepRecord, StoragePlan, Td3Agent, TuningEnv, TuningReport,
};
use proptest::prelude::*;
use rl::Transition;
use spark_sim::{Cluster, InputSize, Workload, WorkloadKind};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Log-level corruption: arbitrary truncation / bit flips on the tail
// ---------------------------------------------------------------------------

/// A tiny but real agent checkpoint — recovery decodes snapshots, so
/// the payload must be a faithful [`OnlineCheckpoint`].
fn tiny_checkpoint(next_step: usize) -> OnlineCheckpoint {
    let mut cfg = AgentConfig::for_dims(2, 3);
    cfg.hidden = vec![4, 4];
    let agent = Td3Agent::new(cfg, 1);
    OnlineCheckpoint {
        tuner: "prop".to_string(),
        next_step,
        total_steps: 16,
        agent: agent.checkpoint(),
        agent_rng: agent.rng_state().to_vec(),
        loop_rng: vec![1, 2, 3, 4],
        replay: Vec::new(),
        steps: Vec::new(),
        spent_s: next_step as f64,
        eval_count: next_step as u64,
        env_state: vec![0.1, 0.2],
        step_in_episode: next_step,
        resilience: ResilienceSnapshot {
            last_good_action: None,
            last_state: vec![0.1, 0.2],
            consecutive_failures: 0,
        },
        guardrail: None,
    }
}

fn delta_at(seq: u64) -> StepDelta {
    StepDelta {
        seq,
        record: StepRecord {
            step: seq as usize,
            exec_time_s: 100.0 + seq as f64,
            failed: false,
            reward: 0.25 * seq as f64,
            recommendation_s: 0.0,
            q_estimate: Some(0.5),
            twinq_iterations: 3,
            action: vec![0.1, 0.2, 0.3],
            resilience: Default::default(),
            guardrail: Default::default(),
        },
        transition: Transition::new(
            vec![0.1, 0.2],
            vec![0.1, 0.2, 0.3],
            0.25 * seq as f64,
            vec![0.2, 0.3],
            true,
        ),
        loop_rng_pre_train: vec![seq, 1, 2, 3],
        loop_rng_post: vec![seq, 2, 3, 4],
        agent_rng_post: vec![seq, 3, 4, 5],
        spent_s: seq as f64,
        eval_count: seq,
        env_state: vec![0.3, 0.4],
        step_in_episode: seq as usize,
        resilience: ResilienceSnapshot {
            last_good_action: Some(vec![0.1, 0.2, 0.3]),
            last_state: vec![0.3, 0.4],
            consecutive_failures: 0,
        },
        guardrail: None,
    }
}

/// Write a healthy log: initial snapshot, `records` appended deltas, and
/// (with `snapshot_every > 0`) periodic compacted snapshots in between.
/// Returns the appended deltas and every snapshot written.
fn build_log(
    storage: &SharedStorage,
    dir: &Path,
    records: u64,
    snapshot_every: u64,
    segment_max_records: u64,
) -> (Vec<StepDelta>, Vec<OnlineCheckpoint>) {
    let policy = CommitlogPolicy {
        snapshot_every: snapshot_every as usize,
        segment_max_records,
    };
    let mut log = Commitlog::create(dir, storage.clone(), policy).expect("create log");
    let mut snapshots = vec![tiny_checkpoint(0)];
    log.snapshot(&snapshots[0]).expect("initial snapshot");
    let mut deltas = Vec::new();
    for seq in 0..records {
        let delta = delta_at(seq);
        log.append(&delta).expect("append");
        deltas.push(delta);
        if snapshot_every > 0 && (seq + 1) % snapshot_every == 0 && seq + 1 < records {
            let cp = tiny_checkpoint((seq + 1) as usize);
            log.snapshot(&cp).expect("periodic snapshot");
            snapshots.push(cp);
        }
    }
    (deltas, snapshots)
}

/// List the log directory's files through the storage trait.
fn list_files(storage: &SharedStorage, dir: &Path) -> Vec<PathBuf> {
    storage
        .lock()
        .list(dir)
        .expect("list")
        .into_iter()
        .map(|name| dir.join(name))
        .collect()
}

/// Canonical bytes of a payload: its codec encoding, which stores every
/// float by bit pattern.
fn canon<T: serde::Serialize>(value: &T) -> Vec<u8> {
    codec::encode(value).expect("encode")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever single corruption hits whatever file — truncation at an
    /// arbitrary offset or one flipped bit — `Commitlog::open` must not
    /// panic or error, the recovered snapshot must be byte for byte one
    /// that was written (a flipped bit in a snapshot file ends in an
    /// older snapshot or a fresh start, never in altered weights), the
    /// recovered tail must be a contiguous, bitwise prefix of what was
    /// appended, and a second open of the repaired log must be clean
    /// (recovery is idempotent).
    #[test]
    fn arbitrary_tail_corruption_recovers_a_valid_prefix(
        records in 1u64..10,
        snapshot_every in 0u64..4,
        segment_max in 1u64..4,
        file_pick in 0usize..64,
        offset_pick in 0usize..4096,
        flip in 0u8..2,
        bit in 0u8..8,
    ) {
        let storage = shared_storage(MemStorage::new());
        let dir = PathBuf::from("/prop/commitlog");
        let (deltas, snapshots) = build_log(&storage, &dir, records, snapshot_every, segment_max);

        // Corrupt one file: either truncate it at an arbitrary offset or
        // flip a single bit at an arbitrary byte.
        let files = list_files(&storage, &dir);
        prop_assert!(!files.is_empty());
        let target = &files[file_pick % files.len()];
        {
            let mut s = storage.lock();
            let mut body = s.read(target).expect("read target");
            if !body.is_empty() {
                if flip == 1 {
                    let at = offset_pick % body.len();
                    body[at] ^= 1 << bit;
                } else {
                    body.truncate(offset_pick % (body.len() + 1));
                }
                s.write_all(target, &body).expect("write corruption");
            }
        }

        let policy = CommitlogPolicy {
            snapshot_every: snapshot_every as usize,
            segment_max_records: segment_max,
        };
        let (log, recovered) =
            Commitlog::open(&dir, storage.clone(), policy.clone()).expect("recovery must not error");
        match &recovered {
            Some(rec) => {
                prop_assert_eq!(rec.checkpoint.next_step as u64, rec.snapshot_step);
                // The snapshot is bitwise one we wrote — a corrupt one is
                // skipped, never read back with altered contents.
                let got = canon(&rec.checkpoint);
                prop_assert!(
                    snapshots.iter().any(|cp| canon(cp) == got),
                    "recovered snapshot at step {} is not one that was written",
                    rec.snapshot_step
                );
                // Contiguous sequence numbers from the snapshot on.
                for (k, delta) in rec.tail.iter().enumerate() {
                    prop_assert_eq!(delta.seq, rec.snapshot_step + k as u64);
                }
                // Every recovered record is bitwise one we appended — no
                // invented or corrupt record survives recovery.
                let end = rec.snapshot_step + rec.tail.len() as u64;
                prop_assert!(end <= records, "recovered past what was written");
                for delta in &rec.tail {
                    prop_assert_eq!(canon(delta), canon(&deltas[delta.seq as usize]));
                }
                prop_assert_eq!(log.next_seq(), end);
            }
            None => {
                // Total loss (e.g. the only snapshot was hit): the log
                // falls back to a fresh start at seq 0.
                prop_assert_eq!(log.next_seq(), 0);
            }
        }

        // Idempotence: recovery already repaired the log on disk, so a
        // second open finds nothing left to truncate and lands on the
        // same state.
        let (log2, recovered2) =
            Commitlog::open(&dir, storage.clone(), policy).expect("re-open must not error");
        prop_assert_eq!(log2.next_seq(), log.next_seq());
        if let Some(rec2) = &recovered2 {
            prop_assert_eq!(rec2.truncated_records, 0);
            prop_assert_eq!(rec2.truncated_bytes, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// Session-level: snapshot + tail replay == uninterrupted session
// ---------------------------------------------------------------------------

fn fleet_agent() -> &'static Td3Agent {
    static AGENT: OnceLock<Td3Agent> = OnceLock::new();
    AGENT.get_or_init(|| {
        let mut env = TuningEnv::for_workload(
            Cluster::cluster_a(),
            Workload::new(WorkloadKind::TeraSort, InputSize::D1),
            9,
        );
        let mut cfg = AgentConfig::for_dims(env.state_dim(), env.action_dim());
        cfg.hidden = vec![32, 32];
        cfg.warmup_steps = 64;
        cfg.batch_size = 32;
        let (agent, _, _) = train_td3(&mut env, cfg, &OfflineConfig::deepcat(500, 9), &[]);
        agent
    })
}

fn live_env(seed: u64) -> ResilientEnv {
    ResilientEnv::new(
        TuningEnv::for_workload(
            Cluster::cluster_a().with_background_load(0.15),
            Workload::new(WorkloadKind::TeraSort, InputSize::D1),
            seed,
        ),
        ResiliencePolicy::default(),
    )
}

fn deterministic_fields(report: &TuningReport) -> Vec<(usize, f64, f64, bool, Vec<f64>)> {
    report
        .steps
        .iter()
        .map(|s| (s.step, s.exec_time_s, s.reward, s.failed, s.action.clone()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A session killed by an injected storage fault at an *arbitrary*
    /// write op — mid-append, mid-snapshot, via torn write, short write,
    /// failed fsync, ENOSPC, or a latent bit flip — and resumed from its
    /// commitlog must land on exactly the uninterrupted session's steps
    /// and best configuration.
    #[test]
    fn crashed_session_replays_to_the_uninterrupted_result(
        kill_op in 1u64..12,
        flavor_seed in 0u64..10,
        env_seed in 1u64..200,
    ) {
        let cfg = OnlineConfig { steps: 3, ..OnlineConfig::deepcat(env_seed) };

        let mut reference_agent = fleet_agent().clone();
        let reference = match online_tune_resilient(
            &mut reference_agent,
            &mut live_env(env_seed),
            &cfg,
            &ChaosSessionConfig::default(),
            "prop-reference",
        ).expect("reference session") {
            SessionOutcome::Completed(r) => r,
            other => panic!("reference did not complete: {other:?}"),
        };

        let dir = PathBuf::from("/prop/session-commitlog");
        let storage = shared_storage(FaultyStorage::new(
            MemStorage::new(),
            StoragePlan::kill_at(kill_op, flavor_seed),
        ));
        let mut outcome = None;
        for attempt in 0..4usize {
            let session = ChaosSessionConfig {
                checkpoint: Some(dir.clone()),
                resume: attempt > 0,
                storage: Some(storage.clone()),
                commitlog: CommitlogPolicy { snapshot_every: 2, segment_max_records: 2 },
                ..ChaosSessionConfig::default()
            };
            let mut agent = fleet_agent().clone();
            match online_tune_resilient(&mut agent, &mut live_env(env_seed), &cfg, &session, "prop")
                .expect("session I/O")
            {
                SessionOutcome::Completed(r) => { outcome = Some(r); break; }
                SessionOutcome::Crashed { .. } => continue,
                SessionOutcome::Killed { .. } => panic!("unexpected kill"),
            }
        }
        let recovered = outcome.expect("session never completed within 4 attempts");
        prop_assert_eq!(
            deterministic_fields(&recovered),
            deterministic_fields(&reference)
        );
        prop_assert_eq!(recovered.best_action, reference.best_action);
        prop_assert_eq!(recovered.best_exec_time_s, reference.best_exec_time_s);
    }
}
