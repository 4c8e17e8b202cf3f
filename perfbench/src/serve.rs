//! `serve` and `recover`: 64 concurrent durable sessions × 5 steps
//! through the supervised [`TuningService`] with 2 workers. Each session
//! keeps a commitlog on real disk with `deepcat-tune serve`'s cadence.
//! On `recover`, a seeded panic kills every session once before a
//! mid-run step, and the session resumes through `Commitlog::open`.

use crate::round::{measure, ms, Round};
use crate::stack::{self, check_report, check_solo, round_seed, session_seed, STEPS};
use crate::storage::{SharedLedger, TimedStorage};
use deepcat::{
    load_td3, shared_storage, CommitlogPolicy, RestartPolicy, ServiceConfig, ServiceFault,
    ServiceFaultEvent, ServiceFaultPlan, SessionOutcome, SessionPhase, TuningService,
};
use std::path::Path;
use std::time::Instant;

pub const SESSIONS: usize = 64;
pub const WORKERS: usize = 2;
/// Sessions per round re-run solo as an output check.
const SOLO_CHECKS: usize = 2;

/// One panic per session, before a step in `1..STEPS`. The steps are
/// spread evenly over the sessions and their assignment is shuffled by
/// the seed, so every round replays the same mix of snapshot and tail
/// lengths.
fn kill_plan(base: u64, sessions: usize) -> ServiceFaultPlan {
    let mut steps: Vec<usize> = (0..sessions).map(|i| 1 + i % (STEPS - 1)).collect();
    for i in (1..steps.len()).rev() {
        let j = (round_seed(base, i) % (i as u64 + 1)) as usize;
        steps.swap(i, j);
    }
    let events = steps
        .into_iter()
        .enumerate()
        .map(|(session, step)| ServiceFaultEvent {
            session,
            step,
            fault: ServiceFault::Panic,
        })
        .collect();
    ServiceFaultPlan {
        name: "kill-each-once".into(),
        seed: base,
        events,
    }
}

pub fn round(
    model: &Path,
    work: &Path,
    seed: u64,
    idx: usize,
    sessions: usize,
    kills: bool,
    traced: bool,
) -> Result<Round, String> {
    let base = round_seed(seed, idx);
    let dir = work.join(format!("round-{idx}"));
    let planned_kills = if kills { 1 } else { 0 };

    let t0 = Instant::now();
    let agent = load_td3(model, base).map_err(|e| format!("cannot load model: {e}"))?;
    let faults = if kills {
        kill_plan(base, sessions)
    } else {
        ServiceFaultPlan::none()
    };
    let service = TuningService::with_faults(
        ServiceConfig {
            workers: WORKERS,
            max_sessions: sessions,
            restart: RestartPolicy {
                max_restarts: 8,
                ..RestartPolicy::default()
            },
            ..ServiceConfig::default()
        },
        faults,
    );
    let mut ids = Vec::with_capacity(sessions);
    let mut ledgers = Vec::with_capacity(sessions);
    let mut admit_us = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let ledger = SharedLedger::default();
        let mut spec =
            stack::session_spec(&agent, session_seed(base, i), format!("serve-{i}"), "serve");
        spec.session.checkpoint = Some(dir.join(format!("session-{i}")).join("commitlog"));
        spec.session.commitlog = CommitlogPolicy {
            snapshot_every: 2,
            segment_max_records: 2,
        };
        spec.session.storage = Some(shared_storage(TimedStorage::new(ledger.clone(), traced)));
        let a0 = Instant::now();
        let id = service
            .admit(spec)
            .map_err(|e| format!("admit session {i}: {e}"))?;
        admit_us.push(a0.elapsed().as_secs_f64() * 1e6);
        ids.push(id);
        ledgers.push(ledger);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let (start, wall_s, cpu_s, trace) = measure(traced, || {
        let start = Instant::now();
        service.run();
        start
    })?;

    let mut r = Round {
        setup_s,
        wall_s,
        cpu_s,
        threads: WORKERS,
        admit_us,
        ..Round::default()
    };
    let results = service.take_results();
    let solo = stack::sample_indices(base, sessions, SOLO_CHECKS);
    for (i, (&id, ledger)) in ids.iter().zip(&ledgers).enumerate() {
        r.attempted += 1;
        let ledger = ledger.lock().expect("ledger lock poisoned").clone();
        r.storage.add(&ledger);
        let Some(res) = results.iter().find(|res| res.id == id) else {
            r.fail(format!("session {i}: no result"));
            continue;
        };
        r.restarts += u64::from(res.restarts);
        let report = match (&res.phase, &res.outcome) {
            (SessionPhase::Completed, Some(SessionOutcome::Completed(report))) => report,
            (phase, _) => {
                r.fail(format!("session {i} ended in phase '{phase}'"));
                continue;
            }
        };
        let checked = check_report(report)
            .and_then(|()| {
                if res.restarts == planned_kills {
                    Ok(())
                } else {
                    Err(format!(
                        "{} restarts, planned {planned_kills}",
                        res.restarts
                    ))
                }
            })
            .and_then(|()| {
                if ledger.commits.len() == STEPS {
                    Ok(())
                } else {
                    Err(format!(
                        "{} step commits, expected {STEPS}",
                        ledger.commits.len()
                    ))
                }
            })
            .and_then(|()| {
                if solo.contains(&i) {
                    check_solo(&agent, session_seed(base, i), "serve", report)
                } else {
                    Ok(())
                }
            });
        if let Err(e) = checked {
            r.fail(format!("session {i}: {e}"));
            continue;
        }
        r.steps += report.steps.len() as u64;
        r.twinq.add(&report.steps);
        let c = &ledger.commits;
        r.first_step_ms.push(ms(start, c[0]));
        r.request_ms.push(ms(start, c[STEPS - 1]));
        for k in 1..STEPS {
            let gap = ms(c[k - 1], c[k]);
            r.step_ms.push(gap);
            if let Some(span_s) = trace
                .as_ref()
                .and_then(|t| t.step_spans.get(&(id, k as u64)))
            {
                r.step_wait_ms.push(gap - span_s * 1e3);
            }
        }
    }
    r.trace = trace;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(r)
}
