//! `tune`: one client sends 5-step tuning requests one after another.
//! Each request is a fresh in-memory [`SessionEngine`] on a clone of
//! the loaded model: no commitlog, no service.

use crate::round::{measure, ms, Round};
use crate::stack::{self, check_report, check_solo, round_seed, session_seed};
use deepcat::{load_td3, EngineInit, EngineStep, SessionEngine, SessionOutcome, TuningReport};
use std::path::Path;
use std::time::Instant;

/// Requests per round: 500 steps, enough for a step p95 within one
/// round, in about a second and a half, short enough that the host's
/// speed changes little within a round. Request p95s pool the run.
pub const REQUESTS: usize = 100;
/// Requests per round re-run solo as an output check.
const SOLO_CHECKS: usize = 2;

struct Timings {
    step_ms: Vec<f64>,
    first_step_ms: Vec<f64>,
    request_ms: Vec<f64>,
}

fn request(agent: &deepcat::Td3Agent, seed: u64, t: &mut Timings) -> Result<TuningReport, String> {
    let start = Instant::now();
    let spec = stack::session_spec(agent, seed, String::new(), "tune");
    let init = SessionEngine::create(spec.agent, spec.env, spec.cfg, spec.session, "tune")
        .map_err(|e| format!("engine creation failed: {e}"))?;
    let EngineInit::Ready(mut engine) = init else {
        return Err("engine died at creation".into());
    };
    let mut first = true;
    loop {
        let before = Instant::now();
        let step = engine
            .step_once()
            .map_err(|e| format!("step failed: {e}"))?;
        let after = Instant::now();
        t.step_ms.push(ms(before, after));
        if first {
            t.first_step_ms.push(ms(start, after));
            first = false;
        }
        if let EngineStep::Finished(outcome) = step {
            t.request_ms.push(ms(start, after));
            return match outcome {
                SessionOutcome::Completed(report) => Ok(report),
                other => Err(format!("request ended as {other:?}")),
            };
        }
    }
}

pub fn round(
    model: &Path,
    seed: u64,
    idx: usize,
    requests: usize,
    traced: bool,
) -> Result<Round, String> {
    let base = round_seed(seed, idx);
    let t0 = Instant::now();
    let agent = load_td3(model, base).map_err(|e| format!("cannot load model: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut t = Timings {
        step_ms: Vec::with_capacity(requests * stack::STEPS),
        first_step_ms: Vec::with_capacity(requests),
        request_ms: Vec::with_capacity(requests),
    };
    let (results, wall_s, cpu_s, trace) = measure(traced, || {
        (0..requests)
            .map(|i| request(&agent, session_seed(base, i), &mut t))
            .collect::<Vec<_>>()
    })?;

    let mut r = Round {
        setup_s,
        wall_s,
        cpu_s,
        threads: 1,
        trace,
        ..Round::default()
    };
    let solo = stack::sample_indices(base, requests, SOLO_CHECKS);
    for (i, res) in results.iter().enumerate() {
        r.attempted += 1;
        let report = match res {
            Ok(report) => report,
            Err(e) => {
                r.fail(format!("tune request {i}: {e}"));
                continue;
            }
        };
        let checked = check_report(report).and_then(|()| {
            if solo.contains(&i) {
                check_solo(&agent, session_seed(base, i), "tune", report)
            } else {
                Ok(())
            }
        });
        if let Err(e) = checked {
            r.fail(format!("tune request {i}: {e}"));
            continue;
        }
        r.steps += report.steps.len() as u64;
        r.twinq.add(&report.steps);
    }
    r.step_ms = t.step_ms;
    r.first_step_ms = t.first_step_ms;
    r.request_ms = t.request_ms;
    Ok(r)
}
