//! One round of a workload: a fixed amount of work, set up, timed, then
//! checked. A run repeats rounds until it has measured `--seconds`.

use crate::capture::{self, Trace};
use crate::storage::Ledger;
use crate::sys;
use deepcat::{StepRecord, TwinQOptimizer};
use std::time::Instant;

#[derive(Default)]
pub struct Round {
    pub setup_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Committed online steps, or offline iterations on `train`.
    pub steps: u64,
    pub step_ms: Vec<f64>,
    pub first_step_ms: Vec<f64>,
    pub request_ms: Vec<f64>,
    /// Operations (requests, sessions or training runs) and how many of
    /// them failed to complete or failed a check.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Threads doing the round's work: the coverage denominator.
    pub threads: usize,
    pub storage: Ledger,
    pub restarts: u64,
    pub twinq: TwinQCount,
    pub admit_us: Vec<f64>,
    pub step_wait_ms: Vec<f64>,
    pub trace: Option<Trace>,
}

impl Round {
    /// Record a failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }
}

/// Twin-Q loops counted from step records.
#[derive(Default, Clone, Copy)]
pub struct TwinQCount {
    pub loops: u64,
    pub rounds: u64,
    /// Loops that stopped before the iteration cap, i.e. cleared Q_th.
    /// A loop that clears Q_th on its very last allowed round reads as
    /// capped; the records do not tell the two apart.
    pub accepted: u64,
}

impl TwinQCount {
    pub fn add(&mut self, steps: &[StepRecord]) {
        let cap = TwinQOptimizer::default().max_iters;
        for s in steps {
            self.loops += 1;
            self.rounds += s.twinq_iterations as u64;
            self.accepted += u64::from(s.twinq_iterations < cap);
        }
    }

    pub fn merge(&mut self, other: TwinQCount) {
        self.loops += other.loops;
        self.rounds += other.rounds;
        self.accepted += other.accepted;
    }
}

/// Wall and CPU seconds of `f`, with the program's spans captured when
/// `traced`. Spans are folded after the clock stops.
pub fn measure<T>(
    traced: bool,
    f: impl FnOnce() -> T,
) -> Result<(T, f64, f64, Option<Trace>), String> {
    let timed = || -> Result<(T, f64, f64), String> {
        let cpu0 = sys::cpu_s()?;
        let t0 = Instant::now();
        let out = f();
        let wall = t0.elapsed().as_secs_f64();
        Ok((out, wall, sys::cpu_s()? - cpu0))
    };
    if traced {
        let (res, trace) = capture::traced(timed);
        let (out, wall, cpu) = res?;
        Ok((out, wall, cpu, Some(trace)))
    } else {
        let (out, wall, cpu) = timed()?;
        Ok((out, wall, cpu, None))
    }
}

pub fn ms(since: Instant, until: Instant) -> f64 {
    (until - since).as_secs_f64() * 1e3
}
