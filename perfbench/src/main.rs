//! End-to-end benchmark of the DeepCAT tuning stack.
//!
//! ```text
//! perfbench --workload tune|serve|recover|train --seed N --seconds S --trace 0|1
//! ```
//!
//! Untraced (`--trace 0`) runs print the end-to-end metrics; traced runs
//! print the per-layer table. The last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! non-zero when any output check fails. See README.md in this
//! directory for what each workload and metric means.

mod capture;
mod probes;
mod round;
mod serve;
mod stack;
mod stats;
mod storage;
mod sys;
mod train;
mod tune;

use round::Round;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Tune,
    Serve,
    Recover,
    Train,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 2022;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "tune" => Workload::Tune,
                    "serve" => Workload::Serve,
                    "recover" => Workload::Recover,
                    "train" => Workload::Train,
                    other => return Err(format!("unknown workload '{other}'")),
                })
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where runs keep their scratch directories and the cached model.
const WORK_ROOT: &str = ".perfbench-work";

/// Scratch space for commitlogs and probe files, inside the working
/// directory, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(label: &str) -> Result<Self, String> {
        let dir = PathBuf::from(WORK_ROOT).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The model the online workloads load (`train` trains its own). It is
/// trained in a child process, as `deepcat-tune train` would, so its
/// memory never counts toward the workload's peak RSS. Training is
/// deterministic, so the model is kept under [`WORK_ROOT`] and reused by
/// later runs of the same build (keyed by the binary's size and
/// modification time): that leaves more of a run's time for measuring.
fn cached_model(seed: u64) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("cannot stat own binary: {e}"))?;
    let built = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let out =
        PathBuf::from(WORK_ROOT).join(format!("model-{seed}-{:x}-{built:x}.json", meta.len()));
    if out.exists() {
        return Ok(out);
    }
    std::fs::create_dir_all(WORK_ROOT).map_err(|e| format!("cannot create {WORK_ROOT}: {e}"))?;
    let tmp = out.with_extension(format!("tmp-{}", std::process::id()));
    let status = Command::new(exe)
        .arg("--train-model")
        .arg(seed.to_string())
        .arg(&tmp)
        .status()
        .map_err(|e| format!("cannot start model training: {e}"))?;
    if !status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("model training exited with {status}"));
    }
    std::fs::rename(&tmp, &out).map_err(|e| format!("cannot store the model: {e}"))?;
    Ok(out)
}

/// Round sizes; a warm-up round of the reduced size runs first and is
/// discarded.
struct Plan {
    full: usize,
    warmup: usize,
    /// Untraced runs keep going until this many operations are measured,
    /// so a p95 has ten samples beyond it.
    min_ops: u64,
}

fn plan(w: Workload) -> Plan {
    match w {
        Workload::Tune => Plan {
            full: tune::REQUESTS,
            warmup: 10,
            min_ops: 200,
        },
        Workload::Serve | Workload::Recover => Plan {
            full: serve::SESSIONS,
            warmup: 8,
            min_ops: 200,
        },
        Workload::Train => Plan {
            full: 1,
            warmup: 0,
            min_ops: 1,
        },
    }
}

struct Run {
    rounds: Vec<Round>,
    /// Traced runs: the untraced rounds interleaved with the traced ones.
    untraced: Vec<Round>,
    probes: Vec<probes::Probe>,
    notes: Vec<String>,
    errors: Vec<String>,
}

fn run(args: &Args) -> Result<Run, String> {
    let label = format!("{:?}", args.workload).to_lowercase();
    let model = cached_model(stack::MODEL_SEED)?;
    let work = WorkDir::create(&label)?;
    let mut errors = Vec::new();
    let mut notes = Vec::new();
    if args.workload == Workload::Train {
        // Also the warm-up: the check runs the stepped loop and train_td3.
        if let Err(e) = train::check_matches_train_td3(args.seed) {
            errors.push(e);
        }
    }
    let p = plan(args.workload);
    let one = |idx: usize,
               size: usize,
               traced: bool|
     -> Result<(Round, Option<deepcat::Td3Agent>), String> {
        Ok(match args.workload {
            Workload::Tune => (tune::round(&model, args.seed, idx, size, traced)?, None),
            Workload::Serve => (
                serve::round(&model, &work.0, args.seed, idx, size, false, traced)?,
                None,
            ),
            Workload::Recover => (
                serve::round(&model, &work.0, args.seed, idx, size, true, traced)?,
                None,
            ),
            Workload::Train => {
                let (r, agent) = train::round(args.seed, idx, traced)?;
                (r, Some(agent))
            }
        })
    };
    if p.warmup > 0 {
        let (r, _) = one(usize::MAX, p.warmup, false)?;
        errors.extend(r.errors);
    }
    let mut rounds = Vec::new();
    let mut untraced = Vec::new();
    let mut trained = None;
    let mut measured = 0.0;
    let mut ops = 0;
    let mut idx = 0;
    loop {
        let traced = args.trace && idx % 2 == 1;
        let (r, agent) = one(idx, p.full, traced)?;
        if let Some(a) = &agent {
            notes.push(format!(
                "training round {idx}: weight digest {:016x}",
                stack::weight_digest(a)?
            ));
        }
        idx += 1;
        measured += r.wall_s;
        errors.extend(r.errors.iter().cloned());
        if traced {
            trained = agent.or(trained);
            rounds.push(r);
        } else if args.trace {
            untraced.push(r);
        } else {
            ops += r.attempted;
            rounds.push(r);
        }
        let enough = if args.trace {
            !rounds.is_empty() && !untraced.is_empty()
        } else {
            ops >= p.min_ops
        };
        // Stop at the round boundary nearest to `--seconds`, so a run
        // measures `--seconds` on average rather than overshooting by
        // half a round.
        if measured + 0.5 * measured / idx as f64 >= args.seconds && enough {
            break;
        }
    }
    let walls = per_round(&rounds, |x| x.wall_s);
    notes.push(match stats::relative_iqr(&walls) {
        Some(spread) => format!(
            "{} measured rounds, round wall spread (IQR/median) {spread:.3}",
            walls.len()
        ),
        None => format!("{} measured round(s)", walls.len()),
    });
    let mut probes = Vec::new();
    if args.trace {
        let agent = match trained {
            Some(a) => a,
            None => deepcat::load_td3(&model, stack::MODEL_SEED)
                .map_err(|e| format!("cannot load model: {e}"))?,
        };
        probes = probes::run_all(&agent, args.seed, &work.0)?;
    }
    Ok(Run {
        rounds,
        untraced,
        probes,
        notes,
        errors,
    })
}

fn all<'a>(rounds: &'a [Round], f: impl Fn(&'a Round) -> &'a [f64]) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}

fn end_to_end(run: &Run, errors: &mut Vec<String>) -> Result<Vec<Metric>, String> {
    let r = &run.rounds;
    let of_rounds = |name: &'static str,
                     unit: &'static str,
                     stat: fn(&[f64]) -> Option<f64>,
                     f: fn(&Round) -> f64|
     -> Result<Metric, String> {
        let v = per_round(r, f);
        let value = stat(&v).ok_or(format!("{name}: no rounds"))?;
        Ok(metric(name, unit, value, v.len()))
    };
    let mut pct = |name: &'static str, p: f64, f: fn(&Round) -> &[f64]| -> Metric {
        let per_round: Vec<&[f64]> = r.iter().map(f).collect();
        let n = per_round.iter().map(|v| v.len()).sum();
        let value = stats::run_percentile(&per_round, p).unwrap_or_else(|| {
            errors.push(format!(
                "{name}: {n} samples leave fewer than {} beyond the p{p}",
                stats::MIN_BEYOND
            ));
            f64::NAN
        });
        metric(name, "ms", value, n)
    };
    let wall_total: f64 = r.iter().map(|x| x.wall_s).sum();
    let steps: u64 = r.iter().map(|x| x.steps).sum();
    Ok(vec![
        of_rounds("setup_s", "s", stats::median, |x| x.setup_s)?,
        of_rounds("wall_s", "s", stats::mean, |x| x.wall_s)?,
        metric(
            "steps_per_s",
            "1/s",
            steps as f64 / wall_total,
            steps as usize,
        ),
        pct("step_p50_ms", 50.0, |x| &x.step_ms),
        pct("step_p95_ms", 95.0, |x| &x.step_ms),
        pct("first_step_p50_ms", 50.0, |x| &x.first_step_ms),
        pct("request_p50_ms", 50.0, |x| &x.request_ms),
        pct("request_p95_ms", 95.0, |x| &x.request_ms),
        of_rounds("cpu_s", "s", stats::mean, |x| x.cpu_s)?,
        metric("peak_rss_mb", "MB", sys::peak_rss_mb()?, 1),
    ])
}

fn per_layer(run: &Run) -> Result<Vec<Metric>, String> {
    let r = &run.rounds;
    let n = r.len();
    let traces: Vec<_> = r.iter().filter_map(|x| x.trace.as_ref()).collect();
    let per = |v: f64| v / n as f64;
    let span_self = |names: &[&str]| per(traces.iter().fold(0.0, |acc, t| acc + t.self_of(names)));
    let steps: u64 = r.iter().map(|x| x.steps).sum();
    let storage = r.iter().fold(storage::Ledger::default(), |mut acc, x| {
        acc.add(&x.storage);
        acc
    });
    let twinq = r.iter().fold(round::TwinQCount::default(), |mut acc, x| {
        acc.merge(x.twinq);
        acc
    });
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let med0 = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let events: u64 = traces.iter().map(|t| t.events).sum();
    let unattributed = per_round(r, |x| {
        let covered = x.trace.as_ref().map_or(0.0, |t| t.root_s) + x.storage.op_s;
        (x.wall_s * x.threads as f64 - covered).max(0.0)
    });
    let traced_wall = stats::median(&per_round(r, |x| x.wall_s)).ok_or("no traced round")?;
    let untraced_wall =
        stats::median(&per_round(&run.untraced, |x| x.wall_s)).ok_or("no untraced round")?;

    let mut out: Vec<Metric> = run
        .probes
        .iter()
        .map(|p| metric(p.name, p.unit, p.value, p.samples))
        .collect();
    out.extend([
        metric(
            "td3.critic_update_s",
            "s",
            span_self(&["td3.critic_update"]),
            n,
        ),
        metric(
            "td3.actor_update_s",
            "s",
            span_self(&["td3.actor_update"]),
            n,
        ),
        metric("twinq.rescore_s", "s", span_self(&["twinq.rescore"]), n),
        metric(
            "twinq.iters_per_step",
            "count",
            ratio(twinq.rounds as f64, twinq.loops as f64),
            twinq.loops as usize,
        ),
        metric(
            "twinq.accept_ratio",
            "ratio",
            ratio(twinq.accepted as f64, twinq.loops as f64),
            twinq.loops as usize,
        ),
        metric(
            "sim.self_s",
            "s",
            span_self(&["env.eval", "sim.engine_step"]),
            n,
        ),
        metric("storage.fsync_s", "s", per(storage.fsync_s), n),
        metric(
            "storage.fsync_count",
            "count",
            per(storage.fsyncs as f64),
            n,
        ),
        metric("storage.write_s", "s", per(storage.write_s), n),
        metric("storage.read_s", "s", per(storage.read_s), n),
        metric("storage.bytes_read", "B", per(storage.bytes_read as f64), n),
        metric(
            "storage.bytes_written_per_step",
            "B",
            ratio(storage.bytes_written as f64, steps as f64),
            steps as usize,
        ),
        metric(
            "service.admit_us",
            "us",
            med0(all(r, |x| &x.admit_us)),
            all(r, |x| &x.admit_us).len(),
        ),
        metric(
            "service.step_wait_p50_ms",
            "ms",
            med0(all(r, |x| &x.step_wait_ms)),
            all(r, |x| &x.step_wait_ms).len(),
        ),
        metric(
            "supervisor.restarts",
            "count",
            per(r.iter().map(|x| x.restarts as f64).sum()),
            n,
        ),
        metric(
            "telemetry.events_per_step",
            "count",
            ratio(events as f64, steps as f64),
            steps as usize,
        ),
        metric("trace.unattributed_s", "s", med0(unattributed), n),
        metric(
            "trace.overhead_pct",
            "%",
            (traced_wall / untraced_wall - 1.0) * 100.0,
            n + run.untraced.len(),
        ),
    ]);
    Ok(out)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn emit(
    workload: Workload,
    args: &Args,
    metrics: &[Metric],
    attempted: u64,
    failed: u64,
    correct: bool,
) {
    println!(
        "perfbench workload={} seed={} trace={}",
        format!("{workload:?}").to_lowercase(),
        args.seed,
        u8::from(args.trace)
    );
    for m in metrics {
        println!(
            "  {:<32} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--train-model") {
        let res = match (argv.get(1).and_then(|s| s.parse().ok()), argv.get(2)) {
            (Some(seed), Some(out)) => stack::train_model(seed, Path::new(out)),
            _ => Err("usage: perfbench --train-model SEED OUT".into()),
        };
        return match res {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload tune|serve|recover|train --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|run| {
        let mut errors = run.errors.clone();
        let metrics = if args.trace {
            per_layer(&run)?
        } else {
            end_to_end(&run, &mut errors)?
        };
        Ok((run, metrics, errors))
    });
    let (run, metrics, mut errors) = match outcome {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if metrics.iter().any(|m| !m.value.is_finite()) {
        errors.push("a metric is not finite".into());
    }
    let attempted: u64 = run
        .rounds
        .iter()
        .chain(&run.untraced)
        .map(|r| r.attempted)
        .sum();
    let failed: u64 = run
        .rounds
        .iter()
        .chain(&run.untraced)
        .map(|r| r.failed)
        .sum();
    for note in &run.notes {
        println!("perfbench: {note}");
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    emit(args.workload, &args, &metrics, attempted, failed, correct);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
