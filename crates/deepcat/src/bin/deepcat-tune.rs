//! `deepcat-tune` — command-line driver for the DeepCAT tuning pipeline on
//! the simulated cluster.
//!
//! ```text
//! deepcat-tune train  --workload TS --input D1 --iters 2000 --model m.bin
//! deepcat-tune tune   --workload TS --input D1 --model m.bin --steps 5
//! deepcat-tune run    --workload TS --input D1            # default config
//! deepcat-tune compare --workload TS --input D1           # 3 tuners
//! deepcat-tune tune   ... --log run.jsonl                 # JSONL event log
//! deepcat-tune report --log run.jsonl                     # summarize a log
//! deepcat-tune report --log run.jsonl --trace out.json    # + Chrome trace
//! deepcat-tune profile run.jsonl                          # self-time table
//! deepcat-tune top run.jsonl [--once]                     # live dashboard
//! deepcat-tune tune ... --metrics-addr 127.0.0.1:9185     # Prometheus scrape
//! deepcat-tune tune ... --alerts alerts.toml              # SLO alert engine
//! ```
//!
//! Progress output goes through the telemetry [`ConsoleSink`] — one
//! `[family] key=value` line per event, a stable format scripts can parse.
//! With `--log PATH` the same events are also appended to a JSONL file,
//! which `deepcat-tune report` reads back.

use deepcat::experiments::{compare_on, ExperimentConfig};
use deepcat::{
    load_td3, online_tune_resilient, online_tune_td3, save_td3, shared_storage, train_td3,
    AgentConfig, ChaosSessionConfig, CommitlogPolicy, FaultyStorage, GuardrailPolicy,
    OfflineConfig, OnlineConfig, RealStorage, ResiliencePolicy, ResilientEnv, RestartPolicy,
    ServiceConfig, ServiceFault, ServiceFaultPlan, SessionOutcome, SessionPhase, SessionSpec,
    StepRecord, StoragePlan, Td3Agent, TuningEnv, TuningReport, TuningService, SERVICE_PLAN_NAMES,
};
use spark_sim::{Cluster, FaultPlan, InputSize, Workload, WorkloadKind, PLAN_NAMES};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use telemetry::{ConsoleSink, JsonlSink, MultiSink, Sink};

struct Args {
    command: String,
    workload: WorkloadKind,
    input: InputSize,
    iters: usize,
    steps: usize,
    seed: u64,
    model: Option<PathBuf>,
    background_load: f64,
    log: Option<PathBuf>,
    trace: Option<PathBuf>,
    plan: String,
    deterministic: bool,
    checkpoint: Option<PathBuf>,
    resume: bool,
    kill_after: Option<usize>,
    guardrails: bool,
    by_session: bool,
    metrics_addr: Option<String>,
    metrics_out: Option<PathBuf>,
    alerts: Option<PathBuf>,
    strict_telemetry: bool,
    once: bool,
    refresh_s: f64,
    sessions: usize,
    kill_at: u64,
    out_dir: Option<PathBuf>,
    faults: String,
    workers: usize,
    extract: Option<usize>,
}

impl Args {
    fn guardrail_policy(&self) -> GuardrailPolicy {
        if self.guardrails {
            GuardrailPolicy::on()
        } else {
            GuardrailPolicy::default()
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: deepcat-tune <train|tune|run|compare|chaos|safety|serve|fleet|report|top|profile> \
         [--workload WC|TS|PR|KM|SO|AG] [--input D1|D2|D3] \
         [--iters N] [--steps N] [--seed N] [--model PATH] [--bg FLOAT] \
         [--log PATH] [--trace PATH] [--guardrails on|off]\n\
         chaos flags: [--plan none|mixed|flaky|stragglers|blackout] \
         [--deterministic] [--checkpoint PATH] [--kill-after N] [--resume]\n\
         safety runs the online stage with and without guardrails under \
         --plan and reports the ablation\n\
         serve multiplexes N supervised sessions through the TuningService: \
         [--sessions N] [--workers W] [--faults none|panic3|storm|disk] \
         [--out-dir DIR] (writes session-<i>-steps.jsonl per completed \
         session); [--extract I] instead replays session I solo and writes \
         extract-<I>-steps.jsonl for byte-compare against the service run\n\
         fleet runs N concurrent durable sessions through the service, each \
         crashed mid-append by an injected storage fault and resumed from \
         its commitlog: [--sessions N] [--kill-at OP] [--out-dir DIR] \
         (writes session-<i>-reference.jsonl / -recovered.jsonl step records)\n\
         observability: [--metrics-addr HOST:PORT] serves Prometheus \
         scrapes, [--metrics-out PATH] writes an exposition snapshot at \
         exit, [--alerts PATH] installs SLO rules from a TOML file\n\
         report flags: [--by-session] adds a per-session rollup table, \
         [--strict-telemetry] exits non-zero on telemetry loss\n\
         top follows a JSONL log as a live dashboard: \
         deepcat-tune top run.jsonl [--refresh SECONDS] [--once]\n\
         profile takes the JSONL log as a positional argument: \
         deepcat-tune profile run.jsonl"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing command")?;
    let mut args = Args {
        command,
        workload: WorkloadKind::TeraSort,
        input: InputSize::D1,
        iters: 1500,
        steps: 5,
        seed: 2022,
        model: None,
        background_load: 0.15,
        log: None,
        trace: None,
        plan: "mixed".to_string(),
        deterministic: false,
        checkpoint: None,
        resume: false,
        kill_after: None,
        guardrails: false,
        by_session: false,
        metrics_addr: None,
        metrics_out: None,
        alerts: None,
        strict_telemetry: false,
        once: false,
        refresh_s: 2.0,
        sessions: 8,
        kill_at: 3,
        out_dir: None,
        faults: "none".to_string(),
        workers: 4,
        extract: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                args.workload = match value()?.to_uppercase().as_str() {
                    "WC" => WorkloadKind::WordCount,
                    "TS" => WorkloadKind::TeraSort,
                    "PR" => WorkloadKind::PageRank,
                    "KM" => WorkloadKind::KMeans,
                    "SO" => WorkloadKind::Sort,
                    "AG" => WorkloadKind::Aggregation,
                    other => return Err(format!("unknown workload {other}")),
                }
            }
            "--input" => {
                args.input = match value()?.to_uppercase().as_str() {
                    "D1" => InputSize::D1,
                    "D2" => InputSize::D2,
                    "D3" => InputSize::D3,
                    other => return Err(format!("unknown input size {other}")),
                }
            }
            "--iters" => args.iters = value()?.parse().map_err(|e| format!("--iters: {e}"))?,
            "--steps" => args.steps = value()?.parse().map_err(|e| format!("--steps: {e}"))?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--model" => args.model = Some(PathBuf::from(value()?)),
            "--bg" => args.background_load = value()?.parse().map_err(|e| format!("--bg: {e}"))?,
            "--log" => args.log = Some(PathBuf::from(value()?)),
            "--trace" => args.trace = Some(PathBuf::from(value()?)),
            "--plan" => args.plan = value()?,
            "--deterministic" => args.deterministic = true,
            "--by-session" => args.by_session = true,
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value()?)),
            "--resume" => args.resume = true,
            "--kill-after" => {
                args.kill_after = Some(value()?.parse().map_err(|e| format!("--kill-after: {e}"))?)
            }
            "--guardrails" => {
                args.guardrails = match value()?.as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--guardrails takes on|off, got {other}")),
                }
            }
            "--metrics-addr" => args.metrics_addr = Some(value()?),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value()?)),
            "--alerts" => args.alerts = Some(PathBuf::from(value()?)),
            "--sessions" => {
                args.sessions = value()?.parse().map_err(|e| format!("--sessions: {e}"))?
            }
            "--kill-at" => {
                args.kill_at = value()?.parse().map_err(|e| format!("--kill-at: {e}"))?
            }
            "--out-dir" => args.out_dir = Some(PathBuf::from(value()?)),
            "--faults" => args.faults = value()?,
            "--workers" => {
                args.workers = value()?.parse().map_err(|e| format!("--workers: {e}"))?
            }
            "--extract" => {
                args.extract = Some(value()?.parse().map_err(|e| format!("--extract: {e}"))?)
            }
            "--strict-telemetry" => args.strict_telemetry = true,
            "--once" => args.once = true,
            "--refresh" => {
                args.refresh_s = value()?.parse().map_err(|e| format!("--refresh: {e}"))?
            }
            other if !other.starts_with('-') && args.log.is_none() => {
                // Positional log path: `deepcat-tune profile run.jsonl`.
                args.log = Some(PathBuf::from(other));
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Console output for the interactive families only; the full event stream
/// (including per-simulation `sim.*` events) still reaches the JSONL log.
fn install_sinks(log: Option<&PathBuf>, deterministic: bool) -> Result<(), String> {
    // `twinq.decision` only: the new `twinq.loop`/`twinq.rescore` spans
    // fire dozens of times per step and belong in the JSONL log, not the
    // console.
    let console = ConsoleSink::all().with_prefixes(vec![
        "train.",
        "tune.",
        "run.",
        "compare.",
        "chaos.",
        "fleet.",
        "serve.",
        "service.",
        "supervisor.",
        "mailbox.",
        "online.",
        "twinq.decision",
        "budget.",
        "retry.",
        "recovery.",
        "guardrail.",
        "canary.",
        "watchdog.",
        "safety.",
        "session.",
        "telemetry.",
    ]);
    let sink: Arc<dyn Sink> = match log {
        Some(path) => {
            let jsonl = JsonlSink::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let jsonl = if deterministic {
                jsonl.without_timestamps()
            } else {
                jsonl
            };
            Arc::new(MultiSink::new(vec![Box::new(console), Box::new(jsonl)]))
        }
        None => Arc::new(console),
    };
    // Deterministic runs keep the synchronous pipeline: every event reaches
    // the sink in emission order, so two same-seed runs stay byte-identical.
    // Everything else goes through the sharded pipeline — per-thread bounded
    // buffers, no global lock on the hot path, drained at step boundaries
    // and on shutdown.
    if deterministic {
        telemetry::install(sink);
    } else {
        telemetry::install_sharded(sink, telemetry::DEFAULT_SHARD_CAPACITY);
    }
    Ok(())
}

/// Parse every line of a JSONL event log into a JSON value.
fn parse_log(path: &PathBuf) -> Result<Vec<serde::Value>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut values = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value: serde::Value = serde_json::from_str(line)
            .map_err(|e| format!("{}:{}: {e:?}", path.display(), lineno + 1))?;
        values.push(value);
    }
    Ok(values)
}

/// Reconstruct the spans recorded in a JSONL log, in emission order.
fn parse_spans(values: &[serde::Value]) -> Vec<telemetry::SpanRecord> {
    values
        .iter()
        .filter_map(telemetry::SpanRecord::from_json_value)
        .collect()
}

/// Self-time attribution table over the spans of a JSONL event log
/// (`deepcat-tune profile run.jsonl`).
fn profile(path: &PathBuf) -> Result<(), String> {
    let values = parse_log(path)?;
    let spans = parse_spans(&values);
    if spans.is_empty() {
        return Err(format!(
            "{}: no span events found (was the log produced with this \
             version's tracing enabled?)",
            path.display()
        ));
    }
    let mut profiler = telemetry::Profiler::new();
    profiler.add_all(spans);
    println!("== profile: {} ==", path.display());
    print!("{}", profiler.report().render());
    Ok(())
}

/// Summarize a JSONL event log: evaluations paid vs skipped, the reward
/// trajectory, and step-latency quantiles. With `trace`, also export the
/// log's spans as a Chrome Trace Event Format file. With `by_session`,
/// fold the stream through the same [`telemetry::SessionAggregator`] the
/// live pipeline uses and print the per-session rollup table.
fn report(
    path: &PathBuf,
    trace: Option<&PathBuf>,
    by_session: bool,
    strict: bool,
) -> Result<(), String> {
    let values = parse_log(path)?;
    let mut paid = 0usize;
    let mut failed = 0usize;
    let mut skipped = 0u64;
    let (mut decisions, mut accepted) = (0u64, 0u64);
    let (mut blocks, mut scored) = (0u64, 0u64);
    let mut retries = 0usize;
    let mut fallbacks = 0usize;
    let mut timeouts = 0usize;
    let mut injected = 0usize;
    let mut rewards: Vec<(u64, f64)> = Vec::new();
    let mut latencies = telemetry::Sketch::new(telemetry::DEFAULT_SKETCH_ALPHA);
    let mut spent_s: f64 = 0.0;
    let mut sim_runs = 0usize;
    let mut vetoed = 0usize;
    let mut repaired = 0usize;
    let mut canary_aborts = 0usize;
    let mut rollbacks = 0usize;
    let mut watchdog_trips = 0usize;
    let mut infeasible_evals = 0usize;
    let mut canary_saved_s = 0.0f64;
    let mut telemetry_dropped = 0u64;
    let mut sink_errors = 0u64;
    let mut alerts_raised = 0usize;
    let mut alerts_resolved = 0usize;
    let mut active_alerts: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut sessions = telemetry::SessionAggregator::new();
    for value in &values {
        sessions.observe_value(value);
        let Some(event) = value.get("event").and_then(|v| v.as_str()) else {
            continue;
        };
        match event {
            "online.step" => {
                paid += 1;
                if value.get("failed").and_then(|v| v.as_bool()) == Some(true) {
                    failed += 1;
                }
                let step = value.get("step").and_then(|v| v.as_u64()).unwrap_or(0);
                if let Some(r) = value.get("reward").and_then(|v| v.as_f64()) {
                    rewards.push((step, r));
                }
                if let Some(d) = value.get("duration_s").and_then(|v| v.as_f64()) {
                    latencies.insert(d);
                }
            }
            "twinq.decision" => {
                decisions += 1;
                if value.get("accepted").and_then(|v| v.as_bool()) == Some(true) {
                    accepted += 1;
                }
                skipped += value
                    .get("iterations")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0);
            }
            // One batched critic scoring of a candidate block; logs from
            // before block scoring have one span per candidate and no
            // `candidates` field.
            "twinq.rescore" => {
                blocks += 1;
                scored += value
                    .get("candidates")
                    .and_then(|v| v.as_u64())
                    .unwrap_or(1);
            }
            "budget.update" => {
                if let Some(s) = value.get("spent_s").and_then(|v| v.as_f64()) {
                    spent_s = spent_s.max(s);
                }
            }
            "retry.attempt" => retries += 1,
            "recovery.fallback" => fallbacks += 1,
            "recovery.timeout" => timeouts += 1,
            "fault.injected" => injected += 1,
            "sim.run" => sim_runs += 1,
            "guardrail.veto" => vetoed += 1,
            "guardrail.repaired" => repaired += 1,
            "guardrail.rollback" => rollbacks += 1,
            "guardrail.infeasible_eval" => infeasible_evals += 1,
            "watchdog.triggered" => watchdog_trips += 1,
            "canary.abort" => {
                canary_aborts += 1;
                if let Some(s) = value.get("saved_s").and_then(|v| v.as_f64()) {
                    canary_saved_s += s;
                }
            }
            "alert.raised" => {
                alerts_raised += 1;
                if let Some(rule) = value.get("rule").and_then(|v| v.as_str()) {
                    active_alerts.insert(rule.to_string());
                }
            }
            "alert.resolved" => {
                alerts_resolved += 1;
                if let Some(rule) = value.get("rule").and_then(|v| v.as_str()) {
                    active_alerts.remove(rule);
                }
            }
            // The flush summary carries cumulative counters; keep the max
            // so repeated flushes in one log don't double-count.
            "telemetry.flush" => {
                if let Some(d) = value.get("dropped").and_then(|v| v.as_u64()) {
                    telemetry_dropped = telemetry_dropped.max(d);
                }
                if let Some(e) = value.get("sink_errors").and_then(|v| v.as_u64()) {
                    sink_errors = sink_errors.max(e);
                }
            }
            _ => {}
        }
    }
    println!("== report: {} ==", path.display());
    println!(
        "evaluations: {paid} paid ({failed} failed — paid for, never 'best'), \
         {skipped} skipped (Twin-Q critic filtering); \
         {sim_runs} simulator runs total"
    );
    if decisions > 0 {
        // Each decision scores its original action plus one candidate per
        // perturbation round; the rest of what the blocks scored was drawn
        // ahead past the accepting candidate and dropped.
        let useful = skipped + decisions;
        println!(
            "twin-q: {decisions} decisions, {accepted} accepted; {scored} candidates \
             scored in {blocks} blocks, {} discarded past the accepting \
             one ({useful}/{scored} useful)",
            scored.saturating_sub(useful)
        );
    }
    if retries + fallbacks + timeouts + injected > 0 {
        println!(
            "resilience: {injected} faults injected, {retries} retries, \
             {fallbacks} fallbacks, {timeouts} timeouts"
        );
    }
    if vetoed + repaired + canary_aborts + rollbacks + watchdog_trips + infeasible_evals > 0 {
        println!(
            "guardrails: {vetoed} vetoed, {repaired} repaired, \
             {canary_aborts} canary-aborted (saved {canary_saved_s:.1}s), \
             {watchdog_trips} watchdog trips, {rollbacks} rollbacks; \
             {infeasible_evals} infeasible configs reached the simulator"
        );
    }
    if !rewards.is_empty() {
        let trajectory: Vec<String> = rewards
            .iter()
            .map(|(s, r)| format!("{s}:{r:+.3}"))
            .collect();
        println!("reward trajectory: {}", trajectory.join(" "));
        let best = rewards
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::NEG_INFINITY, f64::max);
        println!("best reward: {best:+.3}");
    }
    if latencies.count() > 0 {
        // Quantiles come from the same mergeable sketch the live pipeline
        // uses, so `report` and `top` agree to within the sketch's
        // relative-error bound instead of bucket-interpolation drift.
        let q = |p| latencies.quantile(p).unwrap_or(f64::NAN);
        println!(
            "step latency: p50 {:.4}s, p95 {:.4}s, p99 {:.4}s (n={}, sketch α={})",
            q(0.5),
            q(0.95),
            q(0.99),
            latencies.count(),
            telemetry::DEFAULT_SKETCH_ALPHA,
        );
    }
    if spent_s > 0.0 {
        println!("tuning cost: {spent_s:.1}s");
    }
    if alerts_raised + alerts_resolved > 0 {
        let active: Vec<&str> = active_alerts.iter().map(String::as_str).collect();
        println!(
            "alerts: {alerts_raised} raised, {alerts_resolved} resolved; active: {}",
            if active.is_empty() {
                "none".to_string()
            } else {
                active.join(", ")
            }
        );
    }
    let session_report = sessions.report();
    let unattributed = session_report.unattributed_events;
    if telemetry_dropped + sink_errors + unattributed > 0 {
        println!(
            "telemetry health: {telemetry_dropped} events dropped by full \
             shards, {sink_errors} sink errors, {unattributed} unattributed \
             events"
        );
    }
    if by_session {
        print!("{}", session_report.render());
    }
    if let Some(trace_path) = trace {
        let spans = parse_spans(&values);
        let json = telemetry::chrome_trace_json(&spans);
        std::fs::write(trace_path, json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        println!(
            "trace: {} spans -> {} (open in chrome://tracing or ui.perfetto.dev)",
            spans.len(),
            trace_path.display()
        );
    }
    if strict && telemetry_dropped + sink_errors > 0 {
        return Err(format!(
            "strict telemetry check failed: {telemetry_dropped} dropped \
             event(s), {sink_errors} sink error(s) in {}",
            path.display()
        ));
    }
    Ok(())
}

/// One folded frame of the `top` dashboard: the session table plus the
/// fleet-level counters that head it.
struct TopFrame {
    report: telemetry::SessionReport,
    events: usize,
    skipped_lines: usize,
    dropped: u64,
    sink_errors: u64,
    /// Per-session (first, last) `ts_ms` over `online.step` events, for
    /// the step-rate column. Absent under `--deterministic` logs.
    step_ts: BTreeMap<u64, (u64, u64)>,
    /// Per-session (previous, last) step reward, for the trend column.
    rewards: BTreeMap<u64, (Option<f64>, f64)>,
    /// Active alerts: rule -> (severity, value, threshold).
    active_alerts: BTreeMap<String, (String, f64, f64)>,
    alerts_raised: u64,
    alerts_resolved: u64,
}

/// Fold a JSONL event log into a [`TopFrame`]. Tolerant by design: a
/// live writer may leave a partial trailing line mid-append, so lines
/// that fail to parse are counted and skipped rather than fatal.
fn fold_top_frame(path: &PathBuf) -> Result<TopFrame, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let mut sessions = telemetry::SessionAggregator::new();
    let mut frame = TopFrame {
        report: telemetry::SessionReport::default(),
        events: 0,
        skipped_lines: 0,
        dropped: 0,
        sink_errors: 0,
        step_ts: BTreeMap::new(),
        rewards: BTreeMap::new(),
        active_alerts: BTreeMap::new(),
        alerts_raised: 0,
        alerts_resolved: 0,
    };
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = serde_json::from_str::<serde::Value>(line) else {
            frame.skipped_lines += 1;
            continue;
        };
        frame.events += 1;
        sessions.observe_value(&value);
        let session_id = value.get("session_id").and_then(|v| v.as_u64());
        match value.get("event").and_then(|v| v.as_str()) {
            Some("online.step") => {
                if let (Some(sid), Some(ts)) =
                    (session_id, value.get("ts_ms").and_then(|v| v.as_u64()))
                {
                    let span = frame.step_ts.entry(sid).or_insert((ts, ts));
                    span.0 = span.0.min(ts);
                    span.1 = span.1.max(ts);
                }
                if let (Some(sid), Some(r)) =
                    (session_id, value.get("reward").and_then(|v| v.as_f64()))
                {
                    let slot = frame.rewards.entry(sid).or_insert((None, r));
                    *slot = (Some(slot.1), r);
                }
            }
            Some("telemetry.flush") => {
                if let Some(d) = value.get("dropped").and_then(|v| v.as_u64()) {
                    frame.dropped = frame.dropped.max(d);
                }
                if let Some(e) = value.get("sink_errors").and_then(|v| v.as_u64()) {
                    frame.sink_errors = frame.sink_errors.max(e);
                }
            }
            Some("alert.raised") => {
                frame.alerts_raised += 1;
                if let Some(rule) = value.get("rule").and_then(|v| v.as_str()) {
                    let severity = value
                        .get("severity")
                        .and_then(|v| v.as_str())
                        .unwrap_or("warn")
                        .to_string();
                    let val = value.get("value").and_then(|v| v.as_f64()).unwrap_or(0.0);
                    let thr = value
                        .get("threshold")
                        .and_then(|v| v.as_f64())
                        .unwrap_or(0.0);
                    frame
                        .active_alerts
                        .insert(rule.to_string(), (severity, val, thr));
                }
            }
            Some("alert.resolved") => {
                frame.alerts_resolved += 1;
                if let Some(rule) = value.get("rule").and_then(|v| v.as_str()) {
                    frame.active_alerts.remove(rule);
                }
            }
            _ => {}
        }
    }
    frame.report = sessions.report();
    Ok(frame)
}

/// Render a [`TopFrame`] as the dashboard text. Pure function of the
/// frame, so two folds of the same deterministic log render
/// byte-identically (`top --once`).
fn render_top(path: &PathBuf, frame: &TopFrame) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== deepcat top == {} | {} event(s), {} session(s)",
        path.display(),
        frame.events,
        frame.report.sessions.len()
    );
    let health = if frame.dropped + frame.sink_errors + frame.report.unattributed_events > 0 {
        "DEGRADED"
    } else {
        "ok"
    };
    let _ = writeln!(
        out,
        "telemetry: {} | dropped {} | sink errors {} | unattributed {} | skipped lines {}",
        health,
        frame.dropped,
        frame.sink_errors,
        frame.report.unattributed_events,
        frame.skipped_lines
    );
    let _ = writeln!(
        out,
        "{:<8} {:<16} {:>6} {:>7} {:>8} {:>9} {:>5} {:>9} {:>9} {:>9} {:>5} {:>5} {:>4} {:>5} {:>4} {:>8}",
        "session",
        "label",
        "steps",
        "rate/s",
        "last_rew",
        "best_rew",
        "trend",
        "p50_ms",
        "p95_ms",
        "cost_s",
        "guard",
        "roll",
        "rst",
        "quar",
        "rej",
        "drain_ms"
    );
    for s in &frame.report.sessions {
        let label = if s.label.is_empty() { "?" } else { &s.label };
        let rate = frame
            .step_ts
            .get(&s.session_id)
            .and_then(|(first, last)| {
                let span_s = last.saturating_sub(*first) as f64 / 1e3;
                (span_s > 0.0 && s.steps > 1).then(|| (s.steps - 1) as f64 / span_s)
            })
            .map_or("-".to_string(), |r| format!("{r:.2}"));
        let (last_rew, trend) = frame.rewards.get(&s.session_id).map_or_else(
            || ("-".to_string(), "-"),
            |(prev, last)| {
                let trend = match prev {
                    Some(p) if last > p => "+",
                    Some(p) if last < p => "-",
                    Some(_) => "=",
                    None => "-",
                };
                (format!("{last:.4}"), trend)
            },
        );
        let _ = writeln!(
            out,
            "{:<8} {:<16} {:>6} {:>7} {:>8} {:>9} {:>5} {:>9} {:>9} {:>9} {:>5} {:>5} {:>4} {:>5} {:>4} {:>8}",
            s.session_id,
            label,
            s.steps,
            rate,
            last_rew,
            s.best_reward.map_or("-".to_string(), |r| format!("{r:.4}")),
            trend,
            s.latency_quantile_s(0.5)
                .map_or("-".to_string(), |l| format!("{:.2}", l * 1e3)),
            s.latency_quantile_s(0.95)
                .map_or("-".to_string(), |l| format!("{:.2}", l * 1e3)),
            format!(
                "{:.1}",
                if s.budget_spent_s > 0.0 {
                    s.budget_spent_s
                } else {
                    s.eval_cost_s
                }
            ),
            s.guardrail_activity(),
            s.max_consecutive_rollbacks,
            s.restarts,
            if s.quarantined { "yes" } else { "-" },
            s.mailbox_rejections,
            s.drain_ms.map_or("-".to_string(), |d| format!("{d:.0}")),
        );
    }
    if frame.active_alerts.is_empty() {
        let _ = writeln!(
            out,
            "alerts: none active ({} raised, {} resolved)",
            frame.alerts_raised, frame.alerts_resolved
        );
    } else {
        let _ = writeln!(
            out,
            "alerts: {} active ({} raised, {} resolved)",
            frame.active_alerts.len(),
            frame.alerts_raised,
            frame.alerts_resolved
        );
        for (rule, (severity, value, threshold)) in &frame.active_alerts {
            let _ = writeln!(
                out,
                "  [{severity}] {rule}: value {value} vs threshold {threshold}"
            );
        }
    }
    out
}

/// `deepcat-tune top run.jsonl`: live fleet dashboard. Re-reads and
/// re-folds the log every `refresh_s` seconds through the same
/// [`telemetry::SessionAggregator`] the in-process pipeline uses; with
/// `--once`, folds exactly once and prints a plain (ANSI-free)
/// deterministic snapshot.
fn top(path: &PathBuf, once: bool, refresh_s: f64) -> Result<(), String> {
    if once {
        let frame = fold_top_frame(path)?;
        print!("{}", render_top(path, &frame));
        return Ok(());
    }
    let refresh = std::time::Duration::from_secs_f64(refresh_s.max(0.1));
    loop {
        let frame = fold_top_frame(path)?;
        // ANSI clear-screen + home, then the frame, then a footer.
        print!("\x1b[2J\x1b[H{}", render_top(path, &frame));
        println!("refreshing every {refresh_s:.1}s — ctrl-c to exit");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(refresh);
    }
}

/// Stable textual form of an action vector, so scripts (and the CI
/// kill/resume check) can compare best configurations across runs.
fn action_key(action: &[f64]) -> String {
    action
        .iter()
        .map(|v| format!("{v:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn emit_chaos_best(report: &TuningReport) {
    telemetry::event!(
        "chaos.best",
        tuner = report.tuner.clone(),
        best_s = report.best_exec_time_s,
        action = action_key(&report.best_action),
    );
}

/// Load the offline-trained agent from `--model`, or train one in place.
fn offline_agent(args: &Args, workload: Workload) -> Result<Td3Agent, String> {
    match &args.model {
        Some(path) => load_td3(path, args.seed).map_err(|e| format!("cannot load model: {e}")),
        None => {
            let mut env = TuningEnv::for_workload(Cluster::cluster_a(), workload, args.seed);
            let cfg = AgentConfig::for_dims(env.state_dim(), env.action_dim());
            let (agent, _, _) = train_td3(
                &mut env,
                cfg,
                &OfflineConfig::deepcat(args.iters, args.seed),
                &[],
            );
            Ok(agent)
        }
    }
}

/// `deepcat-tune safety`: with/without-guardrails ablation. Runs the
/// online stage twice under the same fault plan — once unguarded, once
/// with the full guardrail stack — and reports, per variant, how many
/// infeasible configurations reached the simulator, the guardrail
/// activity counts, and the tuning cost the canary aborts saved.
fn safety(args: &Args, workload: Workload) -> Result<(), String> {
    let plan = FaultPlan::named(&args.plan, args.seed).ok_or_else(|| {
        format!(
            "unknown fault plan '{}' (known: {})",
            args.plan,
            PLAN_NAMES.join(", ")
        )
    })?;
    telemetry::event!(
        "safety.start",
        plan = args.plan.clone(),
        steps = args.steps,
        seed = args.seed,
    );
    let base_agent = offline_agent(args, workload)?;
    let online_cfg = OnlineConfig {
        steps: args.steps,
        ..OnlineConfig::deepcat(args.seed)
    };
    let mut rows: Vec<(bool, f64, u64)> = Vec::new();
    for (name, guarded) in [("unguarded", false), ("guarded", true)] {
        let mut agent = base_agent.clone();
        let live = Cluster::cluster_a().with_background_load(args.background_load);
        let mut env = ResilientEnv::new(
            TuningEnv::for_workload(live, workload, args.seed ^ 0xFACE),
            ResiliencePolicy::default(),
        );
        env.install_plan(plan.clone());
        let session = ChaosSessionConfig {
            guardrails: if guarded {
                GuardrailPolicy::on()
            } else {
                GuardrailPolicy::default()
            },
            ..ChaosSessionConfig::default()
        };
        let out = online_tune_resilient(&mut agent, &mut env, &online_cfg, &session, name)
            .map_err(|e| format!("safety session: {e}"))?;
        let report = match out {
            SessionOutcome::Completed(r) => r,
            SessionOutcome::Killed { .. } | SessionOutcome::Crashed { .. } => {
                return Err("safety session died without a fault harness".to_string())
            }
        };
        let infeasible = env.inner().spark().infeasible_eval_count();
        telemetry::event!(
            "safety.row",
            variant = name,
            infeasible_evals = infeasible,
            vetoed = report.total_vetoed(),
            repaired = report.total_repaired(),
            canary_aborts = report.total_canary_aborts(),
            rollbacks = report.total_rollbacks(),
            saved_s = report.guardrail_saved_s(),
            failed_steps = report.failed_steps(),
            best_s = report.best_exec_time_s,
            cost_s = report.total_cost_s(),
        );
        rows.push((guarded, report.total_cost_s(), infeasible));
    }
    let unguarded = rows.iter().find(|(g, _, _)| !g);
    let guarded = rows.iter().find(|(g, _, _)| *g);
    if let (Some((_, cost_off, inf_off)), Some((_, cost_on, inf_on))) = (unguarded, guarded) {
        telemetry::event!(
            "safety.summary",
            plan = args.plan.clone(),
            infeasible_without = *inf_off,
            infeasible_with = *inf_on,
            cost_without_s = *cost_off,
            cost_with_s = *cost_on,
            cost_delta_s = cost_on - cost_off,
        );
    }
    Ok(())
}

/// `deepcat-tune chaos`: run the online stage under a named deterministic
/// fault plan and report survival metrics. Without `--checkpoint`, runs
/// DeepCAT and the no-TwinQ ablation under the plan plus a fault-free
/// DeepCAT reference (for the extra-cost column). With `--checkpoint`
/// (+ `--kill-after N` / `--resume`), runs the primary variant only and
/// exercises the crash/recovery path.
fn chaos(args: &Args, workload: Workload) -> Result<(), String> {
    let plan = FaultPlan::named(&args.plan, args.seed).ok_or_else(|| {
        format!(
            "unknown fault plan '{}' (known: {})",
            args.plan,
            PLAN_NAMES.join(", ")
        )
    })?;
    telemetry::event!(
        "chaos.start",
        plan = args.plan.clone(),
        steps = args.steps,
        seed = args.seed,
    );

    let base_agent = offline_agent(args, workload)?;
    let live_env = || {
        let live = Cluster::cluster_a().with_background_load(args.background_load);
        TuningEnv::for_workload(live, workload, args.seed ^ 0xFACE)
    };
    let online_cfg = |use_twinq: bool| OnlineConfig {
        steps: args.steps,
        ..if use_twinq {
            OnlineConfig::deepcat(args.seed)
        } else {
            OnlineConfig::without_twinq(args.seed)
        }
    };

    // Crash/recovery mode: primary variant only.
    if args.checkpoint.is_some() && (args.kill_after.is_some() || args.resume) {
        let mut agent = base_agent;
        let mut env = ResilientEnv::new(live_env(), ResiliencePolicy::default());
        env.install_plan(plan);
        let session = ChaosSessionConfig {
            checkpoint: args.checkpoint.clone(),
            resume: args.resume,
            kill_after: args.kill_after,
            guardrails: args.guardrail_policy(),
            ..ChaosSessionConfig::default()
        };
        let out =
            online_tune_resilient(&mut agent, &mut env, &online_cfg(true), &session, "DeepCAT")
                .map_err(|e| format!("chaos session: {e}"))?;
        match out {
            SessionOutcome::Killed { completed_steps } => {
                telemetry::event!("chaos.killed", completed_steps = completed_steps);
            }
            SessionOutcome::Crashed { completed_steps } => {
                telemetry::event!("chaos.crashed", completed_steps = completed_steps);
            }
            SessionOutcome::Completed(report) => emit_chaos_best(&report),
        }
        return Ok(());
    }

    let variants: [(&str, bool, bool); 3] = [
        ("DeepCAT", true, true),
        ("TD3-noTwinQ", false, true),
        ("DeepCAT-faultfree", true, false),
    ];
    let mut reports: Vec<(bool, TuningReport)> = Vec::new();
    for (name, use_twinq, faulted) in variants {
        let mut agent = base_agent.clone();
        let mut env = ResilientEnv::new(live_env(), ResiliencePolicy::default());
        if faulted {
            env.install_plan(plan.clone());
        }
        let session = ChaosSessionConfig {
            guardrails: args.guardrail_policy(),
            ..ChaosSessionConfig::default()
        };
        let out =
            online_tune_resilient(&mut agent, &mut env, &online_cfg(use_twinq), &session, name)
                .map_err(|e| format!("chaos session: {e}"))?;
        match out {
            SessionOutcome::Completed(report) => reports.push((faulted, report)),
            SessionOutcome::Killed { .. } | SessionOutcome::Crashed { .. } => {
                return Err("session died without kill-after".to_string())
            }
        }
    }
    let reference_cost = reports
        .iter()
        .find(|(faulted, _)| !faulted)
        .map(|(_, r)| r.total_cost_s());
    for (faulted, report) in &reports {
        telemetry::event!(
            "chaos.row",
            tuner = report.tuner.clone(),
            plan = if *faulted { args.plan.as_str() } else { "none" },
            completed_steps = report.steps.len(),
            failed_steps = report.failed_steps(),
            retries = report.total_retries(),
            fallbacks = report.total_fallbacks(),
            best_s = report.best_exec_time_s,
            cost_s = report.total_cost_s(),
            vetoed = report.total_vetoed(),
            repaired = report.total_repaired(),
            canary_aborts = report.total_canary_aborts(),
            rollbacks = report.total_rollbacks(),
            guardrail_saved_s = report.guardrail_saved_s(),
        );
    }
    if let Some((_, primary)) = reports
        .iter()
        .find(|(faulted, r)| *faulted && r.tuner == "DeepCAT")
    {
        let extra_cost_s = reference_cost.map_or(0.0, |c| primary.total_cost_s() - c);
        telemetry::event!(
            "chaos.summary",
            plan = args.plan.clone(),
            completed_steps = primary.steps.len(),
            survived = primary.steps.len() == args.steps && primary.failed_steps() < args.steps,
            retries = primary.total_retries(),
            fallbacks = primary.total_fallbacks(),
            extra_cost_s = extra_cost_s,
            vetoed = primary.total_vetoed(),
            repaired = primary.total_repaired(),
            canary_aborts = primary.total_canary_aborts(),
            rollbacks = primary.total_rollbacks(),
            guardrail_saved_s = primary.guardrail_saved_s(),
        );
        emit_chaos_best(primary);
    }
    Ok(())
}

/// The per-step fields that must survive a crash bit for bit. Everything
/// here is pure tuning arithmetic — wall-clock fields
/// (`recommendation_s`, resilience overhead) are excluded so the check
/// also holds without `--deterministic`.
fn steps_diverge(a: &StepRecord, b: &StepRecord) -> bool {
    a.step != b.step
        || a.exec_time_s != b.exec_time_s
        || a.failed != b.failed
        || a.reward != b.reward
        || a.q_estimate != b.q_estimate
        || a.twinq_iterations != b.twinq_iterations
        || a.action != b.action
}

/// Serialize a report's step records as JSONL, one record per line —
/// under `--deterministic` the reference and recovered files of a fleet
/// session are byte-identical, which the CI smoke checks with `cmp`.
fn write_steps_jsonl(path: &std::path::Path, report: &TuningReport) -> Result<(), String> {
    let mut body = String::new();
    for step in &report.steps {
        let line = serde_json::to_string(step)
            .map_err(|e| format!("cannot serialize step record: {e:?}"))?;
        body.push_str(&line);
        body.push('\n');
    }
    std::fs::write(path, body.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per-session seed, shared by `serve`, `fleet`, and `--extract` — the
/// solo replay must be built from byte-identical ingredients.
fn session_seed(base: u64, session_idx: usize) -> u64 {
    base ^ ((session_idx as u64 + 1).wrapping_mul(0x9E37_79B9))
}

/// `deepcat-tune fleet`: N concurrent durable sessions, each killed at an
/// arbitrary point (mid-append included, via the storage fault shim) and
/// recovered, asserting all N resume byte-identically with reference
/// runs that were never interrupted. Since PR 10 this is a thin alias
/// over the supervised [`TuningService`]: one service hosts N reference
/// actors plus N faulted actors, and the per-session supervisors (not a
/// hand-rolled resume loop) restart the victims through their commitlogs.
fn fleet(args: &Args, workload: Workload) -> Result<(), String> {
    let sessions = args.sessions.max(1);
    let out_dir = args.out_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("deepcat-fleet-{}", std::process::id()))
    });
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    telemetry::event!(
        "fleet.start",
        sessions = sessions,
        kill_at = args.kill_at,
        steps = args.steps,
        seed = args.seed,
        out_dir = out_dir.display().to_string(),
    );
    let base_agent = offline_agent(args, workload)?;
    let make_env = |seed: u64| {
        let live = Cluster::cluster_a().with_background_load(args.background_load);
        ResilientEnv::new(
            TuningEnv::for_workload(live, workload, seed ^ 0xFACE),
            ResiliencePolicy::default(),
        )
    };
    let make_cfg = |seed: u64| OnlineConfig {
        steps: args.steps,
        ..OnlineConfig::deepcat(seed)
    };

    let service = TuningService::new(ServiceConfig {
        workers: args.workers.max(1),
        max_sessions: sessions * 2,
        restart: RestartPolicy {
            max_restarts: 8,
            ..RestartPolicy::default()
        },
        ..ServiceConfig::default()
    });
    // References: same seeds, no durability, never interrupted.
    for i in 0..sessions {
        let seed = session_seed(args.seed, i);
        service
            .admit(SessionSpec {
                name: format!("fleet-ref-{i}"),
                agent: base_agent.clone(),
                env: make_env(seed),
                cfg: make_cfg(seed),
                session: ChaosSessionConfig::default(),
                tuner_name: "fleet-reference".to_string(),
            })
            .map_err(|e| format!("admit fleet reference {i}: {e}"))?;
    }
    // Victims: one fault-injecting storage device per session, shared
    // across every simulated process incarnation — its op counter keeps
    // counting, so the scheduled fault fires exactly once, mid-append or
    // mid-snapshot, and the supervisor's restart resumes the session from
    // whatever the commitlog durably holds.
    let mut fault_names = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let seed = session_seed(args.seed, i);
        let plan = StoragePlan::kill_at(
            args.kill_at.max(1) + (i % 3) as u64,
            seed.wrapping_add(i as u64),
        );
        fault_names.push(plan.name.clone());
        let storage = shared_storage(FaultyStorage::new(RealStorage::new(), plan));
        let log_dir = out_dir.join(format!("session-{i}")).join("commitlog");
        service
            .admit(SessionSpec {
                name: format!("fleet-{i}"),
                agent: base_agent.clone(),
                env: make_env(seed),
                cfg: make_cfg(seed),
                session: ChaosSessionConfig {
                    checkpoint: Some(log_dir),
                    storage: Some(storage),
                    // Aggressive snapshot/segment cadence so even short
                    // fleet sessions exercise segment rolls and compaction,
                    // not just tail appends.
                    commitlog: CommitlogPolicy {
                        snapshot_every: 2,
                        segment_max_records: 2,
                    },
                    ..ChaosSessionConfig::default()
                },
                tuner_name: "fleet".to_string(),
            })
            .map_err(|e| format!("admit fleet session {i}: {e}"))?;
    }
    service.run();
    let mut results = service.take_results();
    let faulted = results.split_off(sessions);
    let references = results;

    let mut matched = 0usize;
    let mut total_crashes = 0usize;
    let mut errors: Vec<String> = Vec::new();
    for i in 0..sessions {
        let fail = |msg: String| format!("fleet session {i}: {msg}");
        let fault = fault_names[i].as_str();
        let Some(SessionOutcome::Completed(reference)) = &references[i].outcome else {
            errors.push(fail(format!(
                "reference run did not complete (phase {})",
                references[i].phase
            )));
            continue;
        };
        let Some(SessionOutcome::Completed(recovered)) = &faulted[i].outcome else {
            errors.push(fail(format!(
                "recovered run did not complete (phase {})",
                faulted[i].phase
            )));
            continue;
        };
        let crashes = faulted[i].restarts as usize;
        if crashes == 0 {
            errors.push(fail(format!(
                "injected storage fault '{fault}' never fired"
            )));
            continue;
        }
        if recovered.steps.len() != reference.steps.len() {
            errors.push(fail(format!(
                "recovered session ran {} steps, reference ran {}",
                recovered.steps.len(),
                reference.steps.len()
            )));
            continue;
        }
        if let Some(step) = reference
            .steps
            .iter()
            .zip(recovered.steps.iter())
            .find(|(a, b)| steps_diverge(a, b))
        {
            errors.push(fail(format!(
                "step {} diverged after crash recovery (fault '{fault}')",
                step.0.step
            )));
            continue;
        }
        if recovered.best_action != reference.best_action
            || recovered.best_exec_time_s != reference.best_exec_time_s
        {
            errors.push(fail(format!(
                "best configuration diverged after crash recovery (fault '{fault}')"
            )));
            continue;
        }
        write_steps_jsonl(
            &out_dir.join(format!("session-{i}-reference.jsonl")),
            reference,
        )?;
        write_steps_jsonl(
            &out_dir.join(format!("session-{i}-recovered.jsonl")),
            recovered,
        )?;
        matched += 1;
        total_crashes += crashes;
        telemetry::event!(
            "fleet.session",
            session = i,
            crashes = crashes,
            attempts = crashes + 1,
            fault = fault,
            steps = recovered.steps.len(),
            best_s = recovered.best_exec_time_s,
            matched = true,
        );
    }
    telemetry::event!(
        "fleet.summary",
        sessions = sessions,
        recovered = matched,
        failed = errors.len(),
        crashes = total_crashes,
    );
    if let Some(first) = errors.first() {
        return Err(format!(
            "{} of {sessions} fleet session(s) failed: {first}",
            errors.len()
        ));
    }
    Ok(())
}

/// `deepcat-tune serve`: N supervised sessions multiplexed through the
/// [`TuningService`], optionally under a named [`ServiceFaultPlan`]
/// (`--faults`). Writes each completed session's step records to
/// `session-<i>-steps.jsonl`; under `--deterministic` two runs of the
/// same invocation are byte-identical, and sessions untouched by the
/// fault plan are byte-identical to a `--faults none` run. With
/// `--extract I` it instead replays session I solo (no service, no
/// faults, no commitlog) and writes `extract-<I>-steps.jsonl`, which must
/// byte-match the service run's file for the same session.
fn serve(args: &Args, workload: Workload) -> Result<(), String> {
    let sessions = args.sessions.max(1);
    let out_dir = args.out_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("deepcat-serve-{}", std::process::id()))
    });
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let base_agent = offline_agent(args, workload)?;
    let make_spec = |i: usize| -> Result<SessionSpec, String> {
        let seed = session_seed(args.seed, i);
        let live = Cluster::cluster_a().with_background_load(args.background_load);
        let mut env = ResilientEnv::new(
            TuningEnv::for_workload(live, workload, seed ^ 0xFACE),
            ResiliencePolicy::default(),
        );
        // Each session gets its own deterministic slice of the simulator
        // fault plan, so multiplexed sessions see distinct (but
        // reproducible) cluster weather.
        let plan = FaultPlan::for_session(&args.plan, args.seed, i).ok_or_else(|| {
            format!(
                "unknown fault plan '{}' (known: {})",
                args.plan,
                PLAN_NAMES.join(", ")
            )
        })?;
        env.install_plan(plan);
        Ok(SessionSpec {
            name: format!("serve-{i}"),
            agent: base_agent.clone(),
            env,
            cfg: OnlineConfig {
                steps: args.steps,
                ..OnlineConfig::deepcat(seed)
            },
            session: ChaosSessionConfig {
                guardrails: args.guardrail_policy(),
                ..ChaosSessionConfig::default()
            },
            tuner_name: "serve".to_string(),
        })
    };

    // --extract I: the solo reference replay of one session, bit-for-bit
    // the same ingredients minus the service (and minus durability, which
    // PR 9 proved does not change a single step record).
    if let Some(idx) = args.extract {
        if idx >= sessions {
            return Err(format!("--extract {idx} out of range (0..{sessions})"));
        }
        let spec = make_spec(idx)?;
        telemetry::event!("serve.extract", session = idx, seed = spec.cfg.seed);
        let mut agent = spec.agent.clone();
        let mut env = spec.env.clone();
        let report = match online_tune_resilient(
            &mut agent,
            &mut env,
            &spec.cfg,
            &spec.session,
            &spec.tuner_name,
        )
        .map_err(|e| format!("extract session {idx}: {e}"))?
        {
            SessionOutcome::Completed(r) => r,
            other => return Err(format!("extract session {idx} did not complete: {other:?}")),
        };
        return write_steps_jsonl(&out_dir.join(format!("extract-{idx}-steps.jsonl")), &report);
    }

    let faults = ServiceFaultPlan::named(&args.faults, args.seed, sessions, args.steps)
        .ok_or_else(|| {
            format!(
                "unknown service fault plan '{}' (known: {})",
                args.faults,
                SERVICE_PLAN_NAMES.join(", ")
            )
        })?;
    let storm = faults
        .events
        .iter()
        .any(|e| matches!(e.fault, ServiceFault::PanicLoop));
    let has_faults = !faults.events.is_empty();
    telemetry::event!(
        "serve.start",
        sessions = sessions,
        workers = args.workers.max(1),
        steps = args.steps,
        seed = args.seed,
        faults = args.faults.as_str(),
        out_dir = out_dir.display().to_string(),
    );
    let service = TuningService::with_faults(
        ServiceConfig {
            workers: args.workers.max(1),
            max_sessions: sessions,
            restart: RestartPolicy {
                max_restarts: 8,
                ..RestartPolicy::default()
            },
            ..ServiceConfig::default()
        },
        faults,
    );
    for i in 0..sessions {
        let mut spec = make_spec(i)?;
        spec.session.checkpoint = Some(out_dir.join(format!("session-{i}")).join("commitlog"));
        spec.session.commitlog = CommitlogPolicy {
            snapshot_every: 2,
            segment_max_records: 2,
        };
        service
            .admit(spec)
            .map_err(|e| format!("admit session {i}: {e}"))?;
    }
    service.run();

    let mut completed = 0usize;
    let mut quarantined = 0usize;
    let mut total_restarts = 0u64;
    for (i, r) in service.take_results().iter().enumerate() {
        total_restarts += r.restarts as u64;
        match (r.phase, &r.outcome) {
            (SessionPhase::Completed, Some(SessionOutcome::Completed(report))) => {
                completed += 1;
                write_steps_jsonl(&out_dir.join(format!("session-{i}-steps.jsonl")), report)?;
                telemetry::event!(
                    "serve.session",
                    session = i,
                    outcome = "completed",
                    restarts = r.restarts,
                    resumed = r.resumed,
                    steps = report.steps.len(),
                    best_s = report.best_exec_time_s,
                );
            }
            (SessionPhase::Quarantined, _) => {
                quarantined += 1;
                telemetry::event!(
                    "serve.session",
                    session = i,
                    outcome = "quarantined",
                    restarts = r.restarts,
                    completed_steps = r.completed_steps,
                );
            }
            (phase, _) => {
                return Err(format!("session {i} ended in unexpected phase '{phase}'"));
            }
        }
    }
    telemetry::event!(
        "serve.summary",
        sessions = sessions,
        completed = completed,
        quarantined = quarantined,
        restarts = total_restarts,
        faults = args.faults.as_str(),
    );
    if has_faults && total_restarts == 0 && quarantined == 0 {
        return Err(format!("service fault plan '{}' never fired", args.faults));
    }
    if quarantined > 0 && !storm {
        return Err(format!(
            "{quarantined} session(s) quarantined under plan '{}' (expected full recovery)",
            args.faults
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    if args.command == "report" || args.command == "profile" || args.command == "top" {
        let Some(path) = args.log else {
            eprintln!("error: {} needs a JSONL log path", args.command);
            return usage();
        };
        let result = match args.command.as_str() {
            "profile" => profile(&path),
            "top" => top(&path, args.once, args.refresh_s),
            _ => report(
                &path,
                args.trace.as_ref(),
                args.by_session,
                args.strict_telemetry,
            ),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // --deterministic freezes telemetry stopwatches (duration fields read
    // 0.0) and drops `ts_ms` from the JSONL log so two same-seed runs
    // produce byte-identical output — the CI chaos smoke relies on it.
    if args.deterministic {
        telemetry::freeze_clock();
    }
    if let Err(e) = install_sinks(args.log.as_ref(), args.deterministic) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // SLO alert rules evaluate at step boundaries (`telemetry::alerts_tick`
    // in the online loops) against the live metrics snapshot.
    if let Some(rules_path) = &args.alerts {
        let engine = std::fs::read_to_string(rules_path)
            .map_err(|e| format!("cannot read {}: {e}", rules_path.display()))
            .and_then(|text| telemetry::AlertEngine::from_toml_str(&text));
        match engine {
            Ok(engine) => telemetry::install_alerts(engine),
            Err(e) => {
                eprintln!("error: --alerts: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        }
    }
    // Prometheus exposition endpoint; lives for the duration of the run
    // and shuts down (joining its thread) when dropped at return.
    let metrics_server = match &args.metrics_addr {
        Some(addr) => match telemetry::MetricsServer::bind(addr) {
            Ok(server) => {
                eprintln!("metrics: serving on http://{}/metrics", server.local_addr());
                Some(server)
            }
            Err(e) => {
                eprintln!("error: --metrics-addr: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let workload = Workload::new(args.workload, args.input);
    match args.command.as_str() {
        "train" => {
            let mut env = TuningEnv::for_workload(Cluster::cluster_a(), workload, args.seed);
            telemetry::event!(
                "train.start",
                workload = workload.to_string(),
                default_exec_s = env.default_exec_time(),
                iters = args.iters,
            );
            let cfg = AgentConfig::for_dims(env.state_dim(), env.action_dim());
            let (agent, log, _) = train_td3(
                &mut env,
                cfg,
                &OfflineConfig::deepcat(args.iters, args.seed),
                &[],
            );
            let last = log
                .smoothed_rewards(20)
                .last()
                .map(|(_, r)| *r)
                .unwrap_or(0.0);
            let path = args
                .model
                .unwrap_or_else(|| PathBuf::from("deepcat-model.bin"));
            if let Err(e) = save_td3(&agent, &path) {
                eprintln!("error: cannot save model: {e}");
                return ExitCode::FAILURE;
            }
            telemetry::event!(
                "train.done",
                final_reward = last,
                model = path.display().to_string(),
            );
        }
        "tune" => {
            let Some(path) = args.model else {
                eprintln!("error: tune needs --model PATH");
                return usage();
            };
            let mut agent = match load_td3(&path, args.seed) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: cannot load model: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let live = Cluster::cluster_a().with_background_load(args.background_load);
            let mut env = TuningEnv::for_workload(live, workload, args.seed ^ 0xFACE);
            let oc = OnlineConfig {
                steps: args.steps,
                ..OnlineConfig::deepcat(args.seed)
            };
            // Per-step progress comes from the `online.step` span events.
            // With guardrails the session runs through the resilient loop
            // (fault-free) so the screen/canary/watchdog stack is active.
            let report = if args.guardrails {
                let mut renv = ResilientEnv::new(env, ResiliencePolicy::default());
                let session = ChaosSessionConfig {
                    guardrails: GuardrailPolicy::on(),
                    ..ChaosSessionConfig::default()
                };
                match online_tune_resilient(&mut agent, &mut renv, &oc, &session, "DeepCAT") {
                    Ok(SessionOutcome::Completed(r)) => r,
                    Ok(SessionOutcome::Killed { .. })
                    | Ok(SessionOutcome::Crashed { .. })
                    | Err(_) => {
                        eprintln!("error: guarded tune session did not complete");
                        telemetry::shutdown();
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                online_tune_td3(&mut agent, &mut env, &oc, "DeepCAT")
            };
            telemetry::event!(
                "tune.summary",
                best_s = report.best_exec_time_s,
                speedup = report.speedup(),
                default_s = report.default_exec_time_s,
                total_cost_s = report.total_cost_s(),
            );
            if args.guardrails {
                telemetry::event!(
                    "tune.guardrails",
                    vetoed = report.total_vetoed(),
                    repaired = report.total_repaired(),
                    canary_aborts = report.total_canary_aborts(),
                    rollbacks = report.total_rollbacks(),
                    saved_s = report.guardrail_saved_s(),
                );
            }
        }
        "run" => {
            let mut env = TuningEnv::for_workload(Cluster::cluster_a(), workload, args.seed);
            telemetry::event!(
                "run.default",
                workload = workload.to_string(),
                exec_s = env.default_exec_time(),
            );
            let dflt = env
                .spark()
                .space()
                .normalize(&env.spark().space().default_config());
            let out = env.step(&dflt);
            telemetry::event!("run.fresh", exec_s = out.exec_time_s, reward = out.reward);
        }
        "chaos" => {
            if let Err(e) = chaos(&args, workload) {
                eprintln!("error: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        }
        "safety" => {
            if let Err(e) = safety(&args, workload) {
                eprintln!("error: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        }
        "fleet" => {
            if let Err(e) = fleet(&args, workload) {
                eprintln!("error: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        }
        "serve" => {
            if let Err(e) = serve(&args, workload) {
                eprintln!("error: {e}");
                telemetry::shutdown();
                return ExitCode::FAILURE;
            }
        }
        "compare" => {
            let cfg = ExperimentConfig {
                offline_iterations: args.iters,
                online_steps: args.steps,
                seed: args.seed,
                ..ExperimentConfig::default()
            };
            for row in compare_on(workload, &Cluster::cluster_a(), &cfg) {
                telemetry::event!(
                    "compare.row",
                    tuner = row.tuner.clone(),
                    best_s = row.best_s,
                    speedup = row.speedup,
                    cost_s = row.total_eval_s + row.total_rec_s,
                );
            }
        }
        _ => {
            telemetry::shutdown();
            return usage();
        }
    }
    // Final exposition snapshot: drain shards first so the rendered text
    // reflects every event, then write before tearing the pipeline down.
    if let Some(out) = &args.metrics_out {
        telemetry::flush();
        if let Err(e) = telemetry::write_prometheus_snapshot(out) {
            eprintln!("error: --metrics-out: {e}");
            telemetry::shutdown();
            return ExitCode::FAILURE;
        }
    }
    if let Some(server) = metrics_server {
        server.shutdown();
    }
    telemetry::clear_alerts();
    telemetry::shutdown();
    ExitCode::SUCCESS
}
