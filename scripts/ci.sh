#!/usr/bin/env bash
# Tier-1 verification gate. Run from the repository root (or anywhere —
# the script cd's to its own checkout). Keep in sync with ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo fmt --check

# The end-to-end benchmark (perfbench/, a package of its own) builds
# against the library crates by path: build and unit-test it here, so a
# library API change that breaks it fails this gate, not the benchmark
# run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Static analysis: token families plus the AST/call-graph families
# (concurrency.lock_order, concurrency.guard_across_emit,
# panic.reachable, determinism.entropy_flow, telemetry.session_scope) —
# see DESIGN.md "Static analysis v2" and lint.toml. Fails on any
# unsuppressed finding across every family and on stale allowlist
# entries. The SARIF artifact is written first (non-gating) so it is
# available for upload even when the gate fails.
mkdir -p target/ci-artifacts
cargo run --release -q -p deepcat-lint -- --format sarif \
    >target/ci-artifacts/deepcat-lint.sarif || true
cargo run --release -q -p deepcat-lint

# Determinism smoke: two same-seed runs of a single-threaded experiment
# with frozen telemetry clocks must produce byte-identical event logs.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/deepcat-repro fig5 --quick --deterministic \
    --log "$smoke_dir/a.jsonl" >/dev/null
./target/release/deepcat-repro fig5 --quick --deterministic \
    --log "$smoke_dir/b.jsonl" >/dev/null
cmp "$smoke_dir/a.jsonl" "$smoke_dir/b.jsonl" || {
    echo "determinism smoke failed: same-seed runs diverged" >&2
    exit 1
}
echo "determinism smoke: OK ($(wc -l <"$smoke_dir/a.jsonl") events, byte-identical)"

# Chrome-trace determinism: the trace exports derived from the two
# deterministic logs must also be byte-identical (frozen clock + stable
# span-id assignment).
./target/release/deepcat-tune report --log "$smoke_dir/a.jsonl" \
    --trace "$smoke_dir/a.trace.json" >/dev/null
./target/release/deepcat-tune report --log "$smoke_dir/b.jsonl" \
    --trace "$smoke_dir/b.trace.json" >/dev/null
cmp "$smoke_dir/a.trace.json" "$smoke_dir/b.trace.json" || {
    echo "trace determinism failed: chrome-trace exports diverged" >&2
    exit 1
}
echo "trace determinism: OK (byte-identical chrome-trace export)"

# Chaos smoke: the resilient online stage under a seeded fault plan must
# be byte-for-byte reproducible, and a session killed after 2 steps then
# resumed from its checkpoint must land on the same best configuration as
# an uninterrupted run (the `chaos.best` event line carries the full
# action vector).
./target/release/deepcat-tune train --iters 500 --seed 2022 \
    --model "$smoke_dir/chaos-model.bin" >/dev/null
./target/release/deepcat-tune chaos --plan mixed --deterministic \
    --model "$smoke_dir/chaos-model.bin" \
    --alerts alerts.toml --metrics-out "$smoke_dir/chaos-a.prom" \
    --log "$smoke_dir/chaos-a.jsonl" >/dev/null
./target/release/deepcat-tune chaos --plan mixed --deterministic \
    --model "$smoke_dir/chaos-model.bin" \
    --alerts alerts.toml --metrics-out "$smoke_dir/chaos-b.prom" \
    --log "$smoke_dir/chaos-b.jsonl" >/dev/null
cmp "$smoke_dir/chaos-a.jsonl" "$smoke_dir/chaos-b.jsonl" || {
    echo "chaos determinism failed: same-plan runs diverged" >&2
    exit 1
}
echo "chaos determinism: OK ($(wc -l <"$smoke_dir/chaos-a.jsonl") events, byte-identical)"

# Exposition determinism: the Prometheus snapshots written at the end of
# the two deterministic chaos runs must be byte-identical (sorted
# registry iteration + frozen clocks + stable session ids).
cmp "$smoke_dir/chaos-a.prom" "$smoke_dir/chaos-b.prom" || {
    echo "exposition determinism failed: Prometheus snapshots diverged" >&2
    exit 1
}
echo "exposition determinism: OK ($(wc -l <"$smoke_dir/chaos-a.prom") series lines, byte-identical)"

# Top determinism: `top --once` is a pure fold of the log, so the two
# deterministic logs must render identical dashboards (the header names
# the log path, so normalize it first).
./target/release/deepcat-tune top "$smoke_dir/chaos-a.jsonl" --once \
    | sed 's|chaos-a\.jsonl|LOG|' >"$smoke_dir/top-a.txt"
./target/release/deepcat-tune top "$smoke_dir/chaos-b.jsonl" --once \
    | sed 's|chaos-b\.jsonl|LOG|' >"$smoke_dir/top-b.txt"
cmp "$smoke_dir/top-a.txt" "$smoke_dir/top-b.txt" || {
    echo "top determinism failed: dashboard snapshots diverged" >&2
    exit 1
}
echo "top determinism: OK (byte-identical --once dashboards)"
./target/release/deepcat-tune chaos --plan mixed --deterministic \
    --model "$smoke_dir/chaos-model.bin" \
    --checkpoint "$smoke_dir/chaos-cp.json" --kill-after 2 >/dev/null
./target/release/deepcat-tune chaos --plan mixed --deterministic \
    --model "$smoke_dir/chaos-model.bin" \
    --checkpoint "$smoke_dir/chaos-cp.json" --resume \
    --log "$smoke_dir/chaos-resume.jsonl" >/dev/null
grep '"chaos.best"' "$smoke_dir/chaos-a.jsonl" >"$smoke_dir/chaos-best-full.txt"
grep '"chaos.best"' "$smoke_dir/chaos-resume.jsonl" >"$smoke_dir/chaos-best-resumed.txt"
cmp "$smoke_dir/chaos-best-full.txt" "$smoke_dir/chaos-best-resumed.txt" || {
    echo "chaos recovery failed: resumed session found a different best config" >&2
    exit 1
}
echo "chaos recovery: OK (kill@2 + resume reproduces the best configuration)"

# Crash-recovery fleet smoke: 8 concurrent durable sessions, each killed
# mid-append by an injected storage fault (torn write, short write,
# failed fsync, ENOSPC, latent bit flip — flavor rotates per session) and
# resumed from its commitlog. Every recovered session's step records must
# be byte-identical to its uninterrupted reference run's.
./target/release/deepcat-tune fleet --sessions 8 --steps 4 --iters 500 \
    --kill-at 3 --deterministic --seed 2022 \
    --model "$smoke_dir/chaos-model.bin" \
    --out-dir "$smoke_dir/fleet" >/dev/null
fleet_crashes=0
for i in 0 1 2 3 4 5 6 7; do
    cmp "$smoke_dir/fleet/session-$i-reference.jsonl" \
        "$smoke_dir/fleet/session-$i-recovered.jsonl" || {
        echo "fleet recovery failed: session $i diverged from its reference" >&2
        exit 1
    }
    fleet_crashes=$((fleet_crashes + 1))
done
echo "fleet recovery: OK ($fleet_crashes/8 crashed sessions resumed byte-identically)"

# Multi-tenant service smoke: 8 sessions multiplexed through the
# supervised TuningService under the panic3 plan (two injected panics
# plus one deadline-blowing stall, all mid-run, at the scheduler
# boundary). The process must survive and every session must complete —
# crashed ones by resuming from their commitlog. Containment proof:
#   * two same-seed faulted runs produce byte-identical per-session logs,
#   * every session's step log — survivors AND crashed-then-recovered —
#     is byte-identical to the fault-free run's,
#   * --extract replays one session solo (no service, no faults) and
#     matches its multiplexed stream byte for byte.
./target/release/deepcat-tune serve --sessions 8 --steps 4 --iters 500 \
    --faults panic3 --deterministic --seed 2022 \
    --model "$smoke_dir/chaos-model.bin" \
    --log "$smoke_dir/serve-a.jsonl" \
    --out-dir "$smoke_dir/serve-a" >/dev/null
./target/release/deepcat-tune serve --sessions 8 --steps 4 --iters 500 \
    --faults panic3 --deterministic --seed 2022 \
    --model "$smoke_dir/chaos-model.bin" \
    --out-dir "$smoke_dir/serve-b" >/dev/null
./target/release/deepcat-tune serve --sessions 8 --steps 4 --iters 500 \
    --faults none --deterministic --seed 2022 \
    --model "$smoke_dir/chaos-model.bin" \
    --out-dir "$smoke_dir/serve-clean" >/dev/null
for i in 0 1 2 3 4 5 6 7; do
    cmp "$smoke_dir/serve-a/session-$i-steps.jsonl" \
        "$smoke_dir/serve-b/session-$i-steps.jsonl" || {
        echo "service determinism failed: session $i diverged across runs" >&2
        exit 1
    }
    cmp "$smoke_dir/serve-a/session-$i-steps.jsonl" \
        "$smoke_dir/serve-clean/session-$i-steps.jsonl" || {
        echo "service containment failed: faults perturbed session $i" >&2
        exit 1
    }
done
grep -q '"supervisor.panic_contained"' "$smoke_dir/serve-a.jsonl" || {
    echo "service smoke failed: no panic was contained" >&2
    exit 1
}
grep -q '"supervisor.restart"' "$smoke_dir/serve-a.jsonl" || {
    echo "service smoke failed: no crashed session was restarted" >&2
    exit 1
}
./target/release/deepcat-tune serve --sessions 8 --steps 4 --iters 500 \
    --deterministic --seed 2022 --extract 2 \
    --model "$smoke_dir/chaos-model.bin" \
    --out-dir "$smoke_dir/serve-extract" >/dev/null
cmp "$smoke_dir/serve-extract/extract-2-steps.jsonl" \
    "$smoke_dir/serve-a/session-2-steps.jsonl" || {
    echo "service extraction failed: solo replay diverged from multiplexed run" >&2
    exit 1
}
echo "service smoke: OK (8 sessions under panic3: contained, recovered, extractable)"

# Guardrail smoke: a guarded chaos run under the blackout plan must let
# zero infeasible configurations reach the simulator (no
# `guardrail.infeasible_eval` event in the log) and stay byte-for-byte
# reproducible across two same-seed runs.
./target/release/deepcat-tune chaos --plan blackout --deterministic \
    --guardrails on --model "$smoke_dir/chaos-model.bin" \
    --log "$smoke_dir/guard-a.jsonl" >/dev/null
./target/release/deepcat-tune chaos --plan blackout --deterministic \
    --guardrails on --model "$smoke_dir/chaos-model.bin" \
    --log "$smoke_dir/guard-b.jsonl" >/dev/null
cmp "$smoke_dir/guard-a.jsonl" "$smoke_dir/guard-b.jsonl" || {
    echo "guardrail determinism failed: same-seed guarded runs diverged" >&2
    exit 1
}
if grep -q '"guardrail.infeasible_eval"' "$smoke_dir/guard-a.jsonl"; then
    echo "guardrail smoke failed: an infeasible config reached the simulator" >&2
    exit 1
fi
echo "guardrail smoke: OK (zero infeasible evals, byte-identical)"

# Perf-regression gate: run the pinned quick-profile baseline suite and
# compare hot-path throughput against the committed BENCH_10.json. Fails
# loudly naming the regressed metric; tolerance absorbs machine noise.
./target/release/deepcat-bench baseline --out "$smoke_dir/bench-current.json" >/dev/null
./target/release/deepcat-bench compare --baseline BENCH_10.json \
    --current "$smoke_dir/bench-current.json" --tolerance 0.6

# Observability-plane non-regression: the committed BENCH_10 numbers must
# keep the sharded emit hot path within 10% of the pre-service BENCH_9
# baseline — a static file-vs-file gate, so it costs nothing per run.
./target/release/deepcat-bench compare --baseline BENCH_9.json \
    --current BENCH_10.json --tolerance 0.10 \
    --metric telemetry_events_per_s_enabled

# Telemetry-overhead gate: within the fresh baseline run, the sharded
# emit hot path must beat the retired global-mutex path by >= 5x, and
# the disabled path must stay effectively free. Machine-relative ratio,
# so no cross-machine tolerance is needed.
./target/release/deepcat-bench overhead --current "$smoke_dir/bench-current.json"

# Session rollup smoke: the offline re-fold of a deterministic log must
# render a per-session table without error. --strict-telemetry turns any
# dropped event or sink error in the chaos/guardrail logs into a CI
# failure (both logs come from lossless deterministic pipelines).
./target/release/deepcat-tune report --log "$smoke_dir/chaos-a.jsonl" \
    --by-session --strict-telemetry >/dev/null
./target/release/deepcat-tune report --log "$smoke_dir/guard-a.jsonl" \
    --strict-telemetry >/dev/null
echo "session report smoke: OK (strict telemetry clean)"
