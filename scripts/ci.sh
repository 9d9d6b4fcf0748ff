#!/usr/bin/env bash
# The single CI gate.  Runs, in order:
#
#   1. tier-1: the full unit/integration suite (tests/), including the
#      chaos sweeps at their default 200 schedules and the crash-point
#      sweeps at every boundary; then the base, dedup and group crash
#      sweeps again under a second seed (PORTUS_CRASHPOINT_SEED=1; its
#      group boundaries tear growing record slots); then the fluid
#      differential suite at 2000
#      schedules (deeper coverage of the memoized component solves);
#      then the self-healing operator and
#      fleet chaos smokes and `portusctl fsck` / `health` smokes —
#      single-daemon and `--daemons 3` fleet rollup — the demo pools
#      must verify structurally clean and classify healthy;
#   2. bench smoke: every benchmark datapath, tiniest config, one
#      iteration (scripts/bench_smoke.sh); then the sim hot-path bench,
#      which guards against a >20% speedup regression vs the committed
#      BENCH_sim.json, its component-walk count guard (the fluid solver
#      walks a connected component only after a path class is created
#      or dropped: walks <= creates + drops), and its SegmentBuffer
#      scaling guard (per-op cost at 2048 segments <= 4x the cost at
#      16), the dedup bench, which
#      guards the Fig. 14 trace's bytes-moved reduction vs the committed
#      BENCH_dedup.json, the fleet bench, which guards the 96-tenant
#      open loop's p99 improvement vs the committed BENCH_fleet.json,
#      and the group bench, which guards the parallel-group dump
#      speedup vs the committed BENCH_group.json
#      (CI_FAST runs all four at reduced scale, no guard; the count
#      and scaling guards run at full size but leave BENCH_sim.json
#      alone);
#   3. trace smoke: a traced benchmark run must emit loadable Chrome
#      trace_event JSON + a metrics snapshot at zero simulated-time
#      cost (the observability layer's contract);
#   4. determinism: identical chaos schedules twice, traces diffed
#      (scripts/check_determinism.sh).
#
# Usage: scripts/ci.sh            # the whole gate
#        CI_FAST=1 scripts/ci.sh  # trimmed chaos sweeps for quick loops
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${CI_FAST:-0}" != "0" ]]; then
    export PORTUS_CHAOS_EXAMPLES="${PORTUS_CHAOS_EXAMPLES:-20}"
    export PORTUS_OPS_EXAMPLES="${PORTUS_OPS_EXAMPLES:-10}"
    export PORTUS_TORN_EXAMPLES="${PORTUS_TORN_EXAMPLES:-20}"
    export PORTUS_CRASHPOINT_STRIDE="${PORTUS_CRASHPOINT_STRIDE:-5}"
    export PORTUS_FLEET_EXAMPLES="${PORTUS_FLEET_EXAMPLES:-8}"
fi

step() { printf '\n=== %s ===\n' "$*"; }

step "tier-1 test suite"
PYTHONPATH=src python -m pytest -x -q

step "crash sweeps, second seed (base, dedup, group; torn record-slot tails)"
PYTHONPATH=src PORTUS_CRASHPOINT_SEED=1 \
    python -m pytest tests/faults/test_crash_points.py \
        tests/faults/test_dedup_crash_points.py \
        tests/faults/test_group_crash.py -x -q

step "fluid differential suite, 2000 schedules (incremental vs reference)"
PYTHONPATH=src PORTUS_FLUID_EXAMPLES=2000 \
    python -m pytest tests/sim/test_fluid_incremental.py -x -q

step "operator chaos smoke (self-healing, zero manual recovery)"
PYTHONPATH=src PORTUS_OPS_EXAMPLES="${PORTUS_OPS_EXAMPLES:-20}" \
    python -m pytest tests/faults/test_operator_chaos.py -x -q

step "fleet chaos smoke (N shards, shard-targeted remediation)"
PYTHONPATH=src PORTUS_FLEET_EXAMPLES="${PORTUS_FLEET_EXAMPLES:-12}" \
    python -m pytest tests/faults/test_fleet_chaos.py -x -q

step "portusctl fsck smoke (demo pool must verify clean)"
PYTHONPATH=src python -m repro.core.portusctl fsck

step "portusctl health + fsck --json smoke"
PYTHONPATH=src python -m repro.core.portusctl health
PYTHONPATH=src python -m repro.core.portusctl fsck --json | python -c '
import json, sys
report = json.load(sys.stdin)
assert report["clean"] is True, report
print("OK: fsck --json clean, checked %s" % report["checked"])
'

step "portusctl fleet smoke (per-shard + rollup, 3 daemons)"
PYTHONPATH=src python -m repro.core.portusctl fsck --daemons 3 --json | \
    python -c '
import json, sys
report = json.load(sys.stdin)
assert report["clean"] is True, report
assert sorted(report["shards"]) == ["server", "server1", "server2"], report
print("OK: fleet fsck clean on %d shards" % len(report["shards"]))
'
PYTHONPATH=src python -m repro.core.portusctl health --daemons 3 >/dev/null
echo "OK: fleet health rollup healthy"

step "benchmark smoke"
scripts/bench_smoke.sh

step "sim hot-path bench (regression guard vs BENCH_sim.json)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_sim_hotpath.py::test_sim_hotpath_fleet" -q

step "component-walk count guard (walks <= class creates + drops)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_sim_hotpath.py::test_component_walks_follow_class_churn" -q

step "SegmentBuffer scaling guard (2048 vs 16 segments, <= 4x)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_sim_hotpath.py::test_segment_buffer_scaling" -q

step "dedup bench (bytes-moved regression guard vs BENCH_dedup.json)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_dedup.py::test_dedup_fig14_trace" -q

step "fleet bench (p99-improvement regression guard vs BENCH_fleet.json)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_fleet.py::test_fleet_open_loop" -q

step "group bench (dump-speedup regression guard vs BENCH_group.json)"
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_group.py::test_group_dump_speedup" -q

step "traced-run smoke (Chrome trace + metrics, zero-cost)"
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
PYTHONPATH=src python -m pytest \
    "benchmarks/bench_smoke.py::test_smoke_traced_run_emits_valid_chrome_trace" \
    "benchmarks/bench_fig13_bert_breakdown.py::test_fig13_portus_traced_breakdown" \
    --trace-out "$TRACE_DIR" -q
python - "$TRACE_DIR/fig13_portus.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as handle:
    trace = json.load(handle)
events = trace["traceEvents"]
assert events, "empty trace"
assert all("ph" in e and "name" in e for e in events), "malformed event"
print(f"OK: {sys.argv[1]} loads as Chrome trace JSON "
      f"({len(events)} events)")
EOF

step "chaos determinism"
scripts/check_determinism.sh "${PORTUS_CHAOS_EXAMPLES:-40}"

printf '\nCI gate passed.\n'
