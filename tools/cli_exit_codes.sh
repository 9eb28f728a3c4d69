#!/usr/bin/env bash
# End-to-end CLI contract test for nfvpr: exit codes (0 ok, 2 usage),
# telemetry file emission, and the report pretty/diff round trip.
# Usage: cli_exit_codes.sh /path/to/nfvpr
set -u

NFVPR=${1:?usage: cli_exit_codes.sh /path/to/nfvpr}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

failures=0

expect_exit() {
  local want=$1
  local label=$2
  shift 2
  "$@" > "$WORK/out.txt" 2> "$WORK/err.txt"
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $label — expected exit $want, got $got" >&2
    sed 's/^/  stderr: /' "$WORK/err.txt" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label"
  fi
}

expect_contains() {
  local file=$1
  local needle=$2
  local label=$3
  if ! grep -q -- "$needle" "$file"; then
    echo "FAIL: $label — '$needle' not found in $file" >&2
    failures=$((failures + 1))
  else
    echo "ok: $label"
  fi
}

# --- exit codes -----------------------------------------------------------
expect_exit 2 "no subcommand is a usage error" "$NFVPR"
expect_exit 2 "unknown subcommand is a usage error" "$NFVPR" frobnicate
expect_exit 0 "top-level --help exits 0" "$NFVPR" --help
expect_exit 0 "subcommand --help exits 0" "$NFVPR" pipeline --help
expect_exit 2 "unknown flag is a usage error" "$NFVPR" pipeline --bogus
expect_exit 2 "missing flag value is a usage error" "$NFVPR" pipeline --seed
expect_exit 2 "report without --in is a usage error" "$NFVPR" report

# --threads must be a positive integer on every parallel-capable subcommand.
for sub in place schedule pipeline simulate serve; do
  expect_exit 2 "$sub --threads 0 is a usage error" "$NFVPR" "$sub" --threads 0
  expect_exit 2 "$sub --threads x is a usage error" "$NFVPR" "$sub" --threads x
done

# --shards is no longer an option: a stale script passing it must fail
# loudly instead of silently getting a different run.
expect_exit 2 "pipeline --shards 2 is a usage error" "$NFVPR" pipeline --shards 2

# A missing model file flag is a usage error, not a failed open of "".
for sub in place pipeline tail simulate; do
  expect_exit 2 "$sub without --topology is a usage error" "$NFVPR" "$sub"
done
expect_exit 2 "schedule without --workload is a usage error" "$NFVPR" schedule

# --- end-to-end telemetry -------------------------------------------------
expect_exit 0 "generate-topology" \
  sh -c "'$NFVPR' generate-topology --nodes 8 --seed 3 > '$WORK/dc.topo'"
expect_exit 0 "generate-workload" \
  sh -c "'$NFVPR' generate-workload --vnfs 8 --requests 40 --seed 3 \
         > '$WORK/peak.wl'"
expect_exit 0 "pipeline with telemetry" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" --seed 3 \
  --sim-duration 5 --metrics-out "$WORK/run.json" \
  --trace-out "$WORK/trace.json"

expect_contains "$WORK/run.json" '"schema": "nfvpr.run_report/1"' \
  "run report carries the schema tag"
expect_contains "$WORK/run.json" '"instance_load"' \
  "run report has per-instance loads"
expect_contains "$WORK/run.json" 'placement.bfdsu.passes' \
  "run report has BFDSU counters"
expect_contains "$WORK/run.json" 'sim.des.events' \
  "run report has DES counters"
expect_contains "$WORK/trace.json" '"ph": "X"' \
  "trace file has complete events"
expect_contains "$WORK/trace.json" 'core.joint.run' \
  "trace file has the joint-run span"

# --- count flags: negative or out-of-range values are usage errors -------
# Count flags are cast to unsigned widths; a negative value must exit 2 at
# once rather than wrap to a huge count (timeout turns a hang into a FAIL).
expect_exit 2 "generate-topology --nodes -1 exits 2" \
  timeout 10 "$NFVPR" generate-topology --nodes -1
expect_exit 2 "generate-topology --fat-k -1 exits 2" \
  timeout 10 "$NFVPR" generate-topology --kind fattree --fat-k -1
expect_exit 2 "generate-workload --vnfs -1 exits 2" \
  timeout 10 "$NFVPR" generate-workload --vnfs -1
expect_exit 2 "generate-workload --requests -1 exits 2" \
  timeout 10 "$NFVPR" generate-workload --requests -1
expect_exit 2 "generate-workload --templates -1 exits 2" \
  timeout 10 "$NFVPR" generate-workload --templates -1
expect_exit 2 "generate-trace --events -1 exits 2" \
  timeout 10 "$NFVPR" generate-trace -w "$WORK/peak.wl" --events -1
expect_exit 2 "generate-trace --population -1 exits 2" \
  timeout 10 "$NFVPR" generate-trace -w "$WORK/peak.wl" --population -1
expect_exit 2 "schedule --vnf -1 exits 2" \
  timeout 10 "$NFVPR" schedule -w "$WORK/peak.wl" --vnf -1
expect_exit 2 "schedule --vnf past the last VNF exits 2" \
  timeout 10 "$NFVPR" schedule -w "$WORK/peak.wl" --vnf 8

# --- threading is a wall-clock knob only ----------------------------------
expect_exit 0 "pipeline serial reference" \
  sh -c "'$NFVPR' pipeline -t '$WORK/dc.topo' -w '$WORK/peak.wl' --seed 5 \
         > '$WORK/serial.txt'"
expect_exit 0 "pipeline threaded run" \
  sh -c "'$NFVPR' pipeline -t '$WORK/dc.topo' -w '$WORK/peak.wl' --seed 5 \
         --threads 4 > '$WORK/threaded.txt'"
if cmp -s "$WORK/serial.txt" "$WORK/threaded.txt"; then
  echo "ok: --threads 4 output is identical to serial"
else
  echo "FAIL: --threads 4 output differs from serial" >&2
  diff "$WORK/serial.txt" "$WORK/threaded.txt" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi

# --- solver portfolio (DESIGN.md §17) --------------------------------------
# Unknown algorithm names, topology kinds and solver ids are usage errors,
# not runtime failures.
expect_exit 2 "place unknown --algorithm exits 2" \
  "$NFVPR" place -t "$WORK/dc.topo" -w "$WORK/peak.wl" --algorithm NOPE
expect_exit 2 "schedule unknown --algorithm exits 2" \
  "$NFVPR" schedule -w "$WORK/peak.wl" --algorithm NOPE
expect_exit 2 "pipeline unknown placement algorithm exits 2" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" -p NOPE
expect_exit 2 "pipeline unknown scheduling algorithm exits 2" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" -q NOPE
expect_exit 2 "generate-topology unknown --kind exits 2" \
  "$NFVPR" generate-topology --kind bogus
for sub in place pipeline serve; do
  expect_exit 2 "$sub unknown --solver exits 2" \
    "$NFVPR" "$sub" -t "$WORK/dc.topo" -w "$WORK/peak.wl" --solver bogus
done
expect_exit 2 "negative --work-budget exits 2" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  --solver portfolio --work-budget -1
expect_contains "$WORK/err.txt" 'work budget must be >= 0' \
  "negative --work-budget names the range"
expect_exit 2 "--work-budget above 1e12 exits 2" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  --solver portfolio --work-budget 2000000000000
expect_contains "$WORK/err.txt" 'work budget must be <= 1e12' \
  "--work-budget above 1e12 names the range"

# Every race is thread-count free: stdout and the report are
# byte-identical for any -j, with a work budget and without one.
for budget in "--work-budget 32" ""; do
  for j in 1 8; do
    expect_exit 0 "portfolio pipeline${budget:+ $budget}, -j$j" \
      sh -c "'$NFVPR' pipeline -t '$WORK/dc.topo' -w '$WORK/peak.wl' \
             --seed 7 --solver portfolio $budget \
             --report-out '$WORK/race$j.json' -j $j > '$WORK/race$j.txt'"
  done
  for pair in "race1.txt race8.txt stdout" "race1.json race8.json report"; do
    set -- $pair
    if cmp -s "$WORK/$1" "$WORK/$2"; then
      echo "ok: --solver portfolio${budget:+ $budget} $3 is byte-identical" \
        "across -j1/-j8"
    else
      echo "FAIL: --solver portfolio${budget:+ $budget} $3 differs between" \
        "-j1 and -j8" >&2
      diff "$WORK/$1" "$WORK/$2" | sed 's/^/  /' >&2
      failures=$((failures + 1))
    fi
  done
done
expect_contains "$WORK/race1.txt" 'solver race' \
  "pipeline prints the race summary"
expect_contains "$WORK/race1.json" '"solver"' \
  "race report carries the solver section"
# A report from before the wall-clock budget was deleted still diffs
# cleanly: its two extra solver keys are listed as removed, exit 0.
sed 's/"budget": \([0-9]*\),/"deterministic": true, "budget": \1, "budget_ms": 0,/' \
  "$WORK/race1.json" > "$WORK/race_old.json"
expect_exit 0 "old solver report diffs against a new one" \
  "$NFVPR" report --in "$WORK/race1.json" --baseline "$WORK/race_old.json" \
  --fail-on-regression
expect_contains "$WORK/out.txt" 'solver.deterministic = true (removed)' \
  "the diff lists solver.deterministic as removed"
expect_contains "$WORK/out.txt" 'solver.budget_ms = 0 (removed)' \
  "the diff lists solver.budget_ms as removed"

# --- serve: trace validation and deterministic replay ---------------------
expect_exit 0 "serve --help exits 0" "$NFVPR" serve --help
expect_exit 2 "serve without --trace is a usage error" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl"
expect_exit 0 "generate-trace" \
  sh -c "'$NFVPR' generate-trace --workload '$WORK/peak.wl' --events 120 \
         --seed 3 > '$WORK/live.trace.json'"

# A trace whose timestamps go backwards is an invalid argument (exit 2).
cat > "$WORK/bad.trace.json" <<'EOF'
{"schema": "nfvpr.trace/1", "vnf_count": 8, "events": [
  {"t": 1.0, "kind": "REQ_ARRIVE", "request": 0, "rate": 5.0,
   "delivery_prob": 0.98, "chain": [0]},
  {"t": 0.5, "kind": "REQ_DEPART", "request": 0}
]}
EOF
expect_exit 2 "non-monotonic trace timestamps exit 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/bad.trace.json"

expect_exit 0 "serve replay, serial" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --report-out "$WORK/serve1.json" -j 1
expect_exit 0 "serve replay, 8 threads" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --report-out "$WORK/serve8.json" -j 8
if cmp -s "$WORK/serve1.json" "$WORK/serve8.json"; then
  echo "ok: serve -j 1 and -j 8 reports are byte-identical"
else
  echo "FAIL: serve reports differ between -j 1 and -j 8" >&2
  diff "$WORK/serve1.json" "$WORK/serve8.json" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi
expect_contains "$WORK/serve1.json" '"serve"' \
  "serve report carries the serve section"

# --- serve: config validation maps to usage errors ------------------------
expect_exit 2 "NaN --headroom exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --headroom nan
expect_exit 2 "out-of-range --headroom exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --headroom 1.0
expect_exit 2 "negative --rebalance-threshold exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --rebalance-threshold=-0.5
expect_exit 2 "--degraded-headroom below --headroom exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/live.trace.json" --headroom 0.3 --degraded-headroom 0.1

# --- serve: node churn (nfvpr.trace/2) and checkpoint/resume ---------------
expect_exit 0 "generate-trace with churn" \
  sh -c "'$NFVPR' generate-trace --workload '$WORK/peak.wl' --events 150 \
         --seed 5 --churn-nodes 3 --mtbf 2 --mttr 0.5 \
         > '$WORK/churn.trace.json'"
expect_contains "$WORK/churn.trace.json" 'nfvpr.trace/2' \
  "churn trace carries the /2 schema"

# A NODE_DOWN for a node the topology does not have is trace misuse.
sed 's/"node": [0-9]*/"node": 99/' "$WORK/churn.trace.json" \
  > "$WORK/badnode.trace.json"
expect_exit 2 "unknown node id in a /2 trace exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/badnode.trace.json"

expect_exit 0 "serve churn replay with checkpointing" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --checkpoint-out "$WORK/full.ckpt.json" \
  --report-out "$WORK/churn_full.json" --events-log
cp "$WORK/out.txt" "$WORK/churn_full.txt"
expect_contains "$WORK/churn_full.txt" 'availability' \
  "serve summary reports availability"

# Kill mid-trace (simulated by a truncated trace), then resume over the
# full trace: stdout and the report must be byte-identical to the
# uninterrupted run.
python3 - "$WORK" <<'EOF'
import json, sys
work = sys.argv[1]
trace = json.load(open(work + '/churn.trace.json'))
trace['events'] = trace['events'][:70]
json.dump(trace, open(work + '/churn.part.json', 'w'))
EOF
expect_exit 0 "serve prefix writes a checkpoint" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.part.json" --checkpoint-out "$WORK/mid.ckpt.json"
expect_exit 0 "serve --resume finishes the trace" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/mid.ckpt.json" \
  --report-out "$WORK/churn_resumed.json" --events-log
if cmp -s "$WORK/out.txt" "$WORK/churn_full.txt"; then
  echo "ok: resumed stdout is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed stdout differs from the uninterrupted run" >&2
  diff "$WORK/out.txt" "$WORK/churn_full.txt" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi
if cmp -s "$WORK/churn_resumed.json" "$WORK/churn_full.json"; then
  echo "ok: resumed report is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed report differs from the uninterrupted run" >&2
  diff "$WORK/churn_resumed.json" "$WORK/churn_full.json" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi

# The flight recorder is the tail of the engine log, which the checkpoint
# carries: a resumed run dumps the same bytes as the uninterrupted one.
expect_exit 0 "serve churn replay with a flight dump" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --flight-recorder-out "$WORK/full.flight.json" \
  --flight-recorder-dump-on-exit
expect_exit 0 "serve --resume with a flight dump" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/mid.ckpt.json" \
  --flight-recorder-out "$WORK/resumed.flight.json" \
  --flight-recorder-dump-on-exit
if cmp -s "$WORK/resumed.flight.json" "$WORK/full.flight.json"; then
  echo "ok: resumed flight dump is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed flight dump differs from the uninterrupted run" >&2
  failures=$((failures + 1))
fi

# A resumed run takes K and L from the checkpoint, not from the flags it
# was resumed with: under a non-default -K/-l, the summary's K and the
# --solver re-solve (priced with the engine's L) match the uninterrupted
# run even when the resume passes neither flag.
SMOKE="$(dirname "$0")/../bench/traces/chaos_smoke"
python3 - "$SMOKE.trace.json" "$WORK" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
trace['events'] = trace['events'][:300]
json.dump(trace, open(sys.argv[2] + '/chaos.part.json', 'w'))
EOF
expect_exit 0 "chaos_smoke replay with -K 2 -l 0.003 --solver bfdsu" \
  "$NFVPR" serve -t "$SMOKE.topo" -w "$SMOKE.wl" -T "$SMOKE.trace.json" \
  -K 2 -l 0.003 --solver bfdsu
cp "$WORK/out.txt" "$WORK/kl_full.txt"
expect_contains "$WORK/kl_full.txt" 'K=2)' "the summary names the run's K"
expect_contains "$WORK/kl_full.txt" 'offline re-solve      : [0-9]' \
  "the --solver re-solve ran"
expect_exit 0 "chaos_smoke prefix with -K 2 -l 0.003 writes a checkpoint" \
  "$NFVPR" serve -t "$SMOKE.topo" -w "$SMOKE.wl" -T "$WORK/chaos.part.json" \
  -K 2 -l 0.003 --checkpoint-out "$WORK/kl.ckpt.json"
expect_exit 0 "chaos_smoke --resume without -K/-l finishes the trace" \
  "$NFVPR" serve -t "$SMOKE.topo" -w "$SMOKE.wl" -T "$SMOKE.trace.json" \
  --resume "$WORK/kl.ckpt.json" --solver bfdsu
if cmp -s "$WORK/out.txt" "$WORK/kl_full.txt"; then
  echo "ok: resumed stdout under -K/-l is byte-identical to the uninterrupted run"
else
  echo "FAIL: resumed stdout under -K/-l differs from the uninterrupted run" >&2
  diff "$WORK/out.txt" "$WORK/kl_full.txt" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi

# Corrupt checkpoints are usage errors with a one-line diagnostic.
head -c 150 "$WORK/mid.ckpt.json" > "$WORK/trunc.ckpt.json"
expect_exit 2 "--resume on a truncated checkpoint exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/trunc.ckpt.json"
expect_contains "$WORK/err.txt" 'bad checkpoint' \
  "truncated checkpoint diagnostic names the checkpoint"
sed 's/nfvpr.checkpoint\/1/nfvpr.checkpoint\/9/' "$WORK/mid.ckpt.json" \
  > "$WORK/wrong.ckpt.json"
expect_exit 2 "--resume on a wrong-schema checkpoint exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/wrong.ckpt.json"
# retry_backoff_base << retry_budget must fit in 64 bits.
sed 's/"retry_budget": [0-9]*/"retry_budget": 64/' "$WORK/mid.ckpt.json" \
  > "$WORK/shift.ckpt.json"
expect_exit 2 "--resume with a retry budget past the 64-bit shift exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/shift.ckpt.json"
sed 's/"cursor": [0-9]*/"cursor": 999999/' "$WORK/mid.ckpt.json" \
  > "$WORK/past.ckpt.json"
expect_exit 2 "--resume past the end of the trace exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --resume "$WORK/past.ckpt.json"
expect_contains "$WORK/err.txt" 'is past the end of the trace' \
  "--resume past the end names the trace length"

# A text trace streams through the reader, which checks each event as it
# reads it: a bad event near the end stops the run there with exit 2, and
# the crash dump records exactly the events before it.
bad=$(python3 - "$WORK" <<'EOF'
import json, sys
work = sys.argv[1]
trace = json.load(open(work + '/churn.trace.json'))
bad = len(trace['events']) - 3
trace['events'][bad] = {'t': trace['events'][bad]['t'], 'kind': 'depart',
                        'request': 999999}
json.dump(trace, open(work + '/late_bad.trace.json', 'w'))
print(bad)
EOF
)
expect_exit 2 "a text trace with a bad event near its end exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/late_bad.trace.json" --flight-recorder-out "$WORK/late.flight.json"
expect_contains "$WORK/err.txt" "trace event $bad: depart for unknown request" \
  "the diagnostic names the bad event"
expect_contains "$WORK/late.flight.json" "\"recorded\": $bad," \
  "the crash dump records every event before the bad one"

# --- serve: elastic autoscaling (DESIGN.md §16) ---------------------------
expect_exit 2 "--autoscale bogus exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --autoscale bogus
expect_exit 2 "NaN --as-high exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --autoscale reactive --as-high nan
expect_exit 2 "--as-low above --as-high exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --autoscale reactive --as-low 0.9 --as-high 0.5
expect_exit 2 "--as-step 0 exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --autoscale predictive --as-step 0
expect_exit 2 "out-of-range --as-alpha exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --autoscale predictive --as-alpha 1.5

# A ramp + burst trace through both policies: the autoscale block reaches
# stdout and the report, and -j never changes a byte.
expect_exit 0 "generate-trace with a rate profile" \
  sh -c "'$NFVPR' generate-trace --workload '$WORK/peak.wl' --events 150 \
         --seed 5 --churn-nodes 3 --mtbf 2 --mttr 0.5 \
         --ramp-amplitude 0.5 --ramp-period 4 \
         --burst-every 3 --burst-length 1 --burst-factor 2 \
         > '$WORK/ramp.trace.json'"
# generate-trace config violations ride the NFV_REQUIRE path (exit 5),
# like every other generator flag.
expect_exit 5 "--ramp-amplitude without --ramp-period exits 5" \
  sh -c "'$NFVPR' generate-trace --workload '$WORK/peak.wl' \
         --ramp-amplitude 0.5 > /dev/null"
for policy in reactive predictive; do
  expect_exit 0 "serve --autoscale $policy, serial" \
    "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
    -T "$WORK/ramp.trace.json" --autoscale "$policy" \
    --report-out "$WORK/as_$policy.j1.json" -j 1
  cp "$WORK/out.txt" "$WORK/as_$policy.j1.txt"
  expect_contains "$WORK/as_$policy.j1.txt" "autoscale ($policy)" \
    "serve summary reports the $policy autoscaler"
  expect_contains "$WORK/as_$policy.j1.json" '"autoscale"' \
    "$policy report carries the autoscale section"
  expect_exit 0 "serve --autoscale $policy, 8 threads" \
    "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
    -T "$WORK/ramp.trace.json" --autoscale "$policy" \
    --report-out "$WORK/as_$policy.j8.json" -j 8
  if cmp -s "$WORK/out.txt" "$WORK/as_$policy.j1.txt" &&
     cmp -s "$WORK/as_$policy.j1.json" "$WORK/as_$policy.j8.json"; then
    echo "ok: autoscaled $policy output is byte-identical across -j1/-j8"
  else
    echo "FAIL: autoscaled $policy output differs between -j1 and -j8" >&2
    failures=$((failures + 1))
  fi
done

# An autoscale-off run must not mention the subsystem anywhere (the PR 8
# byte-compatibility guard, CLI edition).
expect_exit 0 "serve with autoscaling off writes a clean checkpoint" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/ramp.trace.json" --checkpoint-out "$WORK/off.ckpt.json" \
  --report-out "$WORK/off.json"
if grep -q -e autoscale -e draining \
     "$WORK/off.ckpt.json" "$WORK/off.json" "$WORK/out.txt"; then
  echo "FAIL: autoscale-off run mentions the subsystem" >&2
  failures=$((failures + 1))
else
  echo "ok: autoscale-off checkpoint/report/stdout carry no subsystem trace"
fi

# Autoscaled checkpoint/resume: kill mid-trace, resume, byte-identical.
python3 - "$WORK" <<'EOF'
import json, sys
work = sys.argv[1]
trace = json.load(open(work + '/ramp.trace.json'))
trace['events'] = trace['events'][:70]
json.dump(trace, open(work + '/ramp.part.json', 'w'))
EOF
expect_exit 0 "autoscaled full run for the resume reference" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/ramp.trace.json" --autoscale predictive \
  --report-out "$WORK/as_full.json"
expect_exit 0 "autoscaled prefix writes a checkpoint" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/ramp.part.json" --autoscale predictive \
  --checkpoint-out "$WORK/as.ckpt.json"
expect_contains "$WORK/as.ckpt.json" 'autoscale_policy' \
  "autoscaled checkpoint records the policy"
expect_exit 0 "autoscaled --resume finishes the trace" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/ramp.trace.json" --resume "$WORK/as.ckpt.json" \
  --report-out "$WORK/as_resumed.json" -j 8
if cmp -s "$WORK/as_resumed.json" "$WORK/as_full.json"; then
  echo "ok: autoscaled resumed report is byte-identical"
else
  echo "FAIL: autoscaled resumed report differs from the full run" >&2
  diff "$WORK/as_resumed.json" "$WORK/as_full.json" | sed 's/^/  /' >&2
  failures=$((failures + 1))
fi

# --- binary traces (nfvpr.btrace/1) and transcode-trace -------------------
expect_exit 0 "transcode-trace --help exits 0" "$NFVPR" transcode-trace --help
expect_exit 2 "transcode-trace --to bogus is a usage error" \
  "$NFVPR" transcode-trace --in "$WORK/churn.trace.json" --to bogus
expect_exit 2 "transcode-trace on junk input exits 2" \
  sh -c "echo 'not a trace' | '$NFVPR' transcode-trace"

expect_exit 0 "generate-trace --binary" \
  sh -c "'$NFVPR' generate-trace --workload '$WORK/peak.wl' --events 150 \
         --seed 5 --churn-nodes 3 --mtbf 2 --mttr 0.5 --binary \
         > '$WORK/churn.btrace'"
if head -c 6 "$WORK/churn.btrace" | grep -q 'NFVBT1'; then
  echo "ok: binary trace starts with the NFVBT1 magic"
else
  echo "FAIL: generate-trace --binary did not emit the NFVBT1 magic" >&2
  failures=$((failures + 1))
fi

# Both transcoding directions are byte-exact, and --binary equals
# generate-trace | transcode-trace.
expect_exit 0 "transcode text -> binary" \
  "$NFVPR" transcode-trace --in "$WORK/churn.trace.json" \
  --out "$WORK/churn.t2b.btrace"
if cmp -s "$WORK/churn.t2b.btrace" "$WORK/churn.btrace"; then
  echo "ok: transcoded binary equals generate-trace --binary"
else
  echo "FAIL: transcoded binary differs from generate-trace --binary" >&2
  failures=$((failures + 1))
fi
expect_exit 0 "transcode binary -> text" \
  "$NFVPR" transcode-trace --in "$WORK/churn.btrace" \
  --out "$WORK/churn.b2t.json"
if cmp -s "$WORK/churn.b2t.json" "$WORK/churn.trace.json"; then
  echo "ok: binary -> text round trip is byte-exact"
else
  echo "FAIL: binary -> text round trip is not byte-exact" >&2
  failures=$((failures + 1))
fi

# serve auto-detects the binary format and must produce a byte-identical
# report; a truncated binary trace is a usage error.
expect_exit 0 "serve on the binary trace" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.btrace" --report-out "$WORK/churn_binary.json" --events-log
if cmp -s "$WORK/churn_binary.json" "$WORK/churn_full.json"; then
  echo "ok: binary-trace serve report is byte-identical to the text run"
else
  echo "FAIL: binary-trace serve report differs from the text run" >&2
  failures=$((failures + 1))
fi
head -c 40 "$WORK/churn.btrace" > "$WORK/trunc.btrace"
expect_exit 2 "serve on a truncated binary trace exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/trunc.btrace"

# --- serve: streaming telemetry (DESIGN.md §14) ---------------------------
expect_exit 2 "--snapshot-every -1 exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --snapshot-every -1
expect_exit 2 "--snapshot-every nan exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --snapshot-every nan
expect_exit 2 "--timeline-span 0 exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --snapshot-every 0.5 --timeline-span 0
expect_exit 2 "--timeline-out without --snapshot-every exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --timeline-out "$WORK/t.timeline"
expect_exit 2 "--flight-recorder 0 exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --flight-recorder 0 \
  --flight-recorder-out "$WORK/f.json"
expect_exit 2 "--flight-recorder-dump-on-exit without out path exits 2" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --flight-recorder-dump-on-exit

expect_exit 0 "serve with full telemetry" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --snapshot-every 0.5 \
  --timeline-out "$WORK/churn.timeline" \
  --lifecycle-out "$WORK/churn.lifecycle.json" \
  --flight-recorder-out "$WORK/churn.flight.json" \
  --flight-recorder-dump-on-exit -j 1
expect_contains "$WORK/churn.timeline" 'nfvpr.timeline/1' \
  "timeline stream carries its schema"
expect_contains "$WORK/churn.lifecycle.json" '"ph": "X"' \
  "lifecycle renders chrome trace spans"
expect_contains "$WORK/churn.flight.json" 'nfvpr.flight/1' \
  "flight recorder dump carries its schema"

# The timeline stream is part of the determinism contract: any -j yields
# the same bytes.
expect_exit 0 "serve telemetry at -j 8" \
  "$NFVPR" serve -t "$WORK/dc.topo" -w "$WORK/peak.wl" \
  -T "$WORK/churn.trace.json" --snapshot-every 0.5 \
  --timeline-out "$WORK/churn.j8.timeline" -j 8
if cmp -s "$WORK/churn.timeline" "$WORK/churn.j8.timeline"; then
  echo "ok: timeline is byte-identical across -j1/-j8"
else
  echo "FAIL: timeline differs between -j1 and -j8" >&2
  failures=$((failures + 1))
fi

expect_exit 0 "analyze-timeline reads the stream" \
  "$NFVPR" analyze-timeline --in "$WORK/churn.timeline"
expect_contains "$WORK/out.txt" 'availability_min' \
  "analyze-timeline prints the aggregate list"
expect_exit 0 "analyze-timeline passing --fail-on" \
  "$NFVPR" analyze-timeline --in "$WORK/churn.timeline" \
  --fail-on 'availability_min<0'
expect_exit 3 "analyze-timeline violated --fail-on exits 3" \
  "$NFVPR" analyze-timeline --in "$WORK/churn.timeline" \
  --fail-on 'availability_min<2'
expect_exit 2 "analyze-timeline malformed --fail-on exits 2" \
  "$NFVPR" analyze-timeline --in "$WORK/churn.timeline" \
  --fail-on 'availability_min~0.5'
expect_exit 2 "analyze-timeline unknown aggregate exits 2" \
  "$NFVPR" analyze-timeline --in "$WORK/churn.timeline" \
  --fail-on 'no_such_metric<1'
expect_exit 2 "analyze-timeline on junk input exits 2" \
  sh -c "echo 'not a timeline' | '$NFVPR' analyze-timeline"

# --- report pretty-print and diff ----------------------------------------
expect_exit 0 "report pretty-print" "$NFVPR" report --in "$WORK/run.json"
expect_exit 0 "self-diff is clean" \
  "$NFVPR" report --in "$WORK/run.json" --baseline "$WORK/run.json" \
  --fail-on-regression

# A second run with a different seed gives a comparable-but-different
# report; the diff must render without failing (regressions may or may not
# clear the threshold, so no --fail-on-regression here).
expect_exit 0 "pipeline baseline run" \
  "$NFVPR" pipeline -t "$WORK/dc.topo" -w "$WORK/peak.wl" --seed 4 \
  --sim-duration 5 --metrics-out "$WORK/base.json"
expect_exit 0 "cross-seed diff renders" \
  "$NFVPR" report --in "$WORK/run.json" --baseline "$WORK/base.json"

if [ "$failures" -ne 0 ]; then
  echo "$failures check(s) failed" >&2
  exit 1
fi
echo "all CLI exit-code checks passed"
