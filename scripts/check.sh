#!/usr/bin/env bash
# Local mirror of CI: configure, build, run the tier-1 test suite
# (ROADMAP.md), then smoke-run the examples, the trace_convert pipeline on
# the checked-in SNAP sample, and the unified bench suite across every
# scenario. CHECK_TSAN=1 additionally mirrors the CI ThreadSanitizer job
# (concurrency suites + dependency-preserving replay under -fsanitize=thread).
# CHECK_RECOVERY=1 mirrors the CI crash-recovery job: SIGKILL the ingest
# service mid-stream at a randomized point, restart, recover, and verify the
# recovered graph against the DSU oracle. CHECK_SERVE=1 mirrors the CI
# serve-smoke job: condyn_server + open-loop loadgen trace replay, asserting
# a healthy serve JSON record, overload shedding, and a clean SIGTERM drain.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"

cmake -B build -S .
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

./build/example_batch_processor
./build/example_trace_replay
# End-to-end ingest pass: group commit, mid-stream snapshot, ticketed
# submit, recovery, oracle verification (DESIGN.md §11).
./build/example_ingest_service demo

# trace_convert on the checked-in sample: <= 3 bytes/op in v3; the v1 and
# v2 goldens (the same ops) recompress to identical v3 bytes, and
# recompressing that output again is byte-stable; strict --info decode of
# the golden traces.
sample_trace="$(mktemp /tmp/check-sample.XXXXXX.dctr)"
from_v1="$(mktemp /tmp/check-from-v1.XXXXXX.dctr)"
from_v2="$(mktemp /tmp/check-from-v2.XXXXXX.dctr)"
from_v3="$(mktemp /tmp/check-from-v3.XXXXXX.dctr)"
trace="$(mktemp /tmp/check-trace.XXXXXX.bin)"
json="$(mktemp /tmp/check-bench.XXXXXX.json)"
convert_out="$(mktemp /tmp/check-convert.XXXXXX.out)"
trap 'rm -f "$sample_trace" "$from_v1" "$from_v2" "$from_v3" "$trace" "$json" "$convert_out"' EXIT
# Echo the converter's report through the already-open stderr (not
# `tee /dev/stderr`, which reopens a redirected log and truncates it).
./build/trace_convert convert data/sample_temporal.txt "$sample_trace" \
  --dedup --window 150 --queries 5 > "$convert_out"
cat "$convert_out" >&2
awk '/bytes\/op/ { seen = 1; if ($2 + 0 > 3.0) { print "bytes/op " $2 " > 3"; exit 1 } }
       END { if (!seen) { print "no bytes/op line in trace_convert output"; exit 1 } }' "$convert_out"
./build/trace_convert recompress tests/data/golden_v1.dctr "$from_v1" > /dev/null
./build/trace_convert recompress tests/data/golden_v2.dctr "$from_v2" > /dev/null
cmp "$from_v1" "$from_v2"
./build/trace_convert recompress "$from_v1" "$from_v3" > /dev/null
cmp "$from_v1" "$from_v3"
./build/trace_convert info tests/data/golden_v1.dctr > /dev/null
./build/trace_convert info tests/data/golden_v2.dctr > /dev/null
./build/trace_convert info tests/data/golden_v3.dctr | grep -q "version:      3"
# --reads synthesis with size queries must emit a valid v3 trace.
sample_reads="$(mktemp /tmp/check-sample-reads.XXXXXX.dctr)"
snap_trace="$(mktemp /tmp/check-snap.XXXXXX.dctr)"
trap 'rm -f "$sample_trace" "$from_v1" "$from_v2" "$from_v3" "$sample_reads" "$snap_trace" "$trace" "$json" "$convert_out"' EXIT
./build/trace_convert recompress "$sample_trace" "$sample_reads" \
  --reads 80 --size-queries | grep -q "version:      3"
./build/trace_convert info "$sample_reads" > /dev/null
# snapshot subcommand: decode the golden DCSN, extract its live-edge set as
# a standalone trace, and decode that trace strictly.
./build/trace_convert snapshot tests/data/golden.dcsn "$snap_trace" |
  grep -q "applied_seq:  77"
./build/trace_convert info "$snap_trace" > /dev/null

./build/bench_suite --list | grep -q "Variants (13 registered)"
./build/bench_suite --list | grep -q "Scenarios (12 registered)"
DC_BENCH_SCALE=0.01 ./build/bench_suite --record random "$trace" 2000
DC_BENCH_MILLIS=20 DC_BENCH_WARMUP=5 DC_BENCH_THREADS=1,2 \
  DC_BENCH_SCALE=0.01 DC_BENCH_READS=80 DC_BENCH_BATCH_SIZES=16,1024 \
  DC_BENCH_VARIANTS=coarse,full DC_BENCH_TRACE="$trace" \
  DC_BENCH_JSON="$json" ./build/bench_suite > /dev/null
# The smoke assertions and the baseline diff below both run whatever the
# other's outcome; the script fails afterwards if either failed.
smoke_status=0
python3 -c "
import json, sys
d = json.load(open('$json'))
n = len({r['scenario'] for r in d['results'] if r['section'] == 'sweep'})
assert n == 12, f'expected all 12 scenarios, got {n}'
assert [r for r in d['results'] if r['section'] == 'memory'], 'no memory records'
assert [r for r in d['results'] if r['section'] == 'calibration'], 'no calibration record'
dep = [r for r in d['results'] if r['section'] == 'sweep' and r['scenario'] == 'trace-replay-dep']
assert dep and all(r['latency_us_p99'] > 0 for r in dep), 'dep-replay latency percentiles missing'
sq = [r for r in d['results'] if r['section'] == 'sweep' and r['scenario'] == 'size-query']
assert sq and all(r['ops_component_size'] > 0 and r['component_size_per_ms'] > 0 for r in sq), \
    'size-query per-kind throughput missing'
bulk = [r for r in d['results'] if r['section'] == 'sweep' and r['scenario'] == 'bulk-connected']
assert bulk and all(r['batches'] > 0 for r in bulk), 'bulk-connected batched records missing'
lab = [r for r in d['results'] if r['section'] == 'labels']
assert {r['label_cache'] for r in lab} == {0, 1}, 'labels section must record cache-on and cache-off rows'
assert any(r['label_cache'] == 1 and r['label_hits'] > 0 for r in lab), 'label cache never hit in the labels smoke'
ing = [r for r in d['results'] if r['section'] == 'ingest']
assert {r['mode'] for r in ing} == {'closed-loop', 'group-commit', 'firehose', 'recovery'}, \
    'ingest section must record all four modes'
f = next(r for r in ing if r['mode'] == 'firehose')
assert f['sojourn_us_p99'] > 0 and f['sojourn_us_p999'] >= f['sojourn_us_p99'], \
    'firehose sojourn percentiles missing or non-monotone'
rec = next(r for r in ing if r['mode'] == 'recovery')
assert rec['verified'] == 1 and rec['recovery_ms'] > 0 and rec['journal_records'] > 0, \
    'ingest recovery record incomplete'
# closed-loop and group-commit run as interleaved pairs; ops_per_ms is the
# median of their runs, with quartiles beside it.
ing_modes = {r['mode']: r for r in ing}
cl, gc = ing_modes['closed-loop'], ing_modes['group-commit']
spread = lambda r: f'{r[\"ops_per_ms\"]:.1f} [{r[\"ops_per_ms_q1\"]:.1f}, {r[\"ops_per_ms_q3\"]:.1f}]'
print(f'ingest medians [quartiles] over {gc[\"runs\"]} pairs: group-commit {spread(gc)}, closed-loop {spread(cl)} ops/ms')
assert gc['ops_per_ms'] >= 0.95 * cl['ops_per_ms'], \
    f'group commit median {gc[\"ops_per_ms\"]:.1f} < closed loop median {cl[\"ops_per_ms\"]:.1f} ops/ms'
print(f'ingest: group-commit/closed-loop medians = {gc[\"ops_per_ms\"]/cl[\"ops_per_ms\"]:.2f}x')
print(f'bench_suite smoke: {len(d[\"results\"])} JSON records, {n} scenarios')
" || smoke_status=$?

# Regression diff against the checked-in baseline: coverage loss fails,
# throughput deltas are calibration-normalized but warn-only (still noisy —
# gate throughput by diffing two runs of bench_suite on one machine instead).
diff_status=0
python3 scripts/bench_diff.py bench/baseline.json "$json" --warn-only ||
  diff_status=$?
if [[ "$smoke_status" -ne 0 || "$diff_status" -ne 0 ]]; then
  echo "check.sh: bench smoke exited $smoke_status, bench_diff exited $diff_status" >&2
  exit 1
fi

# Optional mirror of the CI tsan job (slow; needs a second build tree).
if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  cmake -B build-tsan -S . -DCONDYN_SANITIZE=thread
  cmake --build build-tsan -j "$jobs" \
    --target test_concurrent test_nb_hdt test_scenarios test_replay_dep \
             test_query_api test_label_cache test_batch test_sharded_map \
             test_edge_multiset test_ingest test_server test_combining
  TSAN_OPTIONS="halt_on_error=1" ctest --test-dir build-tsan \
    --output-on-failure -j 2 \
    -R 'test_concurrent|test_nb_hdt|test_scenarios|test_replay_dep|test_query_api|test_label_cache|test_batch|test_sharded_map|test_edge_multiset|test_ingest|test_server|test_combining'
fi

# Optional mirror of the CI crash-recovery job: kill -9 the serving process
# at a randomized point mid-ingest, then recover from snapshot + journal
# tail and require DSU-oracle equality. Two rounds on one directory so the
# second pass also exercises journal reattach over a truncated torn tail.
if [[ "${CHECK_RECOVERY:-0}" == "1" ]]; then
  recovery_dir="$(mktemp -d /tmp/check-recovery.XXXXXX)"
  recover_out="$(mktemp /tmp/check-recover.XXXXXX.out)"
  for round in 1 2; do
    delay="$(python3 -c "import random; random.seed(${CHECK_RECOVERY_SEED:-$$} + $round); print(round(random.uniform(0.4, 2.0), 2))")"
    echo "crash-recovery round $round: killing after ${delay}s"
    ./build/example_ingest_service serve "$recovery_dir" 4096 20000 &
    serve_pid=$!
    sleep "$delay"
    kill -9 "$serve_pid"
    wait "$serve_pid" || true
    test -s "$recovery_dir/journal.dcjl"
    ./build/example_ingest_service recover "$recovery_dir" | tee "$recover_out"
    grep -q "verified: recovered graph matches DSU oracle" "$recover_out"
  done
  rm -rf "$recovery_dir" "$recover_out"
fi

# Optional mirror of the CI serve-smoke job: replay a frozen DCTR trace
# open-loop against condyn_server, assert the serve JSON record, then drive
# an fsync-throttled server past capacity and require shedding (ops_shed >
# 0, ops_failed == 0) instead of collapse. SIGTERM must drain to exit 0.
if [[ "${CHECK_SERVE:-0}" == "1" ]]; then
  serve_dir="$(mktemp -d /tmp/check-serve.XXXXXX)"
  ./build/loadgen --make-trace "$serve_dir/serve.dctr" --vertices 4096 \
    --ops 200000 --seed "${CHECK_SERVE_SEED:-$$}"
  DC_SERVER_PORT=18431 DC_SERVER_VERTICES=4096 \
    ./build/condyn_server > "$serve_dir/server.log" &
  server_pid=$!
  for _ in $(seq 50); do
    grep -q "listening" "$serve_dir/server.log" && break; sleep 0.2
  done
  ./build/loadgen --port 18431 --trace "$serve_dir/serve.dctr" \
    --rate 5000 --connections 8 --duration 5 --batch 8 --processes 2 \
    --json "$serve_dir/serve.json"
  python3 -c "
import json
rec = json.load(open('$serve_dir/serve.json'))['results'][0]
assert rec['section'] == 'serve' and rec['achieved_rate'] > 0, rec
assert rec['ops_failed'] == 0 and 0 < rec['latency_us_p999'] < 60e6, rec
print('serve ok:', rec['achieved_rate'], 'ops/s; p999', rec['latency_us_p999'], 'us')
"
  kill -TERM "$server_pid"
  wait "$server_pid"
  grep -q "condyn_server exit" "$serve_dir/server.log"
  DC_SERVER_PORT=18432 DC_SERVER_VERTICES=4096 DC_SERVER_INFLIGHT=4 \
    DC_INGEST_BATCH=4 DC_JOURNAL="$serve_dir/journal.dcjl" \
    ./build/condyn_server > "$serve_dir/overload.log" &
  server_pid=$!
  for _ in $(seq 50); do
    grep -q "listening" "$serve_dir/overload.log" && break; sleep 0.2
  done
  ./build/loadgen --port 18432 --trace "$serve_dir/serve.dctr" \
    --rate 40000 --connections 8 --duration 5 --batch 8 \
    --json "$serve_dir/overload.json"
  python3 -c "
import json
rec = json.load(open('$serve_dir/overload.json'))['results'][0]
assert rec['ops_shed'] > 0 and rec['ops_failed'] == 0 and rec['ops_acked'] > 0, rec
print('overload ok: shed', rec['ops_shed'], 'acked', rec['ops_acked'])
"
  kill -TERM "$server_pid"
  wait "$server_pid"
  grep -q "condyn_server exit" "$serve_dir/overload.log"
  rm -rf "$serve_dir"
fi

echo "check.sh: all green"
