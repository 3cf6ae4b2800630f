#!/usr/bin/env sh
# Tier-1 verification: build, full test suite (unit + bench-smoke), an
# observability smoke run (--metrics/--trace/--host-profile on a tiny
# graph), a bench-json smoke run (--json + hyve_report --check/--compare,
# byte-diffed across --jobs), a functional-memo smoke run (--cache-stats
# reports functional-cache replays with no extra flag), an out-of-core
# smoke run (blocked graph streamed under --ooc-window-mb, byte-diffed
# against the in-memory run), a live-telemetry smoke run (--live-status snapshots,
# hyve_top, and the SIGTERM flight-record path), a docs/METRICS.md
# drift check, a kernel-regression smoke run (bench_micro's built-in
# layout-equivalence gate), a dynamic-graph smoke run (the §5 example
# against its golden output), the full suite in a Debug
# build under AddressSanitizer + UndefinedBehaviorSanitizer, then the
# sweep-engine concurrency tests under ThreadSanitizer.
set -eu

cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j "$(nproc)"

# obs-smoke: a traced, metered run must produce a non-empty registry
# dump and a trace with events; both outputs are asserted, not just the
# exit code.
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
./build/tools/hyve_sim --rmat 5000x30000 --algo pr \
  --metrics --trace "$obs_dir/trace.json" >/dev/null 2>"$obs_dir/metrics.txt"
grep -q '=' "$obs_dir/metrics.txt" ||
  { echo "obs-smoke: empty metrics dump" >&2; exit 1; }
grep -q 'sim\.pipeline\.blocks=' "$obs_dir/metrics.txt" ||
  { echo "obs-smoke: pipeline counters missing" >&2; exit 1; }
grep -q '"ph"' "$obs_dir/trace.json" ||
  { echo "obs-smoke: trace has no events" >&2; exit 1; }
grep -q '"traceEvents"' "$obs_dir/trace.json" ||
  { echo "obs-smoke: not a trace-event document" >&2; exit 1; }
# --host-profile alone prints its host.* summary, and the profiler runs
# from before graph generation, so the R-MAT build is in it.
./build/tools/hyve_sim --rmat 5000x30000 --algo pr --host-profile \
  >/dev/null 2>"$obs_dir/host.txt"
grep -q '^host\.wall_us=' "$obs_dir/host.txt" ||
  { echo "obs-smoke: --host-profile printed no summary" >&2; exit 1; }
grep -q '^host\.span\.rmat\.generate\.count=1$' "$obs_dir/host.txt" ||
  { echo "obs-smoke: R-MAT generation missing from the host profile" >&2
    exit 1; }
echo "obs-smoke: OK"

# bench-json: a smoke bench must emit a report hyve_report accepts, the
# document must be byte-identical for any --jobs value, and comparing a
# report against itself must find no regressions.
./build/bench/bench_fig13 --smoke --jobs 1 --json "$obs_dir/bench_j1.json" \
  >/dev/null 2>&1
./build/bench/bench_fig13 --smoke --jobs 8 --json "$obs_dir/bench_j8.json" \
  >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/bench_j1.json" >/dev/null ||
  { echo "bench-json: --check rejected a fresh report" >&2; exit 1; }
# The single "host":{...} object is the report's only wall-clock
# content; strip it and the rest must be byte-identical across --jobs.
strip_host() { sed 's/,"host":{[^}]*}//' "$1"; }
strip_host "$obs_dir/bench_j1.json" > "$obs_dir/bench_j1.nohost"
strip_host "$obs_dir/bench_j8.json" > "$obs_dir/bench_j8.nohost"
cmp "$obs_dir/bench_j1.nohost" "$obs_dir/bench_j8.nohost" ||
  { echo "bench-json: --jobs 1 and --jobs 8 reports differ" >&2; exit 1; }
./build/tools/hyve_report --compare "$obs_dir/bench_j1.json" \
  "$obs_dir/bench_j8.json" >/dev/null ||
  { echo "bench-json: identical reports flagged as regressed" >&2; exit 1; }
# bench_ablation sweeps configs that share a base label (five PU counts)
# on AS, its default dataset; every cell must survive the report's
# (label, algorithm, graph) de-duplication whatever order cells finish.
./build/bench/bench_ablation --smoke --jobs 1 \
  --json "$obs_dir/ablation_j1.json" >/dev/null 2>&1
./build/bench/bench_ablation --smoke --jobs 8 \
  --json "$obs_dir/ablation_j8.json" >/dev/null 2>&1
strip_host "$obs_dir/ablation_j1.json" > "$obs_dir/ablation_j1.nohost"
strip_host "$obs_dir/ablation_j8.json" > "$obs_dir/ablation_j8.nohost"
cmp "$obs_dir/ablation_j1.nohost" "$obs_dir/ablation_j8.nohost" ||
  { echo "bench-json: bench_ablation --jobs 1 and --jobs 8 reports differ" >&2
    exit 1; }
echo "bench-json: OK"

# functional-memo: every sweep memoises its functional phases; there is
# no switch left to diff against. The on/off check is the ctest
# FunctionalCache.MemoizesAcrossMemoryConfigsWithIdenticalOutput, which
# byte-compares memoised sweeps (report JSON and trace, --jobs 1 and 8)
# with per-cell HyveMachine::run. Here --cache-stats must report the
# functional cache with no extra flag, with replays on a five-config
# grid, for hyve_experiments and a bench alike; the bench's stdout
# doubles as the plain run live-smoke diffs against.
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 1 \
  --cache-stats > "$obs_dir/exp_j1.jsonl" 2>"$obs_dir/exp_stats.txt"
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 8 \
  > "$obs_dir/exp_j8.jsonl"
cmp "$obs_dir/exp_j1.jsonl" "$obs_dir/exp_j8.jsonl" ||
  { echo "functional-memo: --jobs 1 and --jobs 8 outputs differ" >&2; exit 1; }
grep -q 'functional cache: hits=[1-9]' "$obs_dir/exp_stats.txt" ||
  { echo "functional-memo: hyve_experiments --cache-stats shows no" \
         "functional-cache hits" >&2; exit 1; }
./build/bench/bench_fig13 --smoke --jobs 2 --cache-stats \
  > "$obs_dir/bench_plain.out" 2>"$obs_dir/bench_stats.txt"
grep -q 'functional cache: hits=[1-9]' "$obs_dir/bench_stats.txt" ||
  { echo "functional-memo: bench --cache-stats shows no functional-cache" \
         "hits" >&2; exit 1; }
echo "functional-memo: OK"

# partitioner-smoke: sweeping every partitioning strategy must stay
# order-stable (byte-identical --jobs 1 vs 8), every strategy must show
# up in the records with its own label annotation and per-strategy
# cache counters, and a bench run must accept --partitioner.
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 1 \
  --partitioner interval,hep:tau=2,splitmerge:chunks=8 --cache-stats \
  > "$obs_dir/part_j1.jsonl" 2>"$obs_dir/part_stats.txt"
./build/tools/hyve_experiments --datasets YT --algos bfs,pr --jobs 8 \
  --partitioner interval,hep:tau=2,splitmerge:chunks=8 \
  > "$obs_dir/part_j8.jsonl"
cmp "$obs_dir/part_j1.jsonl" "$obs_dir/part_j8.jsonl" ||
  { echo "partitioner-smoke: --jobs 1 and --jobs 8 outputs differ" >&2
    exit 1; }
grep -q '~hep:tau=2' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: hep cells missing from output" >&2; exit 1; }
grep -q '~splitmerge:chunks=8' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: splitmerge cells missing" >&2; exit 1; }
grep -q '"partition":{"n_avg":' "$obs_dir/part_j1.jsonl" ||
  { echo "partitioner-smoke: partition stats missing" >&2; exit 1; }
grep -q 'partition cache\[hep:tau=2\]:' "$obs_dir/part_stats.txt" ||
  { echo "partitioner-smoke: per-strategy cache stats missing" >&2; exit 1; }
./build/bench/bench_fig13 --smoke --jobs 2 --partitioner hep:tau=2 \
  --json "$obs_dir/bench_hep.json" >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/bench_hep.json" >/dev/null ||
  { echo "partitioner-smoke: hep bench report rejected" >&2; exit 1; }
echo "partitioner-smoke: OK"

# ooc-smoke: a blocked graph bigger than the decode window must stream
# through hyve_sim with the same stdout as the in-memory (unbounded)
# run, the chunked generator path must round-trip through convert, and
# the reported peak window residency must respect --ooc-window-mb.
./build/tools/hyve_graphgen rmat 40000 240000 "$obs_dir/ooc.hgb" >/dev/null
./build/tools/hyve_sim --graph "$obs_dir/ooc.hgb" --algo pr --csv \
  > "$obs_dir/ooc_mem.csv" 2>/dev/null
./build/tools/hyve_sim --graph "$obs_dir/ooc.hgb" --graph-format blocked \
  --ooc-window-mb 1 --algo pr --csv --metrics \
  > "$obs_dir/ooc_win.csv" 2>"$obs_dir/ooc_metrics.txt"
cmp "$obs_dir/ooc_mem.csv" "$obs_dir/ooc_win.csv" ||
  { echo "ooc-smoke: windowed run differs from in-memory run" >&2; exit 1; }
grep -q 'sim\.ooc\.blocks_mapped=' "$obs_dir/ooc_metrics.txt" ||
  { echo "ooc-smoke: window counters missing" >&2; exit 1; }
peak=$(sed -n 's/^sim\.ooc\.window_peak_bytes=//p' "$obs_dir/ooc_metrics.txt")
[ -n "$peak" ] && [ "$peak" -le 1048576 ] ||
  { echo "ooc-smoke: peak window $peak exceeds 1 MiB budget" >&2; exit 1; }
./build/tools/hyve_graphgen convert "$obs_dir/ooc.hgb" "$obs_dir/ooc.bin" \
  >/dev/null
./build/tools/hyve_sim --graph "$obs_dir/ooc.bin" --algo pr --csv \
  > "$obs_dir/ooc_bin.csv" 2>/dev/null
# Drop the graph-path column (the only legitimate difference).
cut -d, -f2- "$obs_dir/ooc_mem.csv" > "$obs_dir/ooc_mem.cut"
cut -d, -f2- "$obs_dir/ooc_bin.csv" > "$obs_dir/ooc_bin.cut"
cmp "$obs_dir/ooc_mem.cut" "$obs_dir/ooc_bin.cut" ||
  { echo "ooc-smoke: blocked->bin convert changed the graph" >&2; exit 1; }
echo "ooc-smoke: OK"

# perf-history: record two smoke reports into a throwaway ledger, the
# trend must pass; a sed-injected wall-clock regression appended as a
# third record must flip the trend's exit code. Then the dashboard:
# hyve_dash output must be byte-identical for reports produced with
# different --jobs (the host object is excluded by default).
hist_dir="$obs_dir/history"
./build/bench/bench_fig10 --smoke --jobs 1 --host-profile \
  --json "$obs_dir/perf_a.json" >/dev/null 2>&1
./build/bench/bench_fig10 --smoke --jobs 1 \
  --json "$obs_dir/perf_b.json" >/dev/null 2>&1
./build/tools/hyve_report --record "$obs_dir/perf_a.json" \
  --history "$hist_dir" >/dev/null ||
  { echo "perf-history: --record rejected a fresh report" >&2; exit 1; }
./build/tools/hyve_report --record "$obs_dir/perf_b.json" \
  --history "$hist_dir" >/dev/null
./build/tools/hyve_report --trend "$hist_dir" >/dev/null ||
  { echo "perf-history: clean ledger flagged as regressed" >&2; exit 1; }
tail -n 1 "$hist_dir/bench_fig10.jsonl" |
  sed 's/"wall_ms":[0-9.eE+-]*/"wall_ms":9.9e9/' \
  >> "$hist_dir/bench_fig10.jsonl"
if ./build/tools/hyve_report --trend "$hist_dir" >/dev/null; then
  echo "perf-history: injected wall-clock regression not flagged" >&2
  exit 1
fi
./build/bench/bench_fig10 --smoke --jobs 8 \
  --json "$obs_dir/perf_j8.json" >/dev/null 2>&1
./build/tools/hyve_dash "$obs_dir/perf_b.json" \
  --out "$obs_dir/dash_j1.html" >/dev/null 2>&1 ||
  { echo "perf-history: hyve_dash failed" >&2; exit 1; }
./build/tools/hyve_dash "$obs_dir/perf_j8.json" \
  --out "$obs_dir/dash_j8.html" >/dev/null 2>&1
cmp "$obs_dir/dash_j1.html" "$obs_dir/dash_j8.html" ||
  { echo "perf-history: dashboard differs across --jobs" >&2; exit 1; }
grep -q '<html>' "$obs_dir/dash_j1.html" ||
  { echo "perf-history: dashboard is not HTML" >&2; exit 1; }
echo "perf-history: OK"

# live-smoke: a bench run with --live-status must publish at least two
# snapshots and finish with state "done" — without changing a byte of
# stdout (diffed against the plain run from the functional-memo step).
# hyve_top must render the final snapshot. Then a second, full-size run
# is SIGTERMed mid-sweep: the flight recorder must exit with code 75
# and leave a hyve_report-clean partial report, a truncated trace and
# an "interrupted" final snapshot.
./build/bench/bench_fig13 --smoke --jobs 2 \
  --live-status "$obs_dir/live.json,40" \
  > "$obs_dir/bench_live.out" 2>/dev/null
grep -q '"state":"done"' "$obs_dir/live.json" ||
  { echo "live-smoke: final snapshot state is not done" >&2; exit 1; }
snaps=$(sed -n 's/.*"snapshot":\([0-9]*\).*/\1/p' "$obs_dir/live.json")
[ -n "$snaps" ] && [ "$snaps" -ge 2 ] ||
  { echo "live-smoke: fewer than 2 snapshots published" >&2; exit 1; }
cmp "$obs_dir/bench_live.out" "$obs_dir/bench_plain.out" ||
  { echo "live-smoke: --live-status changed bench stdout" >&2; exit 1; }
./build/tools/hyve_top "$obs_dir/live.json" --once > "$obs_dir/top.txt" ||
  { echo "live-smoke: hyve_top failed on a status file" >&2; exit 1; }
grep -q 'cells' "$obs_dir/top.txt" ||
  { echo "live-smoke: hyve_top rendered no progress line" >&2; exit 1; }
rm -f "$obs_dir/live.json"
./build/bench/bench_fig13 --jobs 2 --live-status "$obs_dir/live.json,30" \
  --json "$obs_dir/bench_flight.json" --trace "$obs_dir/flight_trace.json" \
  >/dev/null 2>&1 &
flight_pid=$!
tries=0
while [ "$tries" -lt 600 ]; do
  if grep -q '"done":[1-9]' "$obs_dir/live.json" 2>/dev/null; then break; fi
  kill -0 "$flight_pid" 2>/dev/null ||
    { echo "live-smoke: bench exited before it could be interrupted" >&2
      exit 1; }
  sleep 0.05
  tries=$((tries + 1))
done
kill -TERM "$flight_pid"
flight_rc=0
wait "$flight_pid" || flight_rc=$?
[ "$flight_rc" -eq 75 ] ||
  { echo "live-smoke: flight-record exit code $flight_rc != 75" >&2; exit 1; }
./build/tools/hyve_report --check "$obs_dir/bench_flight.json" >/dev/null ||
  { echo "live-smoke: partial flight report rejected" >&2; exit 1; }
grep -q '"truncated":true' "$obs_dir/flight_trace.json" ||
  { echo "live-smoke: flight trace missing truncation marker" >&2; exit 1; }
grep -q '"state":"interrupted"' "$obs_dir/live.json" ||
  { echo "live-smoke: final snapshot state is not interrupted" >&2; exit 1; }
echo "live-smoke: OK"

# metrics-doc: the checked-in metrics reference must match what the
# binary actually registers.
./build/tools/hyve_sim --list-metrics | cmp - docs/METRICS.md ||
  { echo "metrics-doc: docs/METRICS.md is stale — regenerate with" \
         "./build/tools/hyve_sim --list-metrics > docs/METRICS.md" >&2
    exit 1; }
echo "metrics-doc: OK"

# kernel-regression: bench_micro runs every program through every edge
# layout and aborts itself if any kernel drifts from the per-edge
# reference (or a traversal case degenerates), so a clean exit IS the
# equivalence check; its smoke report must satisfy hyve_report and be
# byte-identical across --jobs. That pattern reuse never changes a
# report or trace byte under a frontier config is pinned by
# SoaKernels.PatternReuseIsReportAndTraceInvisible in the ctest runs.
./build/bench/bench_micro --smoke --jobs 1 \
  --json "$obs_dir/micro_j1.json" >/dev/null 2>&1 ||
  { echo "kernel-regression: bench_micro layout equivalence failed" >&2
    exit 1; }
./build/bench/bench_micro --smoke --jobs 8 \
  --json "$obs_dir/micro_j8.json" >/dev/null 2>&1
./build/tools/hyve_report --check "$obs_dir/micro_j1.json" >/dev/null ||
  { echo "kernel-regression: --check rejected the kernel report" >&2
    exit 1; }
strip_host "$obs_dir/micro_j1.json" > "$obs_dir/micro_j1.nohost"
strip_host "$obs_dir/micro_j8.json" > "$obs_dir/micro_j8.nohost"
cmp "$obs_dir/micro_j1.nohost" "$obs_dir/micro_j8.nohost" ||
  { echo "kernel-regression: --jobs 1 and --jobs 8 reports differ" >&2
    exit 1; }
echo "kernel-regression: OK"

# dynamic-smoke: dynamic_social_network's stdout, minus the wall-clock
# requests/s column, must match the committed golden file. The example
# draws its delete requests from the raw snapshot(), so this pins the
# store's snapshot edge sequence (which slot each delete frees) end to
# end, through incremental and batch CC and the simulated energy.
./build/examples/dynamic_social_network | cut -d'|' -f1-3,5- \
  > "$obs_dir/dynamic.txt"
cmp "$obs_dir/dynamic.txt" tests/golden/dynamic_social_network.txt ||
  { echo "dynamic-smoke: output differs from" \
         "tests/golden/dynamic_social_network.txt" >&2; exit 1; }
echo "dynamic-smoke: OK"

# debug-asan: the whole suite in a Debug build (NDEBUG undefined, so the
# debug-only contract checks and the tests gated on them run) under
# ASan+UBSan; any UBSan report fails the test that triggered it.
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DHYVE_SANITIZE=address
cmake --build build-asan -j
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

cmake -B build-tsan -S . -DHYVE_SANITIZE=thread
cmake --build build-tsan -j
ctest --test-dir build-tsan -L sweep-engine --output-on-failure

echo "verify: OK"
