#!/usr/bin/env bash
# Fast verification gate for every PR, one command:
#   0. hygiene: no build artifacts tracked by git (PR 1 accidentally
#      committed an in-source build; this keeps it from regressing)
#   1. tier-1: configure, build everything, run the full test suite
#   2. partition-quality smoke: fig27 at smoke scale, so partitioner and
#      update-traffic regressions show up as diffable numbers
#   3. hybrid-residency smoke: fig29 at smoke scale — every pin budget must
#      match the in-memory results, full budget must stop writing update
#      files, and the runtime curve must stay monotone
#   4. scan-sharing smoke: fig30 at smoke scale — concurrent scheduler jobs
#      must produce solo-identical results while the shared scan keeps the
#      edge-read volume ~flat in the job count
#   5. incremental-residency smoke: fig31 at smoke scale — delta migrations
#      must stay strictly below the full re-plan baseline, and with edge
#      pinning at full budget the edge device must read each partition's
#      edges at most once after setup
#   6. raw-speed smoke: fig32 at smoke scale — staged shuffle and
#      compressed update streams must each be result-invariant, with >= 2x
#      fewer update-device bytes on compressed BFS
#   7. async-spill smoke: fig28 at smoke scale — async update spill must
#      match sync results exactly with identical update-file traffic
#   8. telemetry smoke: a live --jobs run with --http-port=0, polled with
#      curl mid-flight — /healthz must answer ok, /metrics must serve
#      Prometheus exposition whose counters increase between scrapes, /jobs
#      must report per-job progress, /attribution must carry a diagnosis,
#      and /profile?seconds=1 must return non-empty folded stacks
#   9. serve smoke: a live xstream-serve daemon on an ephemeral port — curl
#      submits a BFS query over POST /v1/jobs, polls it to done, verifies
#      the result payload and the serve counters on /metrics, then SIGTERMs
#      the daemon and requires a clean drain with exit code 0
#  10. no-obs smoke: -DXSTREAM_DISABLE_OBS=ON must still compile the CLI
#      (exporter stubbed to "unavailable") and run a solo job
#  11. obs-overhead smoke: the instrumentation microbench must emit its
#      attribution/profiler metrics for the bench diff
#  12. bench diff: every smoke bench also emits BENCH_figXX.json (metric
#      values tagged exact/ratio/info) which scripts/bench_diff.py gates
#      against the committed baselines in bench/baselines/
#  13. docs: every intra-repo markdown link must resolve
#
# Usage: scripts/check.sh [build-dir]   (default: ./build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== hygiene: tracked build artifacts =="
ARTIFACTS="$(git ls-files | grep -E \
  '(^|/)(CMakeCache\.txt|CMakeFiles/|cmake_install\.cmake|CTestTestfile\.cmake|Testing/)|\.(o|obj|a|so|bin)$|^build/' \
  || true)"
if [[ -n "$ARTIFACTS" ]]; then
  echo "error: build artifacts are tracked by git:" >&2
  echo "$ARTIFACTS" | head -20 >&2
  echo "(run: git rm -r --cached <paths> — see .gitignore)" >&2
  exit 1
fi
echo "clean"

echo
echo "== tier-1: build + ctest =="
cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

echo
echo "== partition-quality smoke benchmark =="
"./$BUILD_DIR/fig27_partitioners" --smoke --json=BENCH_fig27.json

echo
echo "== hybrid-residency smoke benchmark =="
"./$BUILD_DIR/fig29_hybrid_residency" --smoke --json=BENCH_fig29.json

echo
echo "== scan-sharing smoke benchmark =="
"./$BUILD_DIR/fig30_scan_sharing" --smoke --json=BENCH_fig30.json

echo
echo "== incremental-residency smoke benchmark =="
"./$BUILD_DIR/fig31_incremental_residency" --smoke --json=BENCH_fig31.json

echo
echo "== raw-speed smoke benchmark =="
"./$BUILD_DIR/fig32_raw_speed" --smoke --json=BENCH_fig32.json

echo
echo "== async-spill smoke benchmark =="
"./$BUILD_DIR/fig28_async_spill" --smoke --json=BENCH_fig28.json

echo
echo "== telemetry smoke: live /metrics + /healthz + /jobs =="
if command -v curl >/dev/null 2>&1; then
  TELEMETRY_LOG="$BUILD_DIR/telemetry_smoke.log"
  TELEMETRY_DIR="$(mktemp -d)"
  # A deliberately long job batch (we SIGINT it once the probes pass): the
  # only requirement is that it is still running when curl arrives.
  "./$BUILD_DIR/xstream_cli" --generate=rmat --scale=13 --engine=out-of-core \
    --workdir="$TELEMETRY_DIR" --jobs=pagerank:iters=5000,wcc --http-port=0 \
    > "$TELEMETRY_LOG" 2>&1 &
  CLI_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's#.*telemetry: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$TELEMETRY_LOG" | head -1)"
    [[ -n "$PORT" ]] && break
    kill -0 "$CLI_PID" 2>/dev/null || { echo "error: CLI exited before telemetry came up" >&2;
      cat "$TELEMETRY_LOG" >&2; exit 1; }
    sleep 0.2
  done
  [[ -n "$PORT" ]] || { echo "error: no telemetry port in CLI output" >&2;
    cat "$TELEMETRY_LOG" >&2; exit 1; }
  BASE="http://127.0.0.1:$PORT"
  curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' \
    || { echo "error: /healthz not ok" >&2; exit 1; }
  # The counter series materializes on its first increment, so poll until
  # the scheduler has scanned at least one partition.
  SCANS1=""
  for _ in $(seq 1 100); do
    SCANS1="$(curl -fsS "$BASE/metrics" | sed -n 's/^xstream_scheduler_partition_scans_total //p')"
    [[ -n "$SCANS1" ]] && break
    sleep 0.2
  done
  [[ -n "$SCANS1" ]] || { echo "error: /metrics missing partition-scan counter" >&2; exit 1; }
  sleep 1
  SCANS2="$(curl -fsS "$BASE/metrics" | sed -n 's/^xstream_scheduler_partition_scans_total //p')"
  awk -v a="$SCANS1" -v b="$SCANS2" 'BEGIN { exit !(b > a) }' \
    || { echo "error: partition-scan counter did not increase ($SCANS1 -> $SCANS2)" >&2; exit 1; }
  curl -fsS "$BASE/jobs" | grep -q '"state":"running"' \
    || { echo "error: /jobs reports no running job" >&2; exit 1; }
  curl -fsS "$BASE/attribution" | grep -q '"diagnosis"' \
    || { echo "error: /attribution carries no diagnosis" >&2; exit 1; }
  # One-second on-demand capture; the busy job batch guarantees CPU samples.
  PROFILE_OUT="$(curl -fsS "$BASE/profile?seconds=1")"
  grep -qE ' [0-9]+$' <<<"$PROFILE_OUT" \
    || { echo "error: /profile returned no folded stacks" >&2;
      echo "$PROFILE_OUT" | head -5 >&2; exit 1; }
  echo "telemetry ok: port $PORT, partition scans $SCANS1 -> $SCANS2"
  kill -INT "$CLI_PID" 2>/dev/null || true
  wait "$CLI_PID" 2>/dev/null || true
  rm -rf "$TELEMETRY_DIR"
else
  echo "warning: curl not found; skipping telemetry smoke" >&2
fi

echo
echo "== serve smoke: daemon submit/poll/result + drain =="
if command -v curl >/dev/null 2>&1; then
  SERVE_LOG="$BUILD_DIR/serve_smoke.log"
  "./$BUILD_DIR/xstream-serve" --graphs=smoke=rmat:12 --port=0 \
    > "$SERVE_LOG" 2>&1 &
  SERVE_PID=$!
  PORT=""
  for _ in $(seq 1 100); do
    PORT="$(sed -n 's#.*serve: listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' \
      "$SERVE_LOG" | head -1)"
    [[ -n "$PORT" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { echo "error: daemon exited before listening" >&2;
      cat "$SERVE_LOG" >&2; exit 1; }
    sleep 0.2
  done
  [[ -n "$PORT" ]] || { echo "error: no listen port in daemon output" >&2;
    cat "$SERVE_LOG" >&2; exit 1; }
  BASE="http://127.0.0.1:$PORT"
  # Submit one BFS query and walk it to completion through the REST surface.
  SUBMIT="$(curl -fsS -X POST "$BASE/v1/jobs" \
    -d '{"graph":"smoke","algo":"bfs","params":{"src":0},"tenant":"ci"}')"
  JOB_ID="$(sed -n 's/.*"id":\([0-9]*\).*/\1/p' <<<"$SUBMIT")"
  [[ -n "$JOB_ID" ]] || { echo "error: submit returned no job id: $SUBMIT" >&2; exit 1; }
  STATE=""
  for _ in $(seq 1 100); do
    STATE="$(curl -fsS "$BASE/v1/jobs/$JOB_ID" | sed -n 's/.*"state":"\([a-z]*\)".*/\1/p')"
    [[ "$STATE" == "done" ]] && break
    sleep 0.2
  done
  [[ "$STATE" == "done" ]] || { echo "error: job stuck in state \"$STATE\"" >&2; exit 1; }
  RESULT="$(curl -fsS "$BASE/v1/jobs/$JOB_ID/result")"
  grep -q '"values":\[' <<<"$RESULT" \
    || { echo "error: result carries no values array" >&2;
      head -c 300 <<<"$RESULT" >&2; exit 1; }
  grep -q '"summary":"[^"]*reached' <<<"$RESULT" \
    || { echo "error: result carries no BFS summary" >&2; exit 1; }
  # The serve counters must account for exactly what we just did.
  METRICS="$(curl -fsS "$BASE/metrics")"
  grep -qE '^xstream_serve_jobs_submitted_total [1-9]' <<<"$METRICS" \
    || { echo "error: /metrics missing serve submit counter" >&2; exit 1; }
  grep -qE '^xstream_serve_jobs_completed_total [1-9]' <<<"$METRICS" \
    || { echo "error: /metrics missing serve completion counter" >&2; exit 1; }
  # SIGTERM must drain and exit 0.
  kill -TERM "$SERVE_PID"
  SERVE_RC=0
  wait "$SERVE_PID" || SERVE_RC=$?
  [[ "$SERVE_RC" -eq 0 ]] || { echo "error: daemon exit code $SERVE_RC after SIGTERM" >&2;
    cat "$SERVE_LOG" >&2; exit 1; }
  grep -q "serve: drained, exiting" "$SERVE_LOG" \
    || { echo "error: daemon did not log a clean drain" >&2; cat "$SERVE_LOG" >&2; exit 1; }
  echo "serve ok: port $PORT, job $JOB_ID done, clean drain"
else
  echo "warning: curl not found; skipping serve smoke" >&2
fi

echo
echo "== no-obs smoke: -DXSTREAM_DISABLE_OBS builds and runs =="
cmake -B "$BUILD_DIR-noobs" -S . -DXSTREAM_DISABLE_OBS=ON > /dev/null
cmake --build "$BUILD_DIR-noobs" -j"$JOBS" --target xstream_cli
# Captured, not piped: under pipefail a `grep -q` that matches early would
# close the pipe and turn the CLI's SIGPIPE death into a gate failure.
NOOBS_OUT="$("./$BUILD_DIR-noobs/xstream_cli" --algorithm=wcc --generate=rmat \
  --scale=10 --http-port=0 --explain 2>&1)"
grep -q "telemetry endpoint unavailable" <<<"$NOOBS_OUT" \
  || { echo "error: no-obs CLI did not warn about the stubbed exporter" >&2;
    echo "$NOOBS_OUT" >&2; exit 1; }
grep -q -- "--explain found no attribution data" <<<"$NOOBS_OUT" \
  || { echo "error: no-obs CLI did not warn about the stubbed attribution" >&2;
    echo "$NOOBS_OUT" >&2; exit 1; }

echo
echo "== obs-overhead smoke benchmark =="
"./$BUILD_DIR/obs_overhead" --ops=2000000 --reps=1 --scale=10 \
  --json=BENCH_obs_overhead.json

echo
echo "== bench diff vs committed baselines =="
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_diff.py --baseline-dir bench/baselines \
    BENCH_fig27.json BENCH_fig28.json BENCH_fig29.json BENCH_fig30.json \
    BENCH_fig31.json BENCH_fig32.json BENCH_obs_overhead.json
else
  echo "warning: python3 not found; skipping bench_diff gate" >&2
fi

echo
echo "== docs: markdown link check =="
scripts/check_links.sh
