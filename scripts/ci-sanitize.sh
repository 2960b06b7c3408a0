#!/bin/sh
# CI job: build the whole tree with AddressSanitizer + UBSan and run the
# complete test suite under it. Any sanitizer report aborts the run
# (-fno-sanitize-recover=all) and fails the job, and so does any compiler
# warning in that build (-Werror on top of -Wall -Wextra). The concurrent
# tests also run under ThreadSanitizer, in a build of their own.
#
# Usage: scripts/ci-sanitize.sh [build-dir]
set -eu

BUILD_DIR=${1:-build-sanitize}
SRC_DIR=$(dirname "$0")/..

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DPLUTOPP_SANITIZE=ON \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD_DIR" -j "$(nproc)"

# abort_on_error makes ASan failures hard test failures under ctest;
# detect_leaks covers the dlopen/JIT paths too, the bench smoke runs (the
# forced-schedule baselines) included.
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The sanitizer build above is RelWithDebInfo, so NDEBUG strips every
# assert. Build the exact core (BigInt, the lexmin tableau, FM projection,
# Farkas compression) once more in Debug and run its tests with the
# asserts on; deps_test and codegen_test put the tableaux' asserts (the
# int64 one's included) through real dependence and codegen systems,
# schedule_scale_test puts the warm band tableaux' lex-positivity assert
# through the Kernels.h kernels and the StressGen programs, and fuzz_test
# puts the code generator's sharing checks (a leaf's iterator bounds equal
# its statement's; a statement joining an equal projection's pieces meets
# no other piece) through 40 random programs, with separation on and off.
DEBUG_DIR="$BUILD_DIR-debug"
DEBUG_TESTS="support_test ilp_test poly_test transform_test deps_test \
  codegen_test schedule_scale_test fuzz_test"
cmake -B "$DEBUG_DIR" -S "$SRC_DIR" -DCMAKE_BUILD_TYPE=Debug
cmake --build "$DEBUG_DIR" -j "$(nproc)" --target $DEBUG_TESTS
for T in $DEBUG_TESTS; do
  "$DEBUG_DIR/tests/$T" --gtest_brief=1
done
echo "ci-sanitize: Debug exact-core tests OK"

# ThreadSanitizer over the tests that run compiles concurrently: batch
# jobs, plutod workers and their sandboxes. Each compile runs on its
# calling thread, so these runs need no pinned OpenMP thread count; the
# variable is unset on purpose. TSan exits non-zero after any report.
TSAN_DIR="$BUILD_DIR-tsan"
TSAN_TESTS="deps_test service_test serve_test robustness_test"
cmake -B "$TSAN_DIR" -S "$SRC_DIR" -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" --target $TSAN_TESTS
for T in $TSAN_TESTS; do
  (unset OMP_NUM_THREADS; "$TSAN_DIR/tests/$T" --gtest_brief=1)
done
echo "ci-sanitize: ThreadSanitizer tests OK"

# Smoke-run the plutopp CLI under the same sanitizers: full pipeline with
# diagnostics on (exercises the observe counters/trace allocation paths)
# and off, plus the error path. Output is discarded; a sanitizer report or
# unexpected exit status fails the job.
CLI="$BUILD_DIR/tools/plutopp"
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  "$CLI" --tile --parallel --report=json "$SRC_DIR/examples/matmul.c" \
    > /dev/null 2> /dev/null
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  "$CLI" --no-tile --no-vectorize --report "$SRC_DIR/examples/jacobi1d.c" \
    > /dev/null 2> /dev/null
if ASAN_OPTIONS=abort_on_error=1 "$CLI" /nonexistent.c > /dev/null 2>&1; then
  echo "ci-sanitize: plutopp accepted a nonexistent input" >&2
  exit 1
fi
if ASAN_OPTIONS=abort_on_error=1 "$CLI" --tile-size=0 \
    "$SRC_DIR/examples/matmul.c" > /dev/null 2>&1; then
  echo "ci-sanitize: plutopp accepted --tile-size=0" >&2
  exit 1
fi

# Service-layer smoke run: the whole examples/ corpus as a concurrent
# batch (--jobs=4), twice against one persistent --cache-dir. The first
# run exercises the thread pool + cold compiles + disk writes, the second
# the concurrent disk/memory hit paths; both run under ASan+UBSan, and the
# two runs' outputs must be byte-identical (the cache determinism
# contract).
CACHE_DIR="$BUILD_DIR/ci-cache"
OUT1="$BUILD_DIR/ci-out1"
OUT2="$BUILD_DIR/ci-out2"
rm -rf "$CACHE_DIR" "$OUT1" "$OUT2"
for OUT in "$OUT1" "$OUT2"; do
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    "$CLI" --jobs=4 --cache-dir="$CACHE_DIR" --out-dir="$OUT" \
      "$SRC_DIR"/examples/*.c > /dev/null
done
if ! diff -r "$OUT1" "$OUT2" > /dev/null; then
  echo "ci-sanitize: warm-cache output differs from cold compile" >&2
  exit 1
fi
rm -rf "$CACHE_DIR" "$OUT1" "$OUT2"
echo "ci-sanitize: CLI + service smoke-run OK"

# Frontend diagnostics smoke run: every file of the malformed-input corpus
# must be rejected with exit code 2 (the bad-input class) under the
# sanitizers - multi-error recovery walks the recovery/synchronize paths
# that ASan is most likely to catch out of bounds.
for BAD in "$SRC_DIR"/tests/corpus/*.c; do
  if ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
     UBSAN_OPTIONS=print_stacktrace=1 \
       "$CLI" "$BAD" > /dev/null 2>&1; then
    echo "ci-sanitize: plutopp accepted malformed input $BAD" >&2
    exit 1
  fi
  STATUS=0
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    "$CLI" "$BAD" > /dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "ci-sanitize: expected exit 2 for $BAD, got $STATUS" >&2
    exit 1
  fi
done
echo "ci-sanitize: malformed-input corpus rejected with exit 2 OK"

# Reduction kernel smoke run: the dot product must come back parallel
# with a reduction clause on its pragma.
RED_OUT="$BUILD_DIR/ci-dotprod.c"
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  "$CLI" "$SRC_DIR/examples/dotprod.c" > "$RED_OUT" 2> /dev/null
if ! grep -q 'pragma omp parallel for' "$RED_OUT" ||
   ! grep -q 'reduction(+:s)' "$RED_OUT"; then
  echo "ci-sanitize: dot product lost its reduction pragma" >&2
  exit 1
fi
rm -f "$RED_OUT"
echo "ci-sanitize: reduction parallelization OK"

# Serving-layer soak: plutod under the sanitizers, ~55 mixed requests from
# plutoctl (good kernels - twice, so the second pass is all cache hits -
# plus the whole malformed corpus and ping/metrics probes), then a metrics
# scrape and a SIGTERM drain. Fails on any sanitizer report, a dropped
# request (daemon exits non-zero when accepted != completed), or a metrics
# document that disagrees with the traffic.
PLUTOD="$BUILD_DIR/tools/plutod"
PLUTOCTL="$BUILD_DIR/tools/plutoctl"
SOCK="$BUILD_DIR/ci-plutod.sock"
DLOG="$BUILD_DIR/ci-plutod.log"
rm -f "$SOCK" "$DLOG"
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
  "$PLUTOD" --socket="$SOCK" --workers=4 --quiet \
    2> "$DLOG" &
DAEMON_PID=$!
# Wait for the socket to answer a ping.
TRIES=0
until "$PLUTOCTL" --socket="$SOCK" --ping > /dev/null 2>&1; do
  TRIES=$((TRIES + 1))
  if [ "$TRIES" -ge 50 ]; then
    echo "ci-sanitize: plutod never answered a ping" >&2
    cat "$DLOG" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
  sleep 0.1
done

# Good traffic, 6 passes over examples/ (36 compile requests): the first
# pass is cold, the rest pure cache hits, and from pass 3 on the passes
# run concurrently to exercise the worker pool + shared cache under
# racing clients. plutoctl output must match plutopp's byte for byte.
SERVED="$BUILD_DIR/ci-plutod-served.c"
LOCAL="$BUILD_DIR/ci-plutod-local.c"
"$CLI" "$SRC_DIR"/examples/*.c > "$LOCAL" 2> /dev/null
for PASS in cold warm; do
  "$PLUTOCTL" --socket="$SOCK" "$SRC_DIR"/examples/*.c > "$SERVED"
  if ! diff "$SERVED" "$LOCAL" > /dev/null; then
    echo "ci-sanitize: plutoctl ($PASS) output differs from plutopp" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
done
CTL_PIDS=""
for I in 1 2 3 4; do
  "$PLUTOCTL" --socket="$SOCK" "$SRC_DIR"/examples/*.c \
    > "$SERVED.$I" &
  CTL_PIDS="$CTL_PIDS $!"
done
for PID in $CTL_PIDS; do
  # The daemon stays up as its own background job; wait only for clients.
  wait "$PID"
done
for I in 1 2 3 4; do
  if ! diff "$SERVED.$I" "$LOCAL" > /dev/null; then
    echo "ci-sanitize: concurrent plutoctl pass $I differs from plutopp" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
  rm -f "$SERVED.$I"
done
# One non-default flag set through both clients: they parse the same
# option table, so the served and the local code must match byte for byte.
SMALL="$SRC_DIR/examples/matmul.c $SRC_DIR/examples/jacobi1d.c $SRC_DIR/examples/seidel2d.c"
FLAGS="--l2tile --wavefront-degrees=2 --no-vectorize --timeout-ms=60000"
"$CLI" $FLAGS $SMALL > "$LOCAL" 2> /dev/null
"$PLUTOCTL" --socket="$SOCK" $FLAGS $SMALL > "$SERVED"
if ! diff "$SERVED" "$LOCAL" > /dev/null; then
  echo "ci-sanitize: plutoctl $FLAGS output differs from plutopp" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
# An option the field cannot hold is a bad request (exit 2), refused by
# the client before it is sent.
STATUS=0
"$PLUTOCTL" --socket="$SOCK" --tile-size=-1 "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 2 ]; then
  echo "ci-sanitize: plutoctl --tile-size=-1 gave exit $STATUS, not 2" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
# Bad traffic (twice - the failure path must not poison the cache): every
# malformed-corpus file must come back source-error (client exit 2)
# without hurting the daemon.
for BAD in "$SRC_DIR"/tests/corpus/*.c "$SRC_DIR"/tests/corpus/*.c; do
  STATUS=0
  "$PLUTOCTL" --socket="$SOCK" "$BAD" > /dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "ci-sanitize: plutod gave exit $STATUS for malformed $BAD" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
done
# Metrics must balance: accepted == completed, and the document is the
# versioned report schema.
METRICS="$BUILD_DIR/ci-plutod-metrics.json"
"$PLUTOCTL" --socket="$SOCK" --metrics > "$METRICS"
for NEEDLE in '"schema":2' '"server"' '"cache"' '"latency_ms"'; do
  if ! grep -q "$NEEDLE" "$METRICS"; then
    echo "ci-sanitize: plutod metrics missing $NEEDLE" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
done
ACCEPTED=$(sed -n 's/.*"requests_accepted":\([0-9]*\).*/\1/p' "$METRICS")
COMPLETED=$(sed -n 's/.*"requests_completed":\([0-9]*\).*/\1/p' "$METRICS")
if [ -z "$ACCEPTED" ] || [ "$ACCEPTED" != "$COMPLETED" ]; then
  echo "ci-sanitize: plutod dropped requests ($ACCEPTED accepted," \
       "$COMPLETED completed)" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
# Graceful drain: SIGTERM; the daemon exits 0 only when every accepted
# request was answered (and a sanitizer report would have aborted it).
kill -TERM "$DAEMON_PID"
if ! wait "$DAEMON_PID"; then
  echo "ci-sanitize: plutod drain failed" >&2
  cat "$DLOG" >&2
  exit 1
fi
rm -f "$SOCK" "$DLOG" "$SERVED" "$LOCAL" "$METRICS"
echo "ci-sanitize: plutod sanitizer soak OK"

# Fault-injection soak: every FaultInjector site armed at least once at
# process level (the robustness_test suite under ctest above already
# exercises each site's failure classification in-process; this part
# checks whole-process degraded behaviour under the sanitizers). The
# rule being checked throughout: lose the optimization, never the
# compile - and never the daemon.
FD_CACHE="$BUILD_DIR/ci-fault-cache"
FD_OUT="$BUILD_DIR/ci-fault-out.c"
FD_REF="$BUILD_DIR/ci-fault-ref.c"
rm -rf "$FD_CACHE" "$FD_OUT" "$FD_REF"

# cache.disk_write: every disk write fails -> the compile still succeeds
# (memory tier only), the counter reports it, and no torn entry lands on
# disk.
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
PLUTOPP_FAULT='cache.disk_write:*' \
  "$CLI" --cache-dir="$FD_CACHE" --report=json --out="$FD_OUT" \
    "$SRC_DIR/examples/matmul.c" > "$BUILD_DIR/ci-fault-report.json" \
    2> /dev/null
if ! grep -q '"cache_write_errors": *[1-9]' "$BUILD_DIR/ci-fault-report.json"; then
  echo "ci-sanitize: cache.disk_write fault left no cache_write_errors" >&2
  exit 1
fi
if [ -n "$(find "$FD_CACHE" -name '*.c' 2> /dev/null)" ]; then
  echo "ci-sanitize: cache.disk_write fault still persisted an entry" >&2
  exit 1
fi

# cache.disk_read: prime the disk cache cleanly, then fail every disk
# read - the entry is just a miss, the compile runs cold, and the output
# stays byte-identical.
"$CLI" --cache-dir="$FD_CACHE" "$SRC_DIR/examples/matmul.c" > "$FD_REF" \
  2> /dev/null
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
PLUTOPP_FAULT='cache.disk_read:*' \
  "$CLI" --cache-dir="$FD_CACHE" "$SRC_DIR/examples/matmul.c" > "$FD_OUT" \
    2> /dev/null
if ! diff "$FD_OUT" "$FD_REF" > /dev/null; then
  echo "ci-sanitize: cache.disk_read fault changed the output" >&2
  exit 1
fi

# jit.compile / bigint.alloc: armed through a full CLI compile - neither
# fires on a well-behaved kernel (the JIT is not on the plutopp path and
# matmul needs no big limbs), and the run must stay byte-identical with
# the sites armed. Their actual failure paths (retry-once, bad_alloc ->
# resource-exhausted) are pinned by tests/robustness_test.cpp.
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
PLUTOPP_FAULT='jit.compile:1,bigint.alloc:1' \
  "$CLI" "$SRC_DIR/examples/matmul.c" > "$FD_OUT" 2> /dev/null
if ! diff "$FD_OUT" "$FD_REF" > /dev/null; then
  echo "ci-sanitize: armed-but-idle fault sites changed the output" >&2
  exit 1
fi
rm -rf "$FD_CACHE" "$FD_OUT" "$FD_REF" "$BUILD_DIR/ci-fault-report.json"
echo "ci-sanitize: CLI fault-injection soak OK"

# Resource-bomb corpus: pathological inputs must exit 4 (resource
# exhausted) under a deterministic work budget, promptly, instead of
# spinning the sanitizer build.
for BOMB_SPEC in deep_nest.c:200000 wide_coupled.c:20000; do
  BOMB="$SRC_DIR/tests/corpus/bombs/${BOMB_SPEC%%:*}"
  WORK="${BOMB_SPEC##*:}"
  STATUS=0
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    "$CLI" --max-work="$WORK" "$BOMB" > /dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 4 ]; then
    echo "ci-sanitize: expected exit 4 for bomb $BOMB, got $STATUS" >&2
    exit 1
  fi
done
echo "ci-sanitize: resource-bomb budget regressions OK"

# plutoctl connection retry: a socket nobody serves must fail cleanly
# after the bounded backoff, not hang.
if "$PLUTOCTL" --socket="$BUILD_DIR/ci-no-such.sock" --retries=2 --ping \
    > /dev/null 2>&1; then
  echo "ci-sanitize: plutoctl connected to a nonexistent socket" >&2
  exit 1
fi

# Helper for the daemon soaks below: start plutod with $PLUTOD_ARGS and
# $PLUTOD_FAULT, wait for a ping, run the commands, then drain and check
# the zero-dropped-jobs invariant (plutod exits non-zero when accepted
# != completed).
start_plutod() {
  rm -f "$SOCK"
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
  PLUTOPP_FAULT="$1" \
    "$PLUTOD" --socket="$SOCK" --quiet $2 2> "$DLOG" &
  DAEMON_PID=$!
  TRIES=0
  until "$PLUTOCTL" --socket="$SOCK" --retries=1 --ping > /dev/null 2>&1; do
    TRIES=$((TRIES + 1))
    if [ "$TRIES" -ge 100 ]; then
      echo "ci-sanitize: plutod ($2) never answered a ping" >&2
      cat "$DLOG" >&2
      kill "$DAEMON_PID" 2> /dev/null || true
      exit 1
    fi
    sleep 0.1
  done
}
drain_plutod() {
  kill -TERM "$DAEMON_PID"
  if ! wait "$DAEMON_PID"; then
    echo "ci-sanitize: plutod ($1) dropped requests on drain" >&2
    cat "$DLOG" >&2
    exit 1
  fi
}

# serve.socket_write: the first response write fails (dead-client path);
# that connection is closed, the next connection is unaffected, and the
# drain still balances.
start_plutod 'serve.socket_write:1' "--workers=2"
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || true
STATUS=0
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "ci-sanitize: connection after socket_write fault got $STATUS" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
drain_plutod "serve.socket_write"

# sandbox.spawn: the fork fails once -> one structured internal error
# (client exit 1), full recovery on the next request.
start_plutod 'sandbox.spawn:1' "--workers=1 --isolate"
STATUS=0
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 1 ]; then
  echo "ci-sanitize: sandbox.spawn fault gave exit $STATUS, want 1" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
STATUS=0
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 0 ]; then
  echo "ci-sanitize: compile after spawn fault gave exit $STATUS" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
drain_plutod "sandbox.spawn"

# sandbox.abort: the child crashes compiling the first request (client
# sees a structured internal error, exit 1), and the repeat of the same
# input is refused by the circuit breaker without spending another
# child. Zero dropped jobs throughout.
start_plutod 'sandbox.abort:1' "--workers=1 --isolate --breaker-ttl-ms=60000"
for PASS in crash breaker; do
  STATUS=0
  "$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
    > /dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 1 ]; then
    echo "ci-sanitize: sandbox.abort $PASS pass gave exit $STATUS" >&2
    kill "$DAEMON_PID" 2> /dev/null || true
    exit 1
  fi
done
"$PLUTOCTL" --socket="$SOCK" --metrics > "$METRICS"
if ! grep -q '"breaker_hits": *[1-9]' "$METRICS"; then
  echo "ci-sanitize: no breaker_hits after a poisoned repeat" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
drain_plutod "sandbox.abort"

# sandbox.hang: the child sleeps forever; the parent watchdog kills it
# at the wall deadline and answers resource-exhausted (client exit 4).
start_plutod 'sandbox.hang:1' "--workers=1 --isolate --compile-timeout-ms=2000"
STATUS=0
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR/examples/matmul.c" \
  > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 4 ]; then
  echo "ci-sanitize: sandbox.hang gave exit $STATUS, want 4" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
drain_plutod "sandbox.hang"

# Isolate soak without faults: served output is byte-identical to the
# local CLI, a kill -9'd sandbox child is replaced without losing a
# single job, per-request budgets answer exit 4 over the wire, and the
# metrics balance. One worker, so the killed child's worker is
# guaranteed to serve the follow-up traffic (and hence to respawn).
start_plutod '' "--workers=1 --isolate"
"$CLI" "$SRC_DIR"/examples/*.c > "$LOCAL" 2> /dev/null
"$PLUTOCTL" --socket="$SOCK" "$SRC_DIR"/examples/*.c > "$SERVED"
if ! diff "$SERVED" "$LOCAL" > /dev/null; then
  echo "ci-sanitize: isolate-mode output differs from plutopp" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
# Murder one warm sandbox child out from under the daemon.
CHILD=$(pgrep -P "$DAEMON_PID" | head -n 1 || true)
if [ -z "$CHILD" ]; then
  echo "ci-sanitize: isolate daemon has no sandbox children to kill" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
kill -9 "$CHILD"
sleep 0.2
# Post-kill traffic must be cold (a warm key is a parent-cache hit and
# never reaches a sandbox): a different tile size is a different options
# fingerprint, hence all-new cache keys for every worker.
"$CLI" --tile-size=100 "$SRC_DIR"/examples/*.c > "$LOCAL" 2> /dev/null
"$PLUTOCTL" --socket="$SOCK" --tile-size=100 "$SRC_DIR"/examples/*.c \
  > "$SERVED"
if ! diff "$SERVED" "$LOCAL" > /dev/null; then
  echo "ci-sanitize: isolate output differs after killing a child" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
STATUS=0
"$PLUTOCTL" --socket="$SOCK" --max-work=200000 \
  "$SRC_DIR/tests/corpus/bombs/deep_nest.c" > /dev/null 2>&1 || STATUS=$?
if [ "$STATUS" -ne 4 ]; then
  echo "ci-sanitize: sandboxed bomb gave exit $STATUS, want 4" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
"$PLUTOCTL" --socket="$SOCK" --metrics > "$METRICS"
ACCEPTED=$(sed -n 's/.*"requests_accepted":\([0-9]*\).*/\1/p' "$METRICS")
COMPLETED=$(sed -n 's/.*"requests_completed":\([0-9]*\).*/\1/p' "$METRICS")
if [ -z "$ACCEPTED" ] || [ "$ACCEPTED" != "$COMPLETED" ]; then
  echo "ci-sanitize: isolate plutod dropped requests ($ACCEPTED accepted," \
       "$COMPLETED completed)" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
if ! grep -q '"sandbox_restarts": *[1-9]' "$METRICS"; then
  echo "ci-sanitize: no sandbox_restarts after kill -9" >&2
  kill "$DAEMON_PID" 2> /dev/null || true
  exit 1
fi
drain_plutod "isolate"
rm -f "$SOCK" "$DLOG" "$SERVED" "$LOCAL" "$METRICS"
echo "ci-sanitize: plutod fault-isolation soak OK"

# Autotuner smoke-run: a tiny measured search on matmul and seidel2d under
# the sanitizers. The trace must carry the versioned schema with fewer
# variants measured than enumerated, and the winner's emitted C must be a
# valid OpenMP translation unit. n/reps are small: this checks plumbing,
# not performance.
TUNE_SPEC='tile=0,16;l2=0;wave=0,1;n=16;reps=2;warmup=1;max-measure=3'
TUNE_TRACE="$BUILD_DIR/ci-tune-trace.json"
TUNE_OUT="$BUILD_DIR/ci-tune-winner.c"
for KERNEL in matmul.c seidel2d.c; do
  ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=print_stacktrace=1 \
    "$CLI" --tune="$TUNE_SPEC" --tune-trace="$TUNE_TRACE" \
      "$SRC_DIR/examples/$KERNEL" > "$TUNE_OUT" 2> /dev/null
  if ! grep -q '"tune_schema": 1' "$TUNE_TRACE"; then
    echo "ci-sanitize: tune trace for $KERNEL lacks the schema marker" >&2
    exit 1
  fi
  ENUMERATED=$(sed -n 's/.*"enumerated": \([0-9]*\).*/\1/p' "$TUNE_TRACE")
  MEASURED=$(sed -n 's/.*"measured": \([0-9]*\).*/\1/p' "$TUNE_TRACE" | head -n 1)
  if [ -z "$ENUMERATED" ] || [ -z "$MEASURED" ] ||
     [ "$MEASURED" -ge "$ENUMERATED" ]; then
    echo "ci-sanitize: tune on $KERNEL measured $MEASURED of $ENUMERATED" \
         "- pruning did not happen" >&2
    exit 1
  fi
  if ! "${CC:-cc}" -fsyntax-only -fopenmp "$TUNE_OUT"; then
    echo "ci-sanitize: tune winner for $KERNEL does not compile" >&2
    exit 1
  fi
done

# Degraded mode: every JIT compile fails. The tuner must skip the broken
# variants (they land in "errors", never crash the search) and still
# return a compiling winner from the statically-ranked survivors.
ASAN_OPTIONS=abort_on_error=1:detect_leaks=1 \
UBSAN_OPTIONS=print_stacktrace=1 \
PLUTOPP_FAULT='jit.compile:*' \
  "$CLI" --tune="$TUNE_SPEC" --tune-trace="$TUNE_TRACE" \
    "$SRC_DIR/examples/matmul.c" > "$TUNE_OUT" 2> /dev/null
if ! grep -q '"tune_schema": 1' "$TUNE_TRACE" ||
   ! grep -q '"errors": [1-9]' "$TUNE_TRACE"; then
  echo "ci-sanitize: jit.compile faults did not degrade to skipped" \
       "variants" >&2
  exit 1
fi
if ! "${CC:-cc}" -fsyntax-only -fopenmp "$TUNE_OUT"; then
  echo "ci-sanitize: degraded tune winner does not compile" >&2
  exit 1
fi
rm -f "$TUNE_TRACE" "$TUNE_OUT"
echo "ci-sanitize: autotuner smoke-run OK"
