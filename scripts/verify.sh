#!/bin/sh
# Verifies the tree the way CI would: the tier-1 suite in the plain
# configuration, then again under AddressSanitizer and UBSan (via the
# TSR_SANITIZE CMake option). Each configuration builds into its own
# directory so incremental plain builds stay untouched.
#
# Usage: scripts/verify.sh [--fast] [--crash-matrix] [--trace] [--chaos]
#        [--profile] [--fleet] [--tsan]
#   --fast          plain configuration only (skips the sanitizer builds).
#   --tsan          run only the ThreadSanitizer gate: every case of the
#                   scheduler, litmus, trace, shadow-memory, SessionPool
#                   and profiler suites built with TSR_SANITIZE=thread,
#                   each repeated until it fails or passes 20 times, so
#                   the lock-free paths are checked on many interleavings
#                   rather than by code review alone.
#   --crash-matrix  run only the CrashRecovery kill-matrix tests (plain +
#                   ASan) — the crash-consistency gate, repeated to shake
#                   out timing-dependent salvage bugs.
#   --trace         run only the observability smoke: Trace* tests, the
#                   trace_timeline example end to end (record, export,
#                   replay, virtual-time diff), and `tsr-demo-dump
#                   timeline` over the recorded demo.
#   --profile       run only the causal-profiler smoke: Profile*/Telemetry
#                   tests, then `tsr-demo-dump profile` over a freshly
#                   recorded demo — run twice and byte-compared, since the
#                   offline analysis must be deterministic.
#   --fleet         run only the multi-session gate: SessionPool tests and
#                   the pooled CrashRecovery kill rows (plain + ASan),
#                   then a fleet_throughput smoke run
#                   whose JSON must report zero desyncs/deadlocks and
#                   replay_identical=true at every rung — i.e. a demo
#                   recorded inside a concurrent fleet is byte-identical
#                   to the solo recording and replays cleanly.
#   --chaos         run only the self-healing gate (plain + ASan): the
#                   seeded demo-mutation sweep and recovery/watchdog/
#                   retry suites at TSR_CHAOS_MUTANTS=120, then a CLI
#                   exit-code sweep over dd-corrupted on-disk demos
#                   (verify/repair must honour the 0/1/2 contract —
#                   never crash, never hang; a v2 stream header must fail
#                   verify with exit 1, naming the stream and version).
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
FAST=0
CRASH=0
TRACE=0
CHAOS=0
PROFILE=0
FLEET=0
TSAN=0
for Arg in "$@"; do
  case "$Arg" in
  --fast) FAST=1 ;;
  --crash-matrix) CRASH=1 ;;
  --trace) TRACE=1 ;;
  --chaos) CHAOS=1 ;;
  --profile) PROFILE=1 ;;
  --fleet) FLEET=1 ;;
  --tsan) TSAN=1 ;;
  *) echo "unknown option: $Arg" >&2; exit 2 ;;
  esac
done

run_config() {
  name="$1"
  sanitize="$2"
  dir="build-verify-$name"
  [ "$name" = "plain" ] && dir="build"
  echo "== $name: configure + build ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS" >/dev/null
  echo "== $name: ctest"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Crash matrix: fork/kill/salvage/replay under both configurations.
# --repeat hits different kill points each iteration.
run_crash_matrix() {
  name="$1"
  sanitize="$2"
  dir="build-verify-$name"
  [ "$name" = "plain" ] && dir="build"
  echo "== $name: crash matrix ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target crash_recovery_test >/dev/null
  ctest --test-dir "$dir" --output-on-failure -R CrashRecovery \
    --repeat until-fail:3
}

# Trace smoke: tests, the example walkthrough, and the demo timeline
# exporter, checking the Chrome JSON actually materialises.
run_trace_smoke() {
  dir="build"
  demo="$(mktemp -d)/demo"
  echo "== trace: configure + build ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target trace_test trace_timeline \
    tsr-demo-dump >/dev/null
  echo "== trace: ctest -R Trace"
  ctest --test-dir "$dir" --output-on-failure -R Trace
  echo "== trace: trace_timeline example ($demo)"
  "$dir/examples/trace_timeline" "$demo"
  echo "== trace: tsr-demo-dump timeline"
  "$dir/tools/tsr-demo-dump" timeline "$demo" "$demo.timeline.json"
  grep -q '"traceEvents"' "$demo.timeline.json" || {
    echo "timeline JSON missing traceEvents" >&2
    exit 1
  }
  for f in "$demo.record.json" "$demo.replay.json"; do
    grep -q '"traceEvents"' "$f" || {
      echo "exported trace $f missing traceEvents" >&2
      exit 1
    }
  done
  rm -rf "$(dirname "$demo")"
}

# Profile smoke: the profiler/telemetry suites, then the offline analysis
# over a real recorded demo. The offline run happens twice and the output
# is byte-compared: `tsr-demo-dump profile` reconstructs the report purely
# from the QUEUE/SIGNAL/SYSCALL streams, so two runs over the same demo
# must agree to the byte.
run_profile_smoke() {
  dir="build"
  scratch="$(mktemp -d)"
  demo="$scratch/demo"
  echo "== profile: configure + build ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="" >/dev/null
  cmake --build "$dir" -j "$JOBS" --target profile_test trace_timeline \
    tsr-demo-dump >/dev/null
  echo "== profile: ctest -R 'Profile|Telemetry'"
  ctest --test-dir "$dir" --output-on-failure -R 'Profile|Telemetry'
  echo "== profile: recording a reference demo ($demo)"
  "$dir/examples/trace_timeline" "$demo" >/dev/null
  echo "== profile: tsr-demo-dump profile (twice, byte-compared)"
  "$dir/tools/tsr-demo-dump" profile "$demo" "$scratch/profile1.json"
  "$dir/tools/tsr-demo-dump" profile "$demo" "$scratch/profile2.json"
  grep -q '"tsr-profile-core-v1"' "$scratch/profile1.json" || {
    echo "offline profile missing tsr-profile-core-v1 schema" >&2
    exit 1
  }
  cmp "$scratch/profile1.json" "$scratch/profile2.json" || {
    echo "offline profile analysis is not deterministic" >&2
    exit 1
  }
  rm -rf "$scratch"
}

# Chaos suite: the seeded mutation sweep plus every recovery, watchdog
# and retry test, with the mutant count cranked up.
run_chaos() {
  name="$1"
  sanitize="$2"
  dir="build-verify-$name"
  [ "$name" = "plain" ] && dir="build"
  echo "== $name: chaos suite ($dir, TSR_CHAOS_MUTANTS=120)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS" \
    --target demo_integrity_test recovery_test >/dev/null
  TSR_CHAOS_MUTANTS=120 ctest --test-dir "$dir" --output-on-failure \
    -R 'DemoChaos|DemoIntegrity|Recovery|Watchdog|Retry'
}

# CLI exit-code sweep: byte-stomp copies of a real on-disk demo and hold
# `tsr-demo-dump verify`/`repair` to their documented 0/1/2 exit codes.
# Any other status (a crash is 128+signal) or a hang fails the gate.
run_chaos_cli() {
  dir="build"
  cmake -B "$dir" -S . -DTSR_SANITIZE="" >/dev/null
  cmake --build "$dir" -j "$JOBS" \
    --target trace_timeline tsr-demo-dump >/dev/null
  scratch="$(mktemp -d)"
  demo="$scratch/demo"
  echo "== chaos: recording a reference demo ($demo)"
  "$dir/examples/trace_timeline" "$demo" >/dev/null
  echo "== chaos: dd-corruption exit-code sweep"
  i=0
  while [ "$i" -lt 24 ]; do
    work="$scratch/mutant-$i"
    cp -r "$demo" "$work"
    for f in "$work"/*; do
      size="$(wc -c < "$f")"
      [ "$size" -gt 0 ] || continue
      off=$(( (i * 7919 + 13) % size ))
      printf '\377' | dd of="$f" bs=1 seek="$off" conv=notrunc 2>/dev/null
      # Every third mutant also loses a tail (torn final write).
      if [ $(( i % 3 )) -eq 0 ] && [ "$size" -gt 8 ]; then
        truncate -s $(( size - i % 7 - 1 )) "$f"
      fi
    done
    for cmd in verify repair; do
      rc=0
      timeout 60 "$dir/tools/tsr-demo-dump" "$cmd" "$work" \
        >/dev/null 2>&1 || rc=$?
      if [ "$rc" -gt 2 ]; then
        echo "chaos: tsr-demo-dump $cmd on mutant $i exited $rc" >&2
        exit 1
      fi
    done
    rm -rf "$work"
    i=$(( i + 1 ))
  done
  # A stream of another format version is corrupt, not unreadable: verify
  # exits 1 and names the stream and the version.
  echo "== chaos: v2 stream header is rejected by name"
  work="$scratch/v2"
  cp -r "$demo" "$work"
  printf '\002' | dd of="$work/QUEUE" bs=1 seek=4 conv=notrunc 2>/dev/null
  rc=0
  out="$("$dir/tools/tsr-demo-dump" verify "$work" 2>&1)" || rc=$?
  if [ "$rc" -ne 1 ] ||
    ! echo "$out" | grep -q 'QUEUE stream is demo format version 2'; then
    echo "chaos: v2 QUEUE stream not rejected by name (exit $rc)" >&2
    exit 1
  fi
  rm -rf "$scratch"
}

# Multi-session gate: the SessionPool suite (concurrent record/replay
# stress, registry drain, fleet-vs-solo bit-identity, shared-directory
# refusal) and the crash-matrix rows that kill a pooled recording
# (SIGKILL, SIGSEGV) in the requested configuration, then a
# fleet_throughput smoke whose JSON must show a fully healthy fleet.
run_fleet_tests() {
  name="$1"
  sanitize="$2"
  dir="build-verify-$name"
  [ "$name" = "plain" ] && dir="build"
  echo "== $name: SessionPool suite + pooled crash rows ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE="$sanitize" >/dev/null
  cmake --build "$dir" -j "$JOBS" \
    --target session_pool_test crash_recovery_test >/dev/null
  ctest --test-dir "$dir" --output-on-failure \
    -R 'SessionPool|CrashRecovery\..*Pool'
}

run_fleet_smoke() {
  dir="build"
  scratch="$(mktemp -d)"
  cmake --build "$dir" -j "$JOBS" --target fleet_throughput >/dev/null
  echo "== fleet: fleet_throughput smoke (reps=2, up to 64 sessions)"
  ( cd "$scratch" && \
    TSR_BENCH_REPS=2 TSR_BENCH_FLEET_MAX=64 \
    "$OLDPWD/$dir/bench/fleet_throughput" )
  json="$scratch/BENCH_fleet_throughput.json"
  grep -q '"replay_identical": true' "$json" || {
    echo "fleet smoke: no rung reported replay_identical=true" >&2
    exit 1
  }
  if grep -q '"replay_identical": false' "$json"; then
    echo "fleet smoke: a fleet-recorded demo was not byte-identical to" \
         "the solo recording (or failed to replay cleanly)" >&2
    exit 1
  fi
  if grep -Eq '"(hard_desyncs|deadlocks)": [1-9]' "$json"; then
    echo "fleet smoke: fleet sessions desynced or deadlocked" >&2
    exit 1
  fi
  rm -rf "$scratch"
}

# TSan gate: every case of the suites that drive the lock-free paths —
# the tick commit pipeline and the thread table it reads (scheduler
# protocol, litmus schedules), the shadow memory, the trace rings,
# concurrent sessions and the profiler — under ThreadSanitizer. A pass
# judges one interleaving, so each case repeats until it fails or passes
# 20 times. Var<T> accessors are exempt (their races are the program's,
# reported by tsr's own detector), so any report is a runtime bug.
# The name regex lists every suite of the six binaries; ctest names
# parameterised suites with their prefix (Backends/, Suite/).
TSAN_SUITES='^(Sched[A-Za-z]*|Strategy|TickCommit|LitmusSuite|Suite/LitmusProperty|Metrics|Trace[A-Za-z]*|Backends/ShadowTableTest|RaceStress|ShadowBackendEquivalence|SessionPool|Profile[A-Za-z]*|Telemetry)\.'
run_tsan() {
  dir="build-verify-tsan"
  echo "== tsan: configure + build ($dir)"
  cmake -B "$dir" -S . -DTSR_SANITIZE=thread >/dev/null
  cmake --build "$dir" -j "$JOBS" --target sched_test litmus_property_test \
    trace_test race_stress_test session_pool_test profile_test >/dev/null
  echo "== tsan: ctest --repeat until-fail:20 (nproc = $JOBS)"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
    --repeat until-fail:20 -R "$TSAN_SUITES"
}

if [ "$TSAN" -eq 1 ]; then
  run_tsan
  echo "verify: tsan gate passed"
  exit 0
fi

if [ "$FLEET" -eq 1 ]; then
  run_fleet_tests plain ""
  [ "$FAST" -eq 0 ] && run_fleet_tests asan address
  run_fleet_smoke
  echo "verify: fleet gate passed"
  exit 0
fi

if [ "$CHAOS" -eq 1 ]; then
  run_chaos plain ""
  [ "$FAST" -eq 0 ] && run_chaos asan address
  run_chaos_cli
  echo "verify: chaos suite passed"
  exit 0
fi

if [ "$TRACE" -eq 1 ]; then
  run_trace_smoke
  echo "verify: trace smoke passed"
  exit 0
fi

if [ "$PROFILE" -eq 1 ]; then
  run_profile_smoke
  echo "verify: profile smoke passed"
  exit 0
fi

if [ "$CRASH" -eq 1 ]; then
  run_crash_matrix plain ""
  [ "$FAST" -eq 0 ] && run_crash_matrix asan address
  echo "verify: crash matrix passed"
  exit 0
fi

run_config plain ""
if [ "$FAST" -eq 0 ]; then
  run_config asan address
  run_config ubsan undefined
fi
echo "verify: all configurations passed"
