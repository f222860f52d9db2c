#!/usr/bin/env bash
#===- scripts/check.sh - Build and test, then repeat under sanitizers ----===#
#
# Part of the ctp project: a reproduction of "Context Transformations for
# Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
#
# Tier-1 gate: a normal RelWithDebInfo build, the fast client-facing test
# subset (ctest -L clients) for quick signal, a contextless-flavour smoke
# (ctest -L flavours plus ctp-verify certifying the cutshortcut and unify
# rungs on two presets), then the full ctest run,
# followed by the same suite under AddressSanitizer +
# UndefinedBehaviorSanitizer (-DCTP_SANITIZE=address,undefined). All must
# pass. With --tidy, also runs clang-tidy via scripts/tidy.sh (skipped
# gracefully when clang-tidy is not installed).
#
# Usage: scripts/check.sh [--no-sanitize] [--tidy] [--crashloop] [--tsan]
#                          [--batch] [--serve] [--delta] [--asan] [--oom]
#
# --crashloop additionally runs the out-of-process kill/resume loop
# (scripts/crashloop.sh) against the fresh build — the same loop ctest
# runs under the "robustness" label.
#
# --batch additionally smokes the batch supervisor: a ctp-batch --chaos
# run over 3 presets x 2 configs with a tight chaos budget must
# terminate with a complete report and exit 0.
#
# --serve additionally smokes the resident analysis service: the serve
# unit suite plus the supervised kill/recover + overload drill through
# the real ctp-serve binary (ctest -L serve, which includes
# crashloop.sh --serve).
#
# --delta additionally smokes transactional incremental re-solve: the
# incremental unit suite plus the SIGKILL-at-every-commit-stage recovery
# drill through the real ctp-serve binary (ctest -L incremental, which
# includes crashloop.sh --delta).
#
# --asan runs a targeted address+undefined matrix in its own build
# directory (build-asan): the engine-semantics core (which includes the
# checkpoint-resume and incremental suites, so the solver's snapshot
# replay and incremental seeding run instrumented), the
# fixpoint-certification suite, the contextless-flavour suite, and the
# memory-governor suite (ctest -L 'core|verify|flavours|memory' — the
# unify union-find's pointer juggling and the governor's new-handler
# paths included), so the slow memory-error hunt concentrates on the
# solver paths the verifier exercises hardest. Independent of the
# default full-asan pass, which --no-sanitize turns off.
#
# --oom additionally runs the memory-governance drills: the governor
# unit suite (ctest -L memory), a CTP_MEM_FAULT simulated-pressure smoke
# through the real ctp-analyze binary (exit 3, MemoryBudget on rung 0),
# and the RLIMIT_AS drill (scripts/crashloop.sh --oom) proving the
# governed binary degrades with byte-identical certified results where
# the ungoverned one SIGABRTs. The rlimit drill only runs against the
# normal build; sanitizer builds cover the governor through the
# simulation paths (ASan's address-space reservations are incompatible
# with a meaningful RLIMIT_AS).
#
# --tsan additionally builds with ThreadSanitizer (-DCTP_SANITIZE=thread)
# and smokes the concurrency-adjacent suites under it: the resource
# governor (watchdog thread + cancellation flag), the crash-safety
# snapshot/resume tests, the supervisor/heartbeat suite (concurrent
# beat writers race budget polls), the serve unit suite (reader/worker
# pools share the admission queue), the incremental-transaction suite
# (a committing writer races query readers on the shared state lock),
# the contextless-flavour suite (the unify union-find under concurrent
# budget polls), and one supervised chaos run through ctp-batch. TSAN
# must stay quiet throughout.
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE=1
TIDY=0
CRASHLOOP=0
TSAN=0
BATCH=0
SERVE=0
DELTA=0
ASAN=0
OOM=0
for ARG in "$@"; do
  case "$ARG" in
    --no-sanitize) SANITIZE=0 ;;
    --tidy) TIDY=1 ;;
    --crashloop) CRASHLOOP=1 ;;
    --tsan) TSAN=1 ;;
    --batch) BATCH=1 ;;
    --serve) SERVE=1 ;;
    --delta) DELTA=1 ;;
    --asan) ASAN=1 ;;
    --oom) OOM=1 ;;
    *)
      echo "usage: scripts/check.sh [--no-sanitize] [--tidy] [--crashloop]" \
           "[--tsan] [--batch] [--serve] [--delta] [--asan] [--oom]" >&2
      exit 2
      ;;
  esac
done

echo "== normal build =="
cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
cmake --build build -j"$(nproc)"
echo "== client checker subset (ctest -L clients) =="
ctest --test-dir build -j"$(nproc)" -L clients --output-on-failure
echo "== provenance recorder subset (ctest -L provenance) =="
ctest --test-dir build -j"$(nproc)" -L provenance --output-on-failure
echo "== fixpoint certification smoke (ctp-verify, one preset) =="
build/tools/ctp-verify --preset luindex \
  --snapshot-dir build/verify-smoke-snap >/dev/null
echo "== contextless flavour smoke (ctest -L flavours + certification) =="
ctest --test-dir build -j"$(nproc)" -L flavours --output-on-failure
for PRESET in antlr luindex; do
  for CFG in cutshortcut unify; do
    build/tools/ctp-verify --preset "$PRESET" --config "$CFG" \
      --checks closure,support,oracle >/dev/null
  done
done
echo "== full suite =="
ctest --test-dir build -j"$(nproc)" --output-on-failure

if [[ "$CRASHLOOP" == 1 ]]; then
  echo "== crash/resume loop =="
  CTP_ANALYZE=build/tools/ctp-analyze scripts/crashloop.sh
fi

if [[ "$BATCH" == 1 ]]; then
  echo "== batch supervisor chaos smoke =="
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/ctp_batch_smoke.XXXXXX")"
  build/tools/ctp-batch --work "$WORK" \
    --presets antlr,luindex,pmd --configs 2-object+H,insensitive \
    --analyze build/tools/ctp-analyze --checkpoint-every 500 \
    --chaos --seed 11 --chaos-kills 3
  rm -rf "$WORK"
fi

if [[ "$SERVE" == 1 ]]; then
  echo "== resident service smoke (ctest -L serve) =="
  ctest --test-dir build -j"$(nproc)" -L serve --output-on-failure
fi

if [[ "$DELTA" == 1 ]]; then
  echo "== transactional delta smoke (ctest -L incremental) =="
  ctest --test-dir build -j"$(nproc)" -L incremental --output-on-failure
fi

if [[ "$OOM" == 1 ]]; then
  echo "== memory-governor unit suite (ctest -L memory) =="
  ctest --test-dir build -j"$(nproc)" -L memory --output-on-failure
  echo "== simulated-pressure smoke (CTP_MEM_FAULT) =="
  # Sustained simulated pressure must degrade the precise run to exit 3
  # with a MemoryBudget trip on rung 0 — no rlimit involved, so this
  # same smoke is safe under any sanitizer build.
  SMOKE_OUT="$(mktemp "${TMPDIR:-/tmp}/ctp_memfault.XXXXXX")"
  set +e
  CTP_MEM_FAULT='soft@50x1073741824' build/tools/ctp-analyze \
    --preset antlr --config 2-object+H --fallback > "$SMOKE_OUT" 2>&1
  CODE=$?
  set -e
  if [[ "$CODE" -ne 3 ]] || ! grep -q MemoryBudget "$SMOKE_OUT"; then
    echo "FAIL: CTP_MEM_FAULT smoke exited $CODE without a MemoryBudget" \
         "trip" >&2
    cat "$SMOKE_OUT" >&2
    exit 1
  fi
  rm -f "$SMOKE_OUT"
  echo "== supervised batch under sustained memory faults =="
  # Children inherit CTP_MEM_FAULT; the supervisor's retry ladder must
  # ride the MemoryBudget trips down to a degraded row instead of
  # triaging rlimit-mem or failing the job.
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/ctp_oom_batch.XXXXXX")"
  set +e
  CTP_MEM_FAULT='soft@2000x1073741824' build/tools/ctp-batch \
    --work "$WORK" --presets antlr --configs 2-object+H \
    --analyze build/tools/ctp-analyze --mem-limit-mb 512 \
    > "$WORK/out.txt" 2>&1
  CODE=$?
  set -e
  if [[ "$CODE" -ne 3 ]] || ! grep -q "completed-degraded" "$WORK/out.txt"; then
    echo "FAIL: memory-faulted batch exited $CODE without a degraded" \
         "row" >&2
    cat "$WORK/out.txt" >&2
    exit 1
  fi
  rm -rf "$WORK"
  echo "== RLIMIT_AS drill (crashloop.sh --oom) =="
  CTP_ANALYZE=build/tools/ctp-analyze CTP_VERIFY=build/tools/ctp-verify \
    scripts/crashloop.sh --oom
fi

if [[ "$TIDY" == 1 ]]; then
  echo "== clang-tidy =="
  scripts/tidy.sh build
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== ThreadSanitizer smoke (governor + checkpoint/resume + serve) =="
  cmake -B build-tsan -S . -DCTP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j"$(nproc)" \
    --target governor_test snapshot_test resume_test supervisor_test \
             serve_test verify_test incremental_test flavours_test \
             memory_test ctp-crashkid ctp-analyze ctp-batch
  ctest --test-dir build-tsan -j"$(nproc)" \
    -R '^(governor_test|snapshot_test|resume_test|supervisor_test|serve_test|verify_test|incremental_test|flavours_test|memory_test)$' \
    --output-on-failure
  echo "== ThreadSanitizer supervised chaos run =="
  WORK="$(mktemp -d "${TMPDIR:-/tmp}/ctp_tsan_batch.XXXXXX")"
  build-tsan/tools/ctp-batch --work "$WORK" \
    --presets antlr --configs insensitive,2-object+H \
    --analyze build-tsan/tools/ctp-analyze --checkpoint-every 500 \
    --chaos --seed 3 --chaos-kills 2
  rm -rf "$WORK"
fi

if [[ "$ASAN" == 1 ]]; then
  echo "== targeted ASan+UBSan matrix (ctest -L 'core|verify|flavours|memory') =="
  cmake -B build-asan -S . -DCTP_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -j"$(nproc)" -L 'core|verify|flavours|memory' \
    --output-on-failure
fi

if [[ "$SANITIZE" == 1 ]]; then
  echo "== sanitizer build (address,undefined) =="
  cmake -B build-asan -S . -DCTP_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j"$(nproc)"
  ctest --test-dir build-asan -j"$(nproc)" --output-on-failure
fi

echo "== all checks passed =="
