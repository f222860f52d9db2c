#!/usr/bin/env bash
#===- scripts/crashloop.sh - Kill/resume loop through ctp-analyze --------===#
#
# Part of the ctp project: a reproduction of "Context Transformations for
# Pointer Analysis" (Thiessen & Lhoták, PLDI 2017).
#
# Exercises crash-safe checkpoint/resume through the real binary: run the
# precise configuration under a derivation budget far below convergence,
# so every invocation "dies" (exit 3, degraded) after leaving a snapshot,
# then re-invoke with --resume until the fixpoint converges (exit 0). One
# middle iteration additionally arms a sticky snapshot-writer fault
# (CTP_SNAPSHOT_FAULT=bitflip), so its final snapshot is corrupt and the
# next invocation must detect that, warn, and cold-start — the loop still
# converges, just from further back.
#
# The converged result is compared against an uninterrupted run: the
# derived-relation sizes and cumulative derivation count must match
# exactly.
#
# Usage: scripts/crashloop.sh [--preset NAME] [--config NAME]
#                             [--budget N] [--max-iters N]
#                             [--batch | --serve | --delta | --oom]
# Env:   CTP_ANALYZE  path to the ctp-analyze binary
#                     (default: build/tools/ctp-analyze next to this repo)
#        CTP_BATCH    path to ctp-batch (--batch mode only; default
#                     build/tools/ctp-batch)
#        CTP_SERVE    path to ctp-serve (--serve mode only; default
#                     build/tools/ctp-serve)
#        CTP_VERIFY   path to ctp-verify (--oom mode only; default
#                     build/tools/ctp-verify)
#
# --batch runs the supervised variant instead: a ctp-batch --chaos matrix
# (3 presets x 2 configs, seeded SIGKILL injection) must terminate with a
# complete report and exit 0; then the supervisor itself is SIGKILLed
# mid-run on a fresh work tree and re-invoked, and every job that
# finished in the first life must keep a byte-identical report row.
#
# --serve exercises the resident analysis service: start a supervised
# ctp-serve daemon, SIGKILL it mid-query-stream five times, and after
# each supervisor restart a fixed query batch must return byte-identical
# answers (restarted lives warm-start from the converged checkpoint).
# Then: a max_steps=1 query must come back answered-but-degraded, an
# admission burst past the queue cap must yield explicit `overloaded`
# replies while the heartbeat file keeps advancing (a retrying client
# must then win the shed queries back), and a `shutdown` request must
# stop the whole supervisor tree with exit 0.
#
# --delta exercises transactional incremental re-solve: a daemon over a
# generated facts directory takes a begin/delta/commit transaction while
# CTP_TXN_CRASH SIGKILLs it at each pipeline stage in turn (begin, op,
# solve, certify, promote, commit). After every crash a restarted daemon
# must replay the journal to a certified state: crashes before the
# durable commit record recover to the pre-transaction epoch with
# byte-identical answers; a crash after it recovers to the committed
# epoch. The committed state is compared (modulo the epoch column)
# against a fresh daemon cold-solving an equivalently hand-edited facts
# directory, which ctp-verify must also certify. A client abort must
# leave answers byte-identical too.
#
# --oom is the memory-governor drill. It probes a descending RLIMIT_AS
# ladder for a limit under which the *ungoverned* precise run dies on
# bad_alloc (the negative control — the pre-governor failure mode), then
# re-runs under the same limit with a cooperative --mem-budget-mb at
# ~85% of it plus --fallback: the governed run must degrade down the
# ladder to exit 3 instead of dying, its rung-0 attempt must name
# MemoryBudget, and the TSV results it writes must be byte-identical to
# an unconstrained cold solve of the configuration it landed on, which
# ctp-verify must also certify. Sanitizer builds must NOT run this mode
# (ASan reserves vast address space); they smoke the governor with
# CTP_MEM_FAULT simulation instead (scripts/check.sh does both).
#
#===----------------------------------------------------------------------===#

set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=antlr
CONFIG=2-object+H
BUDGET=6000
MAX_ITERS=40
BATCH=0
SERVE=0
DELTA=0
OOM=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --preset) PRESET="$2"; shift 2 ;;
    --config) CONFIG="$2"; shift 2 ;;
    --budget) BUDGET="$2"; shift 2 ;;
    --max-iters) MAX_ITERS="$2"; shift 2 ;;
    --batch) BATCH=1; shift ;;
    --serve) SERVE=1; shift ;;
    --delta) DELTA=1; shift ;;
    --oom) OOM=1; shift ;;
    *)
      echo "usage: scripts/crashloop.sh [--preset NAME] [--config NAME]" \
           "[--budget N] [--max-iters N]" \
           "[--batch | --serve | --delta | --oom]" >&2
      exit 2
      ;;
  esac
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ctp_crashloop.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

if [[ "$SERVE" -eq 1 ]]; then
  SERVE_BIN="${CTP_SERVE:-build/tools/ctp-serve}"
  if [[ ! -x "$SERVE_BIN" ]]; then
    echo "error: ctp-serve not found at '$SERVE_BIN' (build first or set" \
         "CTP_SERVE)" >&2
    exit 1
  fi
  SRV="$WORK/serve"
  SOCK="$WORK/s.sock"

  "$SERVE_BIN" --supervise --workdir "$SRV" --socket "$SOCK" \
    --preset "$PRESET" --config "$CONFIG" --checkpoint-every 500 \
    --backoff-ms 50 --backoff-cap-ms 500 --stable-reset-ms 1000 \
    --workers 2 --queue-cap 64 > "$WORK/sup.log" 2>&1 &
  SUP=$!
  trap 'kill -9 "$SUP" 2>/dev/null || true; rm -rf "$WORK"' EXIT

  client() { "$SERVE_BIN" --client "$SOCK" --connect-timeout-ms 60000; }
  die() {
    echo "FAIL: $1" >&2
    shift
    for F in "$@"; do cat "$F" >&2 2>/dev/null || true; done
    exit 1
  }

  echo "== serve: $PRESET/$CONFIG, waiting for the first (cold) solve =="
  echo ping | client > /dev/null \
    || die "daemon never answered a ping" "$WORK/sup.log"

  # A fixed query batch built from daemon-advertised variable names: the
  # `vars` verb is deterministic in fact-base order, so the batch — and
  # therefore its answers — is identical across daemon lives.
  NAMES="$(echo "vars 12" | client | cut -f5)" \
    || die "name discovery failed" "$WORK/sup.log"
  read -r -a NAME_ARR <<< "$NAMES"
  [[ "${#NAME_ARR[@]}" -ge 4 ]] \
    || die "vars returned too few names: '$NAMES'"
  BATCH_FILE="$WORK/batch.txt"
  {
    for N in "${NAME_ARR[@]}"; do echo "pts $N"; done
    echo "alias ${NAME_ARR[0]} ${NAME_ARR[0]}"
    echo "alias ${NAME_ARR[0]} ${NAME_ARR[1]}"
    echo "alias ${NAME_ARR[2]} ${NAME_ARR[3]}"
  } > "$BATCH_FILE"
  client < "$BATCH_FILE" > "$WORK/base.txt" \
    || die "baseline batch failed" "$WORK/sup.log"

  KILLS=5
  for K in $(seq 1 "$KILLS"); do
    PID="$(cat "$SRV/serve.pid")"
    # Put a query stream in flight, then SIGKILL the daemon under it:
    # that client may lose its in-flight answers (the documented
    # contract), but the *state* must survive into the next life.
    client < "$BATCH_FILE" > /dev/null 2>&1 &
    MIDSTREAM=$!
    sleep 0.05
    kill -9 "$PID" 2>/dev/null || true
    wait "$MIDSTREAM" 2>/dev/null || true
    NEW="$PID"
    for _ in $(seq 1 600); do
      NEW="$(cat "$SRV/serve.pid" 2>/dev/null || echo "$PID")"
      [[ -n "$NEW" && "$NEW" != "$PID" ]] && break
      sleep 0.05
    done
    [[ "$NEW" != "$PID" ]] \
      || die "supervisor never restarted the daemon (life $K)" \
             "$WORK/sup.log"
    client < "$BATCH_FILE" > "$WORK/run$K.txt" \
      || die "batch failed after restart $K" "$WORK/sup.log"
    cmp -s "$WORK/base.txt" "$WORK/run$K.txt" \
      || { diff "$WORK/base.txt" "$WORK/run$K.txt" >&2 || true
           die "answers changed across daemon life $K"; }
    echo "life $((K + 1)): restarted after SIGKILL, batch byte-identical"
  done
  grep -q "warm start from snapshot" "$SRV"/serve.*.err \
    || die "no restarted life warm-started from the converged snapshot" \
           "$WORK/sup.log"

  echo "== serve: deadline-tripped query must answer, degraded =="
  echo "pts ${NAME_ARR[0]} max_steps=1" | client > "$WORK/deadline.txt" \
    || die "deadline query failed" "$WORK/deadline.txt"
  awk -F'\t' 'NR == 1 { exit !($2 == "degraded" && $5 != "" && $5 != "-") }' \
    "$WORK/deadline.txt" \
    || die "max_steps=1 did not degrade-but-answer" "$WORK/deadline.txt"

  echo "== serve: admission burst must shed while the heartbeat beats =="
  BURST_FILE="$WORK/burst.txt"
  {
    # Park both workers, then pipeline far past the 64-slot queue.
    echo "stall 1500"
    echo "stall 1500"
    for _ in $(seq 1 100); do echo "pts ${NAME_ARR[0]}"; done
  } > "$BURST_FILE"
  # The beat file is rewritten in place, so a read can catch it empty;
  # retry until a beat value lands.
  hbread() {
    local V=""
    for _ in $(seq 1 100); do
      V="$(cat "$SRV/heartbeat" 2>/dev/null || true)"
      [[ -n "$V" ]] && break
      sleep 0.01
    done
    echo "$V"
  }
  HB0="$(hbread)"
  # --retries 0: the client's backoff-and-retry would otherwise convert
  # most OVERLOADED replies into late successes, hiding the shed.
  "$SERVE_BIN" --client "$SOCK" --connect-timeout-ms 60000 --retries 0 \
    < "$BURST_FILE" > "$WORK/burst_out.txt" \
    || die "burst failed" "$WORK/burst_out.txt"
  HB1="$(hbread)"
  SHED="$(cut -f2 "$WORK/burst_out.txt" | grep -c '^overloaded$' || true)"
  [[ "$SHED" -ge 1 ]] \
    || die "burst past the queue cap shed nothing" "$WORK/burst_out.txt"
  [[ "$HB0" != "$HB1" ]] \
    || die "heartbeat stalled during the overload burst"
  echo "   $SHED of 102 burst queries shed with explicit OVERLOADED"

  echo "== serve: a retrying client must win back shed queries =="
  # Same burst, but let the client's jittered exponential backoff ride
  # out the stalls: the retries must recover at least part of the shed
  # (typically all of it) and narrate what they are doing.
  "$SERVE_BIN" --client "$SOCK" --connect-timeout-ms 60000 \
    --retries 6 --retry-base-ms 100 \
    < "$BURST_FILE" > "$WORK/retry_out.txt" 2> "$WORK/retry_err.txt" \
    || die "retried burst failed" "$WORK/retry_out.txt" "$WORK/retry_err.txt"
  RETRY_SHED="$(cut -f2 "$WORK/retry_out.txt" | grep -c '^overloaded$' || true)"
  grep -q "overloaded, retry" "$WORK/retry_err.txt" \
    || die "client never narrated a retry" "$WORK/retry_err.txt"
  [[ "$RETRY_SHED" -lt "$SHED" ]] \
    || die "retries recovered nothing ($RETRY_SHED still overloaded)" \
           "$WORK/retry_out.txt" "$WORK/retry_err.txt"
  echo "   retries cut overloaded replies from $SHED to $RETRY_SHED"

  echo "== serve: shutdown must stop the supervisor tree cleanly =="
  echo shutdown | client > /dev/null || die "shutdown request failed"
  for _ in $(seq 1 200); do
    kill -0 "$SUP" 2>/dev/null || break
    sleep 0.05
  done
  if kill -0 "$SUP" 2>/dev/null; then
    die "supervisor still running after shutdown" "$WORK/sup.log"
  fi
  set +e
  wait "$SUP"
  CODE=$?
  set -e
  [[ "$CODE" -eq 0 ]] \
    || die "supervisor exited $CODE after a clean shutdown" "$WORK/sup.log"
  trap 'rm -rf "$WORK"' EXIT
  echo "== serve crash loop passed: $KILLS kills recovered," \
       "answers byte-identical across lives =="
  exit 0
fi

if [[ "$DELTA" -eq 1 ]]; then
  SERVE_BIN="${CTP_SERVE:-build/tools/ctp-serve}"
  GENFACTS_BIN="${CTP_GENFACTS:-build/tools/ctp-genfacts}"
  VERIFY_BIN="${CTP_VERIFY:-build/tools/ctp-verify}"
  for B in "$SERVE_BIN" "$GENFACTS_BIN" "$VERIFY_BIN"; do
    if [[ ! -x "$B" ]]; then
      echo "error: '$B' not found (build first or set CTP_SERVE /" \
           "CTP_GENFACTS / CTP_VERIFY)" >&2
      exit 1
    fi
  done
  SOCK="$WORK/d.sock"
  FACTS="$WORK/base_facts"
  mkdir -p "$FACTS"
  DPID=""
  trap 'kill -9 "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

  die() {
    echo "FAIL: $1" >&2
    shift
    for F in "$@"; do cat "$F" >&2 2>/dev/null || true; done
    exit 1
  }
  # Transaction verbs must be ONE client invocation each: a pipelined
  # stream may be reordered by the worker pool (documented caveat).
  cq() { "$SERVE_BIN" --client "$SOCK" --connect-timeout-ms 120000; }
  cfast() {
    "$SERVE_BIN" --client "$SOCK" --connect-timeout-ms 3000 --retries 0
  }
  startd() { # startd CKPT_DIR LOG [CRASH_STAGE]
    rm -f "$SOCK"
    CTP_TXN_CRASH="${3:-}" "$SERVE_BIN" --socket "$SOCK" \
      --facts "$FACTS" --config "$CONFIG" --checkpoint-dir "$1" \
      --queue-cap 64 > "$2" 2>&1 &
    DPID=$!
    echo ping | cq > /dev/null || die "daemon never answered a ping" "$2"
  }
  stopd() {
    echo shutdown | cq > /dev/null 2>&1 || true
    wait "$DPID" 2>/dev/null || true
    DPID=""
  }
  txepoch() { # prints the committed-transaction epoch of the daemon
    echo txstat | cq | cut -f5 | sed -n 's/^epoch=\([0-9]*\).*/\1/p'
  }

  "$GENFACTS_BIN" "$PRESET" "$FACTS" > /dev/null \
    || die "facts generation failed"

  echo "== delta: $PRESET/$CONFIG, cold solve and baseline batch =="
  CKPT0="$WORK/ck0"
  startd "$CKPT0" "$WORK/d0.log"
  NAMES="$(echo "vars 12" | cq | cut -f5)" \
    || die "name discovery failed" "$WORK/d0.log"
  read -r -a NAME_ARR <<< "$NAMES"
  [[ "${#NAME_ARR[@]}" -ge 4 ]] \
    || die "vars returned too few names: '$NAMES'"
  BATCH_FILE="$WORK/batch.txt"
  {
    for N in "${NAME_ARR[@]}"; do echo "pts $N"; done
    echo "alias ${NAME_ARR[0]} ${NAME_ARR[1]}"
    echo "alias ${NAME_ARR[2]} ${NAME_ARR[3]}"
  } > "$BATCH_FILE"
  cq < "$BATCH_FILE" > "$WORK/base_pre.txt" \
    || die "baseline batch failed" "$WORK/d0.log"

  # The transaction under test: remove one existing assign edge (any
  # line that appears exactly once, so a TSV edit means the same thing
  # as one `rm` op) and add one new edge between advertised variables.
  RM_LINE="$(sort "$FACTS/Assign.facts" | uniq -u | head -n 1)"
  [[ -n "$RM_LINE" ]] || die "no unique assign row to remove"
  ADD_LINE=""
  for A in "${NAME_ARR[@]}"; do
    for B in "${NAME_ARR[@]}"; do
      [[ "$A" == "$B" ]] && continue
      CAND="$A"$'\t'"$B"
      if ! grep -qxF "$CAND" "$FACTS/Assign.facts"; then
        ADD_LINE="$CAND"
        break 2
      fi
    done
  done
  [[ -n "$ADD_LINE" ]] || die "no fresh assign edge available to add"
  RM_OP="rm assign ${RM_LINE%$'\t'*} ${RM_LINE#*$'\t'}"
  ADD_OP="add assign ${ADD_LINE%$'\t'*} ${ADD_LINE#*$'\t'}"
  stopd

  echo "== delta: an aborted transaction must not change any answer =="
  CK="$WORK/ck_abort"
  cp -r "$CKPT0" "$CK"
  startd "$CK" "$WORK/d_abort.log"
  echo begin | cq | awk -F'\t' '{ exit !($2 == "ok") }' \
    || die "begin failed" "$WORK/d_abort.log"
  echo "delta $ADD_OP" | cq | awk -F'\t' '{ exit !($2 == "ok") }' \
    || die "delta op refused" "$WORK/d_abort.log"
  echo abort | cq | awk -F'\t' '{ exit !($2 == "ok" && $5 == "aborted") }' \
    || die "abort failed" "$WORK/d_abort.log"
  cq < "$BATCH_FILE" > "$WORK/aborted.txt"
  cmp -s "$WORK/base_pre.txt" "$WORK/aborted.txt" \
    || { diff "$WORK/base_pre.txt" "$WORK/aborted.txt" >&2 || true
         die "aborted transaction changed answers"; }
  stopd
  echo "   abort left the batch byte-identical"

  echo "== delta: SIGKILL at every commit-pipeline stage, then recover =="
  for STAGE in begin op solve certify promote commit; do
    CK="$WORK/ck_$STAGE"
    cp -r "$CKPT0" "$CK"
    startd "$CK" "$WORK/d_${STAGE}.log" "$STAGE"
    # Each verb is its own client invocation; once the armed crash point
    # fires the daemon is SIGKILLed mid-verb, so later sends just fail.
    echo begin | cfast > /dev/null 2>&1 || true
    kill -0 "$DPID" 2>/dev/null && \
      { echo "delta $ADD_OP" | cfast > /dev/null 2>&1 || true; }
    kill -0 "$DPID" 2>/dev/null && \
      { echo "delta $RM_OP" | cfast > /dev/null 2>&1 || true; }
    kill -0 "$DPID" 2>/dev/null && \
      { echo commit | cfast > /dev/null 2>&1 || true; }
    wait "$DPID" 2>/dev/null || true
    DPID=""
    grep -q "CTP_TXN_CRASH firing at stage '$STAGE'" "$WORK/d_${STAGE}.log" \
      || die "crash point '$STAGE' never fired" "$WORK/d_${STAGE}.log"

    startd "$CK" "$WORK/r_${STAGE}.log"
    EPOCH="$(txepoch)"
    if [[ "$STAGE" == "commit" ]]; then
      WANT=1 # The durable commit record landed before the kill.
    else
      WANT=0 # No commit record: recovery must abort the transaction.
    fi
    [[ "$EPOCH" == "$WANT" ]] \
      || die "stage $STAGE recovered to epoch $EPOCH, want $WANT" \
             "$WORK/r_${STAGE}.log"
    cq < "$BATCH_FILE" > "$WORK/rec_${STAGE}.txt"
    if [[ "$WANT" -eq 0 ]]; then
      cmp -s "$WORK/base_pre.txt" "$WORK/rec_${STAGE}.txt" \
        || { diff "$WORK/base_pre.txt" "$WORK/rec_${STAGE}.txt" >&2 || true
             die "stage $STAGE recovery changed pre-txn answers"; }
    else
      grep -q "startup certification passed" "$WORK/r_${STAGE}.log" \
        || die "replayed state was not re-certified" "$WORK/r_${STAGE}.log"
      cp "$WORK/rec_${STAGE}.txt" "$WORK/post_replayed.txt"
    fi
    stopd
    echo "   stage $STAGE: killed, recovered to epoch $WANT, answers OK"
  done
  [[ -f "$WORK/post_replayed.txt" ]] \
    || die "the commit-stage crash never produced a committed recovery"

  echo "== delta: an uninterrupted commit must match the replayed one =="
  CK="$WORK/ck_ok"
  cp -r "$CKPT0" "$CK"
  startd "$CK" "$WORK/d_ok.log"
  echo begin | cq > /dev/null || die "begin failed" "$WORK/d_ok.log"
  echo "delta $ADD_OP" | cq | awk -F'\t' '{ exit !($2 == "ok") }' \
    || die "add op refused" "$WORK/d_ok.log"
  echo "delta $RM_OP" | cq | awk -F'\t' '{ exit !($2 == "ok") }' \
    || die "rm op refused" "$WORK/d_ok.log"
  echo commit | cq > "$WORK/commit.txt"
  awk -F'\t' '{ exit !($2 == "ok" && $4 == "1" && $5 ~ /^committed/) }' \
    "$WORK/commit.txt" \
    || die "commit did not publish epoch 1" "$WORK/commit.txt" \
           "$WORK/d_ok.log"
  cq < "$BATCH_FILE" > "$WORK/post.txt"
  cmp -s "$WORK/post.txt" "$WORK/post_replayed.txt" \
    || { diff "$WORK/post.txt" "$WORK/post_replayed.txt" >&2 || true
         die "crash-replayed commit differs from the uninterrupted one"; }
  stopd
  echo "   uninterrupted commit byte-identical to the crash-replayed one"

  echo "== delta: committed state must match a cold solve of edited facts =="
  EDITED="$WORK/edited_facts"
  cp -r "$FACTS" "$EDITED"
  grep -vxF "$RM_LINE" "$EDITED/Assign.facts" > "$EDITED/Assign.tmp"
  mv "$EDITED/Assign.tmp" "$EDITED/Assign.facts"
  printf '%s\n' "$ADD_LINE" >> "$EDITED/Assign.facts"
  rm -f "$SOCK"
  "$SERVE_BIN" --socket "$SOCK" --facts "$EDITED" --config "$CONFIG" \
    --queue-cap 64 > "$WORK/oracle.log" 2>&1 &
  DPID=$!
  echo ping | cq > /dev/null || die "oracle daemon never answered" \
                                    "$WORK/oracle.log"
  cq < "$BATCH_FILE" > "$WORK/oracle.txt"
  stopd
  # Strip the epoch column (field 4): the oracle never committed.
  cmp -s <(cut -f1,2,3,5 "$WORK/post.txt") \
         <(cut -f1,2,3,5 "$WORK/oracle.txt") \
    || { diff <(cut -f1,2,3,5 "$WORK/post.txt") \
              <(cut -f1,2,3,5 "$WORK/oracle.txt") >&2 || true
         die "committed answers differ from the edited-facts cold solve"; }
  echo "   answers identical modulo the epoch column"

  echo "== delta: ctp-verify must certify the edited facts directory =="
  "$VERIFY_BIN" --facts "$EDITED" --config "$CONFIG" --backend native \
    > "$WORK/verify.txt" 2>&1 \
    || die "ctp-verify rejected the edited facts" "$WORK/verify.txt"

  trap 'rm -rf "$WORK"' EXIT
  echo "== delta crash loop passed: 6 stage kills recovered, committed" \
       "state certified and equivalent to a cold solve =="
  exit 0
fi

ANALYZE="${CTP_ANALYZE:-build/tools/ctp-analyze}"
if [[ ! -x "$ANALYZE" ]]; then
  echo "error: ctp-analyze not found at '$ANALYZE' (build first or set" \
       "CTP_ANALYZE)" >&2
  exit 1
fi

if [[ "$OOM" -eq 1 ]]; then
  VERIFY_BIN="${CTP_VERIFY:-build/tools/ctp-verify}"
  if [[ ! -x "$VERIFY_BIN" ]]; then
    echo "error: ctp-verify not found at '$VERIFY_BIN' (build first or" \
         "set CTP_VERIFY)" >&2
    exit 1
  fi
  # bloat/1-call+H under context strings peaks around ~36 MB RSS here,
  # so a KB-granular RLIMIT_AS ladder can bracket it; presets that
  # converge in a few MB would need limits below the runtime's own floor
  # (bloat/2-object+H now peaks at ~10 MB, too close to it).
  OPRESET=bloat
  OCONFIG=1-call+H
  OABS=cs

  die() {
    echo "FAIL: $1" >&2
    shift
    for F in "$@"; do cat "$F" >&2 2>/dev/null || true; done
    exit 1
  }

  echo "== oom 1: probe a limit that kills the ungoverned run =="
  # The exact lethal limit shifts with allocator and libc versions, so
  # probe a descending ladder instead of hard-coding one value.
  LIMIT_KB=""
  for CAND in 48000 42000 36000 33000 30000 27000 24000; do
    set +e
    ( ulimit -v "$CAND" && exec "$ANALYZE" --preset "$OPRESET" \
        --config "$OCONFIG" --abstraction "$OABS" ) \
      > "$WORK/ungov.txt" 2> "$WORK/ungov.err"
    CODE=$?
    set -e
    if [[ "$CODE" -ne 0 && "$CODE" -ne 3 ]]; then
      LIMIT_KB="$CAND"
      echo "   ulimit -v $CAND KB: ungoverned run died, exit $CODE" \
           "(the pre-governor failure mode)"
      break
    fi
    echo "   ulimit -v $CAND KB: survived (exit $CODE), tightening"
  done
  [[ -n "$LIMIT_KB" ]] \
    || die "no probed limit killed the ungoverned run; widen the ladder"

  # ~85% of the rlimit, the same derivation ctp-batch --mem-limit-mb and
  # the supervisor's rlimit-mem retries use for the cooperative budget.
  BUDGET_MB=$(( LIMIT_KB * 85 / 100 / 1024 ))
  [[ "$BUDGET_MB" -ge 1 ]] || BUDGET_MB=1

  echo "== oom 2: governed run under the same limit must degrade =="
  GOV_OUT="$WORK/gov_out"
  mkdir -p "$GOV_OUT"
  set +e
  ( ulimit -v "$LIMIT_KB" && exec "$ANALYZE" --preset "$OPRESET" \
      --config "$OCONFIG" --abstraction "$OABS" \
      --mem-budget-mb "$BUDGET_MB" --fallback --out "$GOV_OUT" ) \
    > "$WORK/gov.txt" 2> "$WORK/gov.err"
  CODE=$?
  set -e
  [[ "$CODE" -eq 3 ]] \
    || die "governed run exited $CODE, want 3 (degraded)" \
           "$WORK/gov.txt" "$WORK/gov.err"
  grep -q "MemoryBudget" "$WORK/gov.txt" \
    || die "no rung reported a MemoryBudget trip" "$WORK/gov.txt"
  RUNG_CFG="$(awk '/<- answered/ { print $3 }' "$WORK/gov.txt")"
  RUNG_CFG="${RUNG_CFG%%(*}" # "2-type+H(cs)" -> the --config spelling.
  [[ -n "$RUNG_CFG" ]] \
    || die "could not parse the answered rung" "$WORK/gov.txt"
  echo "   exit 3 with --mem-budget-mb $BUDGET_MB," \
       "landed on $RUNG_CFG"

  echo "== oom 3: results must match an unconstrained cold solve =="
  COLD_OUT="$WORK/cold_out"
  mkdir -p "$COLD_OUT"
  "$ANALYZE" --preset "$OPRESET" --config "$RUNG_CFG" --abstraction "$OABS" \
    --out "$COLD_OUT" \
    > "$WORK/cold.txt" \
    || die "cold solve at $RUNG_CFG failed" "$WORK/cold.txt"
  diff -r "$GOV_OUT" "$COLD_OUT" > "$WORK/oomdiff.txt" \
    || { cat "$WORK/oomdiff.txt" >&2
         die "governed results differ from the cold solve at $RUNG_CFG"; }
  echo "   byte-identical TSVs at $RUNG_CFG"

  echo "== oom 4: ctp-verify must certify the landed configuration =="
  "$VERIFY_BIN" --preset "$OPRESET" --config "$RUNG_CFG" \
    --abstraction "$OABS" --backend native --snapshot-dir "$WORK/oom_snap" \
    > "$WORK/oomverify.txt" 2>&1 \
    || die "ctp-verify rejected $RUNG_CFG" "$WORK/oomverify.txt"

  echo "== oom drill passed: ungoverned dies at $LIMIT_KB KB, governed" \
       "degrades to certified byte-identical results =="
  exit 0
fi

if [[ "$BATCH" -eq 1 ]]; then
  BATCH_BIN="${CTP_BATCH:-build/tools/ctp-batch}"
  if [[ ! -x "$BATCH_BIN" ]]; then
    echo "error: ctp-batch not found at '$BATCH_BIN' (build first or set" \
         "CTP_BATCH)" >&2
    exit 1
  fi
  MATRIX=(--presets antlr,luindex,pmd --configs 2-object+H,insensitive
          --analyze "$ANALYZE" --checkpoint-every 500)
  rows() { grep -E '^[a-z]+/' "$1"; }

  echo "== batch 1: chaos matrix must terminate with a complete report =="
  set +e
  "$BATCH_BIN" --work "$WORK/chaos" "${MATRIX[@]}" \
    --chaos --seed 7 --chaos-kills 4 > "$WORK/chaos.out" 2>&1
  CODE=$?
  set -e
  if [[ "$CODE" -ne 0 ]]; then
    echo "FAIL: chaos batch exited $CODE" >&2
    cat "$WORK/chaos.out" >&2
    exit 1
  fi
  if [[ "$(rows "$WORK/chaos.out" | wc -l)" -ne 6 ]]; then
    echo "FAIL: chaos report is missing rows" >&2
    cat "$WORK/chaos.out" >&2
    exit 1
  fi
  KILLS="$(grep -c '"class":"chaos-kill"' "$WORK/chaos/journal.jsonl" || true)"
  echo "   complete report, $KILLS chaos kill(s) injected and recovered"

  echo "== batch 2: SIGKILL the supervisor mid-run, re-invoke, compare =="
  "$BATCH_BIN" --work "$WORK/half" "${MATRIX[@]}" \
    > "$WORK/half1.out" 2>&1 &
  SUP=$!
  # Let some (but not all) jobs finish, then kill the supervisor dead.
  for _ in $(seq 1 200); do
    N="$(grep -c '"type":"outcome"' "$WORK/half/journal.jsonl" \
         2>/dev/null || true)"
    [[ "${N:-0}" -ge 2 ]] && break
    sleep 0.1
  done
  kill -9 "$SUP" 2>/dev/null || true
  wait "$SUP" 2>/dev/null || true
  FINISHED="$(grep -c '"type":"outcome"' "$WORK/half/journal.jsonl")"
  if [[ "$FINISHED" -lt 1 || "$FINISHED" -ge 6 ]]; then
    echo "note: supervisor died with $FINISHED finished job(s);" \
         "replay check degenerates but still runs"
  fi
  # Render the finished subset's rows twice: once right now (replay-only
  # run over the same matrix) and once after the batch completes.
  "$BATCH_BIN" --work "$WORK/half" "${MATRIX[@]}" > "$WORK/half2.out" 2>&1
  FROM_JOURNAL_ROWS="$WORK/expected_rows.txt"
  rows "$WORK/half2.out" > "$FROM_JOURNAL_ROWS"
  if [[ "$(wc -l < "$FROM_JOURNAL_ROWS")" -ne 6 ]]; then
    echo "FAIL: resumed batch report incomplete" >&2
    cat "$WORK/half2.out" >&2
    exit 1
  fi
  # A third invocation replays everything: rows must be byte-identical.
  "$BATCH_BIN" --work "$WORK/half" "${MATRIX[@]}" > "$WORK/half3.out" 2>&1
  if ! diff "$FROM_JOURNAL_ROWS" <(rows "$WORK/half3.out") \
       > "$WORK/rowdiff.txt"; then
    echo "FAIL: report rows changed across supervisor lives:" >&2
    cat "$WORK/rowdiff.txt" >&2
    exit 1
  fi
  # No lost or duplicated journal entries: exactly one terminal outcome
  # record per job across all supervisor lives.
  DUPES="$(grep -o '"type":"outcome","job":"[^"]*"' \
           "$WORK/half/journal.jsonl" | sort | uniq -d)"
  if [[ -n "$DUPES" ]]; then
    echo "FAIL: duplicated outcome records:" >&2
    echo "$DUPES" >&2
    exit 1
  fi
  echo "   $FINISHED job(s) survived the supervisor kill;" \
       "all rows byte-identical across lives, no duplicate outcomes"
  echo "== batch crash loop passed =="
  exit 0
fi

CKPT="$WORK/ckpt"
mkdir -p "$CKPT"

# Baseline: one uninterrupted converged run.
"$ANALYZE" --preset "$PRESET" --config "$CONFIG" > "$WORK/baseline.txt"
summary() { grep -E '^(termination|  (pts|hpts|hload|call|reach|gpts) )' "$1"; }

echo "== crash loop: $PRESET/$CONFIG, $BUDGET derivations per life =="
ITER=0
RESUME=()
SAW_CORRUPTION_RECOVERY=0
while true; do
  ITER=$((ITER + 1))
  if [[ "$ITER" -gt "$MAX_ITERS" ]]; then
    echo "FAIL: no convergence after $MAX_ITERS lives" >&2
    exit 1
  fi
  # Life 2 writes its snapshots through a sticky bit-flip fault: its last
  # checkpoint is corrupt, and life 3 must recover by cold-starting.
  FAULT=""
  if [[ "$ITER" -eq 2 ]]; then
    FAULT=bitflip
  fi
  set +e
  CTP_SNAPSHOT_FAULT="$FAULT" "$ANALYZE" --preset "$PRESET" \
    --config "$CONFIG" --max-derivations "$BUDGET" \
    --checkpoint-dir "$CKPT" "${RESUME[@]}" \
    > "$WORK/run$ITER.txt" 2> "$WORK/run$ITER.err"
  CODE=$?
  set -e
  RESUME=(--resume)
  case "$CODE" in
    0)
      echo "life $ITER: converged"
      break
      ;;
    3)
      if [[ -n "$FAULT" ]]; then
        echo "life $ITER: killed by budget, snapshot writes sabotaged"
      else
        echo "life $ITER: killed by budget (snapshot saved)"
      fi
      ;;
    *)
      echo "FAIL: life $ITER exited $CODE" >&2
      cat "$WORK/run$ITER.err" >&2
      exit 1
      ;;
  esac
  if grep -q "corrupt" "$WORK/run$ITER.err" 2>/dev/null; then
    SAW_CORRUPTION_RECOVERY=1
    echo "life $ITER: detected corrupt snapshot, cold-started"
  fi
done
if grep -q "corrupt" "$WORK/run$ITER.err" 2>/dev/null; then
  SAW_CORRUPTION_RECOVERY=1
fi

if [[ "$SAW_CORRUPTION_RECOVERY" -ne 1 ]]; then
  echo "FAIL: the sabotaged life never triggered corruption recovery" >&2
  exit 1
fi

if ! diff <(summary "$WORK/baseline.txt") <(summary "$WORK/run$ITER.txt") \
     > "$WORK/diff.txt"; then
  echo "FAIL: resumed result differs from uninterrupted run:" >&2
  cat "$WORK/diff.txt" >&2
  exit 1
fi
echo "== crash loop converged in $ITER lives, result identical =="
