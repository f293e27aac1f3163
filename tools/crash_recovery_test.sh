#!/usr/bin/env bash
# The kill -9 drill behind the CI crash-recovery job.
#
# Launches examples/crash_recovery as a durable victim, waits for its
# first checkpoint generation (a ckpt_*.mpasckpt under sessions/; the
# store publishes by rename, so the name means a complete file), SIGKILLs
# it mid-run, and then asserts the restarted service recovers: the
# incomplete session is re-admitted, resumed from its newest intact
# checkpoint generation, and lands bitwise-identical to the uninterrupted
# reference trajectory.
# Finally audits the journal offline with obs_query mode=recovery (which
# must refuse a require_kind= assertion it does not evaluate), reads every
# flight dump with obs_query (each must parse and hold its session's
# terminal fact), requires one dump that records a recovery fact, and
# checks that the journal holds no progress line: the checkpoint store is
# the one record of durable progress.
#
# Usage: tools/crash_recovery_test.sh <build_dir> <work_dir>
set -euo pipefail

BUILD=${1:?usage: crash_recovery_test.sh <build_dir> <work_dir>}
WORK=${2:?usage: crash_recovery_test.sh <build_dir> <work_dir>}

CKPT="$WORK/ckpt"
FLIGHT="$WORK/flight"
rm -rf "$CKPT" "$FLIGHT"
mkdir -p "$CKPT"

export MPAS_CHECKPOINT_DIR="$CKPT"
export MPAS_CHECKPOINT_EVERY=2
export MPAS_CHECKPOINT_KEEP=3

echo "== victim: durable run, to be SIGKILLed mid-flight"
"$BUILD/examples/crash_recovery" mode=run steps=6000 level=2 &
VICTIM=$!

# Wait for the first checkpoint generation on disk, then kill without
# mercy. A victim that finishes before the kill means the run was far too
# short — fail loudly.
published() {
  [ -n "$(find "$CKPT/sessions" -name 'ckpt_*.mpasckpt' -print -quit \
    2> /dev/null)" ]
}
for _ in $(seq 1 3000); do
  if published; then
    break
  fi
  if ! kill -0 "$VICTIM" 2> /dev/null; then
    echo "FAIL: victim exited before any checkpoint generation" >&2
    wait "$VICTIM" || true
    exit 1
  fi
  sleep 0.01
done
published || {
  echo "FAIL: no checkpoint generation within 30s" >&2
  kill -9 "$VICTIM" 2> /dev/null || true
  exit 1
}

kill -9 "$VICTIM"
wait "$VICTIM" && {
  echo "FAIL: victim exited cleanly despite SIGKILL" >&2
  exit 1
} || STATUS=$?
if [ "$STATUS" -ne 137 ]; then
  echo "FAIL: victim exit status $STATUS, expected 137 (SIGKILL)" >&2
  exit 1
fi
echo "   victim killed (status 137) with $(ls "$CKPT"/sessions/*/ | wc -l) file(s) durable"

echo "== restart: recovery must resume and land on the reference bits"
MPAS_FLIGHT_DUMP="$FLIGHT" \
  "$BUILD/examples/crash_recovery" mode=resume require_recovered=1

echo "== offline audit: journal folds clean, nothing incomplete"
"$BUILD/examples/obs_query" "$CKPT/journal.jsonl" mode=recovery \
  require_recovered=1

echo "== negative check: recovery mode must not pass an assertion it skips"
if "$BUILD/examples/obs_query" "$CKPT/journal.jsonl" mode=recovery \
  require_kind=no_such_kind > /dev/null 2>&1; then
  echo "FAIL: obs_query mode=recovery accepted require_kind=no_such_kind" >&2
  exit 1
fi

echo "== flight dumps: each reads as an event log; one records the recovery"
DUMPED=0
for f in "$FLIGHT"/*.jsonl; do
  [ -e "$f" ] || continue
  "$BUILD/examples/obs_query" "$f" mode=summary require_kind=terminal
  if "$BUILD/examples/obs_query" "$f" mode=summary require_kind=recovery \
    > /dev/null; then
    DUMPED=1
  fi
done
if [ "$DUMPED" -ne 1 ]; then
  echo "FAIL: no flight dump records a recovery event" >&2
  exit 1
fi

echo "== journal: durable progress lives in the store, not the journal"
if grep -q '"kind":"progress"' "$CKPT/journal.jsonl"; then
  echo "FAIL: the journal holds a progress line" >&2
  exit 1
fi

echo "crash-recovery drill passed"
