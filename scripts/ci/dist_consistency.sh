#!/usr/bin/env bash
# Distributed-consistency gate (DESIGN.md §16): the corpus through the
# sbd-dist coordinator/worker layer must produce the same canonical
# verdict stream no matter how many worker processes solve it, and a
# worker crash mid-run must recover through requeue-once with zero lost or
# duplicated verdicts.
#
# Gates (all hard failures):
#   - 1-worker and N-worker verdict streams byte-identical;
#   - worker-kill run (worker 1 dies on its 3rd request): stream still
#     byte-identical, >= 1 crash observed, >= 1 requeue, 0 lost verdicts;
#   - every run emits exactly one verdict line per corpus pattern;
#   - perf: N-worker wall <= 0.6x 1-worker wall, enforced only on
#     multi-core hosts (the CI runners; a 1-core container cannot speed
#     up by adding processes) — scripts/perf_smoke.py dist decides. It
#     merges the measurement into a copy of the BENCH_PR10.json snapshot
#     under the work dir, and the merged dist block is printed; the
#     checked-in snapshot is left untouched.
#
# Environment:
#   SBD_DIST_SCALE     corpus scale (default 0.05)
#   SBD_DIST_SEED      corpus seed (default 2021)
#   SBD_DIST_WORKERS   N for the multi-process runs (default 4)
#
# Usage: dist_consistency.sh [build-dir]
. "$(dirname "$0")/common.sh"

require python3 "needed to evaluate the stats JSON"

BUILD_DIR="${1:-build-release}"
SCALE="${SBD_DIST_SCALE:-0.05}"
SEED="${SBD_DIST_SEED:-2021}"
WORKERS="${SBD_DIST_WORKERS:-4}"
sbd_workdir WORK dist-consistency # trap-managed: removed on any exit

# The gate times a worker-scaling ratio, so measure an optimized build.
sbd_configure "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
sbd_build "$BUILD_DIR" sbd-dist
DIST="$BUILD_DIR/tools/sbd-dist"
[ -x "$DIST" ] || {
  echo "error: sbd-dist was not built" >&2
  exit 1
}

echo "== dist-consistency: exporting corpus (scale=$SCALE seed=$SEED) =="
"$DIST" --gen --scale "$SCALE" --seed "$SEED" \
  --export-corpus "$WORK/corpus.txt"
PATTERNS=$(wc -l < "$WORK/corpus.txt")
[ "$PATTERNS" -gt 0 ] || {
  echo "error: exported corpus is empty" >&2
  exit 1
}
echo "corpus: $PATTERNS patterns"

run_dist() { # run_dist <label> <extra flags...>
  local label="$1"
  shift
  "$DIST" --corpus "$WORK/corpus.txt" --stats "$@" \
    > "$WORK/$label.out" 2> "$WORK/$label.json"
}

echo "== pass 1: 1 worker =="
run_dist w1 --workers 1
echo "== pass 2: $WORKERS workers =="
run_dist wn --workers "$WORKERS"
echo "== pass 3: $WORKERS workers, worker 1 killed on its 3rd request =="
run_dist kill --workers "$WORKERS" --test-crash-worker 1:3

for label in w1 wn kill; do
  LINES=$(wc -l < "$WORK/$label.out")
  [ "$LINES" -eq "$PATTERNS" ] || {
    echo "error: $label run emitted $LINES verdicts for $PATTERNS patterns" \
      >&2
    exit 1
  }
done

if ! cmp -s "$WORK/w1.out" "$WORK/wn.out"; then
  echo "error: 1-worker and $WORKERS-worker verdict streams differ" >&2
  diff "$WORK/w1.out" "$WORK/wn.out" | head -20 >&2
  exit 1
fi
echo "1-worker vs $WORKERS-worker: byte-identical ($PATTERNS verdicts)"

if ! cmp -s "$WORK/w1.out" "$WORK/kill.out"; then
  echo "error: worker-kill run diverged from the clean stream" >&2
  diff "$WORK/w1.out" "$WORK/kill.out" | head -20 >&2
  exit 1
fi

python3 - "$WORK/kill.json" << 'EOF'
import json
import sys

with open(sys.argv[1]) as f:
    kill = json.load(f)

failures = []
if kill.get("worker_crashes", 0) < 1:
    failures.append("kill run observed no worker crash (test hook inert?)")
if kill.get("requeues", 0) < 1:
    failures.append("kill run recovered without requeuing (lost in-flight?)")
if kill.get("lost", 0) != 0:
    failures.append(f"kill run lost {kill['lost']} verdicts")
if failures:
    print("dist-consistency: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"worker-kill recovery: ok ({kill['worker_crashes']} crash, "
      f"{kill['requeues']} requeued, 0 lost)")
EOF

# Scaling measurement + conditional speedup gate, merged into a copy of
# the perf snapshot; the merged dist block is printed for the log.
cp BENCH_PR10.json "$WORK/snapshot.json"
python3 scripts/perf_smoke.py dist "$WORK/w1.json" "$WORK/wn.json" \
  "$WORK/snapshot.json"
python3 -c 'import json, sys
print(json.dumps({"dist": json.load(open(sys.argv[1]))["dist"]}, indent=2,
                 sort_keys=True))' "$WORK/snapshot.json"
