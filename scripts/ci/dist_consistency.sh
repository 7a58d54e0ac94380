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
#   - scaling pair: both runs solved > 0 queries, the same number, with 0
#     lost verdicts;
#   - perf: N-worker wall <= 0.6x 1-worker wall on the scaling pair,
#     enforced only when nproc >= 2 (a 1-core container cannot speed up by
#     adding processes); the measurement is printed either way.
#
# The scaling pair runs on its own corpus at SCALING_SCALE (177,809
# patterns at seed 2021), whose 1-worker pass takes 1.3-1.6 s on a 4-vCPU
# x86-64 VM. The correctness corpus passes in 25-55 ms, a time that
# process spawn and vCPU steal decide rather than the worker count. Both
# corpora's verdict streams must be byte-identical across worker counts.
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
SCALING_SCALE=20
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
"$DIST" --gen --scale "$SCALING_SCALE" --seed "$SEED" \
  --export-corpus "$WORK/scaling.txt"
SCALING_PATTERNS=$(wc -l < "$WORK/scaling.txt")
echo "scaling corpus: $SCALING_PATTERNS patterns (scale=$SCALING_SCALE)"

run_dist() { # run_dist <corpus> <label> <extra flags...>
  local corpus="$1" label="$2"
  shift 2
  "$DIST" --corpus "$WORK/$corpus.txt" --stats "$@" \
    > "$WORK/$label.out" 2> "$WORK/$label.json"
}

echo "== pass 1: 1 worker =="
run_dist corpus w1 --workers 1
echo "== pass 2: $WORKERS workers =="
run_dist corpus wn --workers "$WORKERS"
echo "== pass 3: $WORKERS workers, worker 1 killed on its 3rd request =="
run_dist corpus kill --workers "$WORKERS" --test-crash-worker 1:3
echo "== pass 4: scaling corpus, 1 worker =="
run_dist scaling s1 --workers 1
echo "== pass 5: scaling corpus, $WORKERS workers =="
run_dist scaling sn --workers "$WORKERS"

for label in w1 wn kill s1 sn; do
  EXPECTED=$PATTERNS
  case "$label" in s*) EXPECTED=$SCALING_PATTERNS ;; esac
  LINES=$(wc -l < "$WORK/$label.out")
  [ "$LINES" -eq "$EXPECTED" ] || {
    echo "error: $label run emitted $LINES verdicts for $EXPECTED patterns" \
      >&2
    exit 1
  }
done

for pair in "w1 wn $PATTERNS" "s1 sn $SCALING_PATTERNS"; do
  set -- $pair
  if ! cmp -s "$WORK/$1.out" "$WORK/$2.out"; then
    echo "error: 1-worker and $WORKERS-worker verdict streams differ" \
      "($1 vs $2)" >&2
    diff "$WORK/$1.out" "$WORK/$2.out" | head -20 >&2
    exit 1
  fi
  echo "1-worker vs $WORKERS-worker: byte-identical ($3 verdicts)"
done

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

# Scaling pair: correctness always, the wall-clock ratio only on multi-core
# hosts.
python3 - "$WORK/s1.json" "$WORK/sn.json" "$(nproc)" << 'EOF'
import json
import sys

GATE = 0.60
with open(sys.argv[1]) as f:
    w1 = json.load(f)
with open(sys.argv[2]) as f:
    wn = json.load(f)
cores = int(sys.argv[3])

failures = []
for doc, label in ((w1, "1-worker"), (wn, f"{wn.get('workers')}-worker")):
    if doc.get("queries", 0) <= 0:
        failures.append(f"{label} run solved no queries")
    if doc.get("lost", 0) != 0:
        failures.append(f"{label} run lost {doc['lost']} verdicts")
if w1.get("queries") != wn.get("queries"):
    failures.append(f"query counts differ: {w1.get('queries')} vs "
                    f"{wn.get('queries')}")
w1_us, wn_us = w1.get("wall_us", 0), wn.get("wall_us", 0)
ratio = wn_us / w1_us if w1_us > 0 else None
if ratio is None:
    failures.append("1-worker run recorded no wall time")
elif cores >= 2 and ratio > GATE:
    failures.append(f"{wn.get('workers')}-worker wall {wn_us}us > {GATE}x "
                    f"1-worker wall {w1_us}us ({ratio:.2f}x)")
if failures:
    print("dist-consistency: scaling FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
enforced = f"enforced on {cores} cores" if cores >= 2 else "not enforced"
print(f"dist scaling: ok ({wn['queries']} queries, {wn.get('workers')} "
      f"workers {wn_us}us vs 1 worker {w1_us}us = {ratio:.2f}x, gate "
      f"{GATE}x {enforced}, steals={wn.get('steals', 0)})")
EOF
