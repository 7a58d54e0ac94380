#!/usr/bin/env bash
# Resident-session verdict-cache gate (DESIGN.md §15): exports the SMT
# corpus, concatenates it into one (reset)-separated replay stream with a
# (get-model) after every (check-sat), and runs it through sbd-server five
# times —
#
#   pass 1 (cold, run 3x): empty cache, --cache-save snapshots the
#     verdicts;
#   pass 2 (warm, run 3x): --cache-load restores the first snapshot, every
#     check should hit;
#   pass 3 (evict): empty 16-entry cache (one entry per shard), so the
#     replay evicts on almost every insert;
#   pass 4 (nocache): --cache-capacity 0, every check solved on the one
#     warm arena that has solved every script before it;
#   pass 5 (fresh): --cache-capacity 0 --arena-budget 1, every script
#     solved on a freshly built stack.
#
# Gates (all hard failures):
#   - every run of the five passes prints byte-identical output: the same
#     verdicts and
#     the same models, cached or solved, evicting or not, on a warm arena
#     or a fresh one (a model is the shortlex-least word, DESIGN.md §4);
#   - pass 3 evicted at least once;
#   - pass-2 hit rate >= 90% of its checks;
#   - the fastest pass-2 run's wall-clock <= 0.5x the fastest pass-1 run's
#     (the >= 2x warm speedup the cache exists for — measured end-to-end
#     through the server, parse included; one ~20 ms pass is too short to
#     time alone on a shared machine);
#   - zero revalidation failures (a poisoned persisted entry would
#     surface here).
#
# Environment:
#   SBD_SESSION_SCALE   corpus scale (default 0.02)
#   SBD_SESSION_SEED    corpus seed (default 2021)
#
# Usage: session_cache.sh [build-dir]
. "$(dirname "$0")/common.sh"

require python3 "needed to evaluate the stats JSON"

BUILD_DIR="${1:-build-release}"
SCALE="${SBD_SESSION_SCALE:-0.02}"
SEED="${SBD_SESSION_SEED:-2021}"
sbd_workdir WORK session-cache # trap-managed: removed on any exit

# The gate times a warm-vs-cold ratio, so measure an optimized build.
sbd_configure "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release
sbd_build "$BUILD_DIR" sbd-server export_benchmarks
SERVER="$BUILD_DIR/tools/sbd-server"
EXPORT="$BUILD_DIR/examples/export_benchmarks"
[ -x "$SERVER" ] && [ -x "$EXPORT" ] || {
  echo "error: sbd-server/export_benchmarks were not built" >&2
  exit 1
}

echo "== session-cache: exporting corpus (scale=$SCALE seed=$SEED) =="
"$EXPORT" "$WORK/corpus" "$SCALE" "$SEED"

# One replay stream: every instance script, separated by (reset) so the
# session's declarations don't collide, with a (get-model) after each
# check so the output carries every witness. sort keeps the order stable
# across filesystems; the stream is identical for every pass.
STREAM="$WORK/replay.smt2"
find "$WORK/corpus" -name '*.smt2' | sort | while read -r f; do
  sed 's/^(check-sat)$/(check-sat)\n(get-model)/' "$f"
  echo "(reset)"
done > "$STREAM"
CHECKS=$(grep -c "^(check-sat)" "$STREAM")
[ "$CHECKS" -gt 0 ] || {
  echo "error: exported corpus contains no check-sat commands" >&2
  exit 1
}
echo "replay stream: $CHECKS checks"

run_pass() { # run_pass <label> <extra flags...>
  local label="$1"
  shift
  "$SERVER" --stats-json "$WORK/$label.json" "$@" \
    < "$STREAM" > "$WORK/$label.out" 2> "$WORK/$label.err"
}

echo "== pass 1: cold (cache empty, saving snapshot), 3 runs =="
for run in 1 2 3; do
  run_pass "cold$run" --cache-save "$WORK/verdicts$run.jsonl"
done
echo "== pass 2: warm (snapshot preloaded), 3 runs =="
for run in 1 2 3; do
  run_pass "warm$run" --cache-load "$WORK/verdicts1.jsonl"
done
echo "== pass 3: evict (16-entry cache) =="
run_pass evict --cache-capacity 16
echo "== pass 4: nocache (no cache, one warm arena) =="
run_pass nocache --cache-capacity 0
echo "== pass 5: fresh (no cache, fresh stack per script) =="
run_pass fresh --cache-capacity 0 --arena-budget 1

# Verdict and model equality: the protocol output of every run must be
# byte-identical to the first cold run — same verdicts, same models, same
# order.
for label in cold2 cold3 warm1 warm2 warm3 evict nocache fresh; do
  if ! cmp -s "$WORK/cold1.out" "$WORK/$label.out"; then
    echo "error: $label pass output differs from cold pass" >&2
    diff "$WORK/cold1.out" "$WORK/$label.out" | head -20 >&2
    exit 1
  fi
done

python3 - "$WORK" << 'EOF'
import json
import sys

def load(label):
    with open(f"{sys.argv[1]}/{label}.json") as f:
        return json.load(f)

colds = [load(f"cold{run}") for run in (1, 2, 3)]
warms = [load(f"warm{run}") for run in (1, 2, 3)]
evict = load("evict")
cold, warm = colds[0], warms[0]

failures = []
checks = warm.get("checks", 0)
cache = warm.get("cache", {})
hits = cache.get("hits", 0)
hit_rate = hits / checks if checks else 0.0
if checks <= 0:
    failures.append("warm pass ran no checks")
if hit_rate < 0.90:
    failures.append(
        f"warm hit rate {hit_rate:.1%} < 90% ({hits}/{checks})")
for doc, label in ([(d, f"cold{i + 1}") for i, d in enumerate(colds)] +
                   [(d, f"warm{i + 1}") for i, d in enumerate(warms)] +
                   [(evict, "evict")]):
    rf = doc.get("cache", {}).get("revalidation_failures", 0)
    if rf:
        failures.append(f"{label} pass had {rf} revalidation failures")
evictions = evict.get("cache", {}).get("evictions", 0)
if evictions <= 0:
    failures.append("evict pass evicted nothing")

# The fastest of three runs on each side: a single run's wall clock moves
# with whatever else the machine does during it.
cold_us = min(d.get("wall_us", 0) for d in colds)
warm_us = min(d.get("wall_us", 0) for d in warms)
if cold_us <= 0:
    failures.append("a cold run recorded no wall time")
elif warm_us > 0.5 * cold_us:
    failures.append(
        f"fastest warm wall {warm_us}us > 0.5x fastest cold {cold_us}us "
        f"({warm_us / cold_us:.2f}x)")

if failures:
    print("session-cache: FAILED")
    for f in failures:
        print("  " + f)
    sys.exit(1)
print(f"session-cache: ok ({checks} checks, hit rate {hit_rate:.1%}, "
      f"fastest warm {warm_us}us vs fastest cold {cold_us}us = "
      f"{cold_us / warm_us:.1f}x speedup, {evictions} evictions at 16 "
      f"entries)")
EOF
