#!/usr/bin/env bash
# Observability overhead guard (DESIGN.md §13). Two promises, checked:
#
#  1. "Always-on profiling is cheap": the same Release bench_micro --quick
#     run with the obs layer compiled in (default) vs compiled out
#     (-DSBD_OBS=OFF) must not show any series >= 200ns slowing past
#     OVERHEAD_RATIO. Sub-200ns series are harness noise at --quick scale
#     and are skipped.
#
#  2. "Slow-query artifacts replay": a corpus run with capture armed at
#     threshold 0 must produce a JSONL artifact that sbd-explain can parse,
#     replay on a fresh stack, and report through its --json contract.
. "$(dirname "$0")/common.sh"

require python3 "needed for the ratio comparison"

OVERHEAD_RATIO="${SBD_OBS_OVERHEAD_RATIO:-1.8}"

sbd_configure build-release -DCMAKE_BUILD_TYPE=Release
sbd_build build-release bench_micro bench_smt_corpus sbd-explain
sbd_configure build-obs0-release -DCMAKE_BUILD_TYPE=Release -DSBD_OBS=OFF
sbd_build build-obs0-release bench_micro

build-release/bench/bench_micro --quick --json /tmp/sbd-obs-on.json
build-obs0-release/bench/bench_micro --quick --json /tmp/sbd-obs-off.json

python3 - /tmp/sbd-obs-on.json /tmp/sbd-obs-off.json "$OVERHEAD_RATIO" <<'EOF'
import json, sys

def series(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: float(b["real_time"])
            for b in doc.get("benchmarks", [])
            if b.get("run_type") != "aggregate"
            and b.get("time_unit", "ns") == "ns"}

on, off, ratio = series(sys.argv[1]), series(sys.argv[2]), float(sys.argv[3])
failures, compared = [], 0
for name in sorted(set(on) & set(off)):
    if off[name] < 200.0:
        continue
    compared += 1
    if on[name] > ratio * off[name]:
        failures.append(f"  {name}: obs-on {on[name]:.0f}ns vs obs-off "
                        f"{off[name]:.0f}ns ({on[name]/off[name]:.2f}x "
                        f"> {ratio}x)")
if not compared:
    failures.append("  no comparable series >= 200ns — bench output broken?")
if failures:
    print("obs-overhead: the profiling layer is no longer cheap:")
    print("\n".join(failures))
    sys.exit(1)
print(f"obs-overhead: ok ({compared} series within {ratio}x of the "
      "-DSBD_OBS=OFF build)")
EOF

# Slow-query capture → sbd-explain replay round trip.
SLOW_LOG=/tmp/sbd-obs-slow.jsonl
rm -f "$SLOW_LOG"
build-release/bench/bench_smt_corpus --quick --threads 1 \
  --slow-log "$SLOW_LOG" --slow-threshold-us 0 > /dev/null
test -s "$SLOW_LOG" || {
  echo "obs-overhead: $SLOW_LOG is empty — slow-query capture broke" >&2
  exit 1
}
build-release/tools/sbd-explain --json "$SLOW_LOG" > /tmp/sbd-obs-explain.json

python3 - /tmp/sbd-obs-explain.json <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("artifact_index", "artifact_count", "status", "stop_reason",
            "total_us", "states", "replayed", "replay_status",
            "replay_total_us", "replay_stats"):
    assert key in doc, f"sbd-explain --json lost key {key!r}"
assert doc["artifact_count"] > 0, "no artifacts parsed"
assert doc["replayed"] is True, "replay did not run"
assert doc["replay_status"] in ("sat", "unsat", "unknown"), doc["replay_status"]
assert "total_us" in doc["replay_stats"], "replay stats lost the phase keys"
print(f"obs-overhead: sbd-explain replayed artifact "
      f"{doc['artifact_index']} of {doc['artifact_count']} "
      f"(captured {doc['status']}, replay {doc['replay_status']})")
EOF
