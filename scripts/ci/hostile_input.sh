#!/usr/bin/env bash
# Hostile-input gate: inputs that used to kill a process must end in an
# answer or a typed error instead.
#
#   - a pattern nested 20,000 parentheses deep, through sbd-analyze (as an
#     argument and as a --file line);
#   - a script whose str.in_re term nests (re.* ...) 30,000 deep, through
#     sbd-server;
#   - a script truncated inside a command, through both;
#   - a 100,000-character str.to_re literal, through sbd-server, which must
#     answer sat (the verdict-cache key prints the whole Concat spine);
#   - a 100,000-character pattern, through sbd-analyze (as an argument and
#     as a --file line);
#   - a 20-digit numeral (past int64) and (push 1000000000000), through
#     sbd-server: a parse error and a depth-cap error, not an abort;
#   - ((_ re.loop 100000 100000) (str.to_re "a")), through sbd-server, which
#     must answer sat, and a{1000000} through sbd-analyze;
#   - a union of 20,000 alternatives (x0|x1|...|x19999), through sbd-analyze
#     --file, which must finish within UNION_BOUND_MS: the parser builds
#     the union in one n-ary step (~150 ms under ASan), while interning
#     every partial union is quadratic (~3 s in a default build);
#   - a union of 20,000 separate characters (\u0100|\u0102|...), through
#     sbd-analyze --file, which must finish within UNION_BOUND_MS and peak
#     below PRED_UNION_RSS_MB: the character merge interns one 20,000-
#     interval set, while interning every partial union keeps n²/2
#     intervals (~1.6 GB);
#   - through sbd-server, a script asserting 13 disjunctions
#     (or (str.in_re s .*a.*) (str.in_re s .*b.*)), each on two fresh
#     letters, under (<= (str.len s) 3): 2^13 implicants as cubes, one
#     regex once the disjunctions fold (paper Section 2); it must answer
#     unsat;
#   - through sbd-server, a one-variable ite chain 30 deep in condition
#     position, C_k = (ite C_k-1 (str.in_re s b+) (str.in_re s "c<k-1>")),
#     checked, then checked again with s = "zz" asserted: sat, then unsat
#     within ITE_BOUND_MS. The folded regex shares each condition between
#     both branches, so its tree has 2^30 leaves; the verdict-cache key
#     print must stop at its cap.
#
# Gates (all hard failures):
#   - every process exits below 128, i.e. not by a signal. Sanitizer
#     reports abort (abort_on_error), so under ASan+UBSan they count as
#     signal deaths too;
#   - sbd-server still answers the (echo "alive") that follows the deep
#     term and the wide literal, and the commands before the truncation;
#   - sbd-server answers sat on the wide literal and the 100,000-loop,
#     unsat on the 13 disjunctions, and sat then unsat on the ite chain.
#
# Usage: hostile_input.sh <build-dir>    (CI runs it on build-asan)
UNION_BOUND_MS=2000
PRED_UNION_RSS_MB=256
ITE_BOUND_MS=2000
. "$(dirname "$0")/common.sh"

require python3 "generates the deep inputs"

BUILD_DIR="${1:?usage: hostile_input.sh <build-dir>}"
sbd_build "$BUILD_DIR" sbd-analyze sbd-server
ANALYZE="$BUILD_DIR/tools/sbd-analyze"
SERVER="$BUILD_DIR/tools/sbd-server"
sbd_workdir WORK hostile-input # trap-managed: removed on any exit

export ASAN_OPTIONS="abort_on_error=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
export UBSAN_OPTIONS="halt_on_error=1:abort_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}"

python3 - "$WORK" << 'EOF'
import sys
work = sys.argv[1]
d = 20000
with open(f"{work}/deep_pattern.txt", "w") as f:
    f.write("(" * d + "a" + ")" * d + "\n")
d = 30000
term = "(re.* " * d + '(str.to_re "a")' + ")" * d
with open(f"{work}/deep_term.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            f"(assert (str.in_re s {term}))\n"
            "(check-sat)\n"
            '(echo "alive")\n')
w = 100000
with open(f"{work}/wide_pattern.txt", "w") as f:
    f.write("a" * w + "\n")
with open(f"{work}/wide_literal.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            f'(assert (str.in_re s (str.to_re "{"a" * w}")))\n'
            "(check-sat)\n"
            '(echo "alive")\n')
with open(f"{work}/huge_numeral.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            "(assert (<= (str.len s) 12345678901234567890))\n"
            '(echo "alive")\n')
with open(f"{work}/huge_push.smt2", "w") as f:
    f.write("(push 1000000000000)\n"
            '(echo "alive")\n')
with open(f"{work}/wide_loop.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            '(assert (str.in_re s ((_ re.loop 100000 100000) (str.to_re "a"))))\n'
            "(check-sat)\n"
            '(echo "alive")\n')
with open(f"{work}/wide_union.txt", "w") as f:
    f.write("(" + "|".join(f"x{i}" for i in range(20000)) + ")\n")
with open(f"{work}/pred_union.txt", "w") as f:
    f.write("(" + "|".join(f"\\u{0x100 + 2 * i:04x}" for i in range(20000)) + ")\n")
with open(f"{work}/disjunctions.smt2", "w") as f:
    f.write("(declare-const s String)\n(assert (<= (str.len s) 3))\n")
    for i in range(13):
        a, b = chr(97 + 2 * i), chr(98 + 2 * i)
        f.write(f'(assert (or (str.in_re s (re.++ re.all (str.to_re "{a}") re.all))'
                f' (str.in_re s (re.++ re.all (str.to_re "{b}") re.all))))\n')
    f.write("(check-sat)\n")
c = '(str.in_re s (str.to_re "a"))'
for k in range(1, 31):
    c = (f'(ite {c} (str.in_re s (re.+ (str.to_re "b")))'
         f' (str.in_re s (str.to_re "c{k - 1}")))')
with open(f"{work}/ite_chain.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            f"(assert {c})\n"
            "(check-sat)\n"
            '(assert (str.in_re s (str.to_re "zz")))\n'
            "(check-sat)\n")
with open(f"{work}/truncated.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            '(echo "alive")\n'
            '(assert (str.in_re s (re.* (str.to_re "a"')
EOF

FAILED=0
# check <label> <exit-code> <output-file> [lines the output must contain...]
check() {
  if [ "$2" -ge 128 ]; then
    echo "FAIL: $1 died by signal $(($2 - 128))"
    tail -n 5 "$3" | cut -c1-200
    FAILED=1
    return
  fi
  for line in "${@:4}"; do
    if ! grep -qxF "$line" "$3"; then
      echo "FAIL: $1 exited $2 without answering $line"
      FAILED=1
      return
    fi
  done
  echo "ok: $1 (exit $2)"
}
# bounded <label> <elapsed-ms> <bound-ms>
bounded() {
  if [ "$2" -gt "$3" ]; then
    echo "FAIL: $1 took $2 ms (bound $3 ms)"
    FAILED=1
  else
    echo "ok: $1 took $2 ms (bound $3 ms)"
  fi
}

set +e
"$ANALYZE" "$(cat "$WORK/deep_pattern.txt")" > "$WORK/out1" 2>&1
check "sbd-analyze <20,000-deep pattern>" $? "$WORK/out1"
"$ANALYZE" --file "$WORK/deep_pattern.txt" > "$WORK/out2" 2>&1
check "sbd-analyze --file <20,000-deep pattern>" $? "$WORK/out2"
"$ANALYZE" --file "$WORK/truncated.smt2" > "$WORK/out3" 2>&1
check "sbd-analyze --file <truncated script>" $? "$WORK/out3"
"$SERVER" < "$WORK/deep_term.smt2" > "$WORK/out4" 2>&1
check "sbd-server <30,000-deep term>" $? "$WORK/out4" '"alive"'
"$SERVER" < "$WORK/truncated.smt2" > "$WORK/out5" 2>&1
check "sbd-server <truncated script>" $? "$WORK/out5" '"alive"'
"$SERVER" < "$WORK/wide_literal.smt2" > "$WORK/out6" 2>&1
check "sbd-server <100,000-character literal>" $? "$WORK/out6" sat '"alive"'
"$ANALYZE" "$(cat "$WORK/wide_pattern.txt")" > "$WORK/out7" 2>&1
check "sbd-analyze <100,000-character pattern>" $? "$WORK/out7"
"$ANALYZE" --file "$WORK/wide_pattern.txt" > "$WORK/out8" 2>&1
check "sbd-analyze --file <100,000-character pattern>" $? "$WORK/out8"
"$SERVER" < "$WORK/huge_numeral.smt2" > "$WORK/out9" 2>&1
check "sbd-server <20-digit numeral>" $? "$WORK/out9" '"alive"'
"$SERVER" < "$WORK/huge_push.smt2" > "$WORK/out10" 2>&1
check "sbd-server <(push 1000000000000)>" $? "$WORK/out10" '"alive"'
"$SERVER" < "$WORK/wide_loop.smt2" > "$WORK/out11" 2>&1
check "sbd-server <100,000-iteration loop>" $? "$WORK/out11" sat '"alive"'
"$ANALYZE" 'a{1000000}' > "$WORK/out12" 2>&1
check "sbd-analyze <a{1000000}>" $? "$WORK/out12"
START_NS=$(date +%s%N)
"$ANALYZE" --file "$WORK/wide_union.txt" > "$WORK/out13" 2>&1
RC=$?
UNION_MS=$((($(date +%s%N) - START_NS) / 1000000))
check "sbd-analyze --file <20,000-alternative union>" $RC "$WORK/out13"
bounded "the 20,000-alternative union" "$UNION_MS" "$UNION_BOUND_MS"
# Prints "<exit code> <elapsed ms> <peak RSS MiB>" of the child.
python3 - "$ANALYZE" --file "$WORK/pred_union.txt" > "$WORK/out16" << 'PY'
import resource, subprocess, sys, time
start = time.monotonic()
rc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL).returncode
ms = int((time.monotonic() - start) * 1000)
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
print(rc if rc >= 0 else 128 - rc, ms, rss)
PY
read -r RC PRED_MS PRED_RSS < "$WORK/out16"
check "sbd-analyze --file <20,000-character union>" "$RC" "$WORK/out16"
bounded "the 20,000-character union" "$PRED_MS" "$UNION_BOUND_MS"
if [ "$PRED_RSS" -gt "$PRED_UNION_RSS_MB" ]; then
  echo "FAIL: the 20,000-character union peaked at $PRED_RSS MiB (bound $PRED_UNION_RSS_MB MiB)"
  FAILED=1
else
  echo "ok: the 20,000-character union peaked at $PRED_RSS MiB (bound $PRED_UNION_RSS_MB MiB)"
fi
"$SERVER" < "$WORK/disjunctions.smt2" > "$WORK/out14" 2>&1
check "sbd-server <13 disjunctions under a length bound>" $? "$WORK/out14" unsat
START_NS=$(date +%s%N)
"$SERVER" < "$WORK/ite_chain.smt2" > "$WORK/out15" 2>&1
RC=$?
ITE_MS=$((($(date +%s%N) - START_NS) / 1000000))
check "sbd-server <30-deep ite chain>" $RC "$WORK/out15" sat unsat
bounded "the 30-deep ite chain" "$ITE_MS" "$ITE_BOUND_MS"
set -e

if [ "$FAILED" -ne 0 ]; then
  echo "hostile-input gate FAILED"
  exit 1
fi
echo "hostile-input gate passed"
