#!/usr/bin/env bash
# Hostile-input gate: inputs that used to kill a process must end in an
# answer or a typed error instead.
#
#   - a pattern nested 20,000 parentheses deep, through sbd-analyze (as an
#     argument and as a --file line);
#   - a script whose str.in_re term nests (re.* ...) 30,000 deep, through
#     sbd-server;
#   - a script truncated inside a command, through both.
#
# Gates (all hard failures):
#   - every process exits below 128, i.e. not by a signal. Sanitizer
#     reports abort (abort_on_error), so under ASan+UBSan they count as
#     signal deaths too;
#   - sbd-server still answers the (echo "alive") that follows the deep
#     term, and the commands before the truncation.
#
# Usage: hostile_input.sh <build-dir>    (CI runs it on build-asan)
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
with open(f"{work}/truncated.smt2", "w") as f:
    f.write("(declare-const s String)\n"
            '(echo "alive")\n'
            '(assert (str.in_re s (re.* (str.to_re "a"')
EOF

FAILED=0
# check <label> <exit-code> <output-file> [line the output must contain]
check() {
  if [ "$2" -ge 128 ]; then
    echo "FAIL: $1 died by signal $(($2 - 128))"
    tail -n 5 "$3"
    FAILED=1
  elif [ -n "${4:-}" ] && ! grep -qxF "$4" "$3"; then
    echo "FAIL: $1 exited $2 without answering $4"
    FAILED=1
  else
    echo "ok: $1 (exit $2)"
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
set -e

if [ "$FAILED" -ne 0 ]; then
  echo "hostile-input gate FAILED"
  exit 1
fi
echo "hostile-input gate passed"
