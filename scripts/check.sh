#!/usr/bin/env bash
# Full local CI: strict build, test suite, and static analysis of the
# example corpus plus the two firmwares, src/vmmc/{vmmc,serve}.esp (which
# must stay finding-free).
#
# Usage: scripts/check.sh [build-dir]
#   ESP_SANITIZE=asan scripts/check.sh build-asan   # also: ubsan, tsan
# tsan is the one that matters for the parallel checker (--jobs N): it
# races N workers over the shared visited set and work queue.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-check}"
SANITIZE="${ESP_SANITIZE:-}"

echo "== configure ($BUILD_DIR, ESP_WERROR=ON${SANITIZE:+, ESP_SANITIZE=$SANITIZE}) =="
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DESP_WERROR=ON \
  -DESP_SANITIZE="$SANITIZE"

echo "== build =="
cmake --build "$BUILD_DIR" -j"$(nproc)"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

ESPLINT="$BUILD_DIR/src/tools/esplint"
VMMC_ESP="$REPO_ROOT/src/vmmc/vmmc.esp"
SERVE_ESP="$REPO_ROOT/src/vmmc/serve.esp"

echo "== esplint: example corpus and serve firmware =="
"$ESPLINT" "$REPO_ROOT"/examples/esp/*.esp "$SERVE_ESP"

echo "== esplint: VMMC firmware (--builtin-vmmc is the same text) =="
"$ESPLINT" --builtin-vmmc

SCRATCH_DIR="$(mktemp -d)"
trap 'rm -rf "$SCRATCH_DIR"' EXIT

echo "== esplint: JSON output and --format usage =="
# The JSON report parses for every corpus file and for a file name that
# needs escaping; an unknown --format is a usage error (exit 2).
"$ESPLINT" --format=json "$REPO_ROOT"/examples/esp/*.esp |
  python3 -m json.tool > /dev/null
QUOTED="$SCRATCH_DIR/a\"b.esp"
cp "$REPO_ROOT/examples/esp/quickstart.esp" "$QUOTED"
"$ESPLINT" --format=json "$QUOTED" | python3 -m json.tool > /dev/null
status=0
"$ESPLINT" --format yaml "$QUOTED" > /dev/null 2>&1 || status=$?
if [ "$status" != 2 ]; then
  echo "check.sh: esplint --format yaml exited $status, expected 2" >&2
  exit 1
fi

echo "== esplint: --interference report (text and JSON) =="
# The conflict-class report runs over the corpus and the VMMC firmware
# in both formats; it must exit 0 and its JSON must parse.
"$ESPLINT" --interference "$REPO_ROOT"/examples/esp/*.esp --builtin-vmmc \
  > /dev/null
"$ESPLINT" --interference --format=json "$REPO_ROOT"/examples/esp/*.esp \
  --builtin-vmmc | python3 -m json.tool > /dev/null

ESPMC="$BUILD_DIR/src/tools/espmc"

echo "== espmc: --por golden harnesses =="
# Clean per-process harnesses must stay clean under reduction at one and
# four workers (exit 0 = verified OK), and store the same number of
# states: the cycle proviso is static, so the reduced state graph does
# not depend on the worker count. The differential count assertions
# live in tests/test_mc_por.cpp.
states_stored() {
  python3 -c 'import json, sys; print(json.load(open(sys.argv[1]))["states_stored"])' "$1"
}
for process in translator pageTable; do
  "$ESPMC" --process "$process" --por -q --stats-json "$SCRATCH_DIR/j1.json" \
    "$REPO_ROOT/examples/esp/pagetable.esp"
  "$ESPMC" --process "$process" --por --jobs 4 -q \
    --stats-json "$SCRATCH_DIR/j4.json" "$REPO_ROOT/examples/esp/pagetable.esp"
  j1="$(states_stored "$SCRATCH_DIR/j1.json")"
  j4="$(states_stored "$SCRATCH_DIR/j4.json")"
  if [ "$j1" != "$j4" ]; then
    echo "check.sh: --process $process --por stored $j1 states at --jobs 1" \
      "but $j4 at --jobs 4" >&2
    exit 1
  fi
done
"$ESPMC" --process producer --por \
  "$REPO_ROOT/examples/esp/quickstart.esp" > /dev/null

echo "== ambiguous dispatch, whichever side starts the pairing =="
# Sema cannot prove the two readers' patterns disjoint, and { 1, 5 }
# matches both. In both declaration orders espc --run must fail (exit 1)
# and espmc must report the violation (exit 3).
ESPC="$BUILD_DIR/src/tools/espc"
AMB_CHAN='channel c: record of { k: int, v: int }'
AMB_READERS='process ra { $a = 1; in(c, { a, $x }); }
process rb { $b = 1; in(c, { b, $y }); }'
AMB_WRITER='process w { out(c, { 1, 5 }); }'
printf '%s\n' "$AMB_CHAN" "$AMB_READERS" "$AMB_WRITER" \
  > "$SCRATCH_DIR/readers_first.esp"
printf '%s\n' "$AMB_CHAN" "$AMB_WRITER" "$AMB_READERS" \
  > "$SCRATCH_DIR/writer_first.esp"
expect_exit() {
  local want="$1" status=0
  shift
  "$@" > /dev/null 2>&1 || status=$?
  if [ "$status" != "$want" ]; then
    echo "check.sh: $* exited $status, expected $want" >&2
    exit 1
  fi
}
for order in readers_first writer_first; do
  expect_exit 1 "$ESPC" --run "$SCRATCH_DIR/$order.esp"
  expect_exit 3 "$ESPMC" "$SCRATCH_DIR/$order.esp"
done

echo "== integer overflow wraps, at compile time and at run time =="
# INT64_MIN / -1 is the one overflowing division; it used to kill every
# tool with SIGFPE (exit 136), folded as a constant or evaluated by the
# machine. ESP arithmetic wraps (docs/runtime.md): the quotient is
# INT64_MIN again, which both programs assert.
cat > "$SCRATCH_DIR/overflow_const.esp" <<'EOF'
const BIG = (0 - 9223372036854775807 - 1) / (0 - 1);
channel c: int
process p { out(c, BIG); }
process q { in(c, $y); assert(y == BIG); }
EOF
cat > "$SCRATCH_DIR/overflow_run.esp" <<'EOF'
channel c: int
process p { $x = 0 - 9223372036854775807 - 1; $m = 0 - 1; out(c, x / m); }
process q { in(c, $y); $x = 0 - 9223372036854775807 - 1; assert(y == x); }
EOF
for prog in overflow_const overflow_run; do
  expect_exit 0 "$ESPC" --check "$SCRATCH_DIR/$prog.esp"
  expect_exit 0 "$ESPC" --run "$SCRATCH_DIR/$prog.esp"
  expect_exit 0 "$ESPMC" "$SCRATCH_DIR/$prog.esp"
done

echo "== espmc: bit-state counts repeat across processes =="
# A bit-state search keeps one hash bit per state, so its stored count
# depends on every byte of the state vector. Two processes get
# different ASLR layouts: an address that leaked into the vector (as a
# heap object's type pointer once did) makes the counts differ.
bitstate_counts() {
  "$ESPMC" "$VMMC_ESP" --process pageTable,deliver \
    --env-budget 4 --mode bitstate --bits 14 -q \
    --stats-json "$SCRATCH_DIR/bits.json" > /dev/null 2>&1
  python3 -c 'import json, sys; d = json.load(open(sys.argv[1]));
print(d["states_stored"], d["states_explored"])' "$SCRATCH_DIR/bits.json"
}
first="$(bitstate_counts)"
second="$(bitstate_counts)"
if [ "$first" != "$second" ]; then
  echo "check.sh: bit-state stored/explored $first in one process but" \
    "$second in another" >&2
  exit 1
fi

echo "== espc: the emitted C compiles warning-free =="
# The C backend's output for the corpus and both firmwares, optimized,
# at -O0 and with --safety, must build as strict C99: a scalar message
# passed to esp_unlink or an unused counter fails here.
for src in "$REPO_ROOT"/examples/esp/*.esp "$VMMC_ESP" "$SERVE_ESP"; do
  for mode in --emit-c "-O0 --emit-c" "--safety --emit-c"; do
    "$ESPC" $mode "$src" > "$SCRATCH_DIR/gen.c" 2> "$SCRATCH_DIR/espc.log" ||
      { cat "$SCRATCH_DIR/espc.log" >&2; exit 1; }
    cc -std=c99 -Wall -Wextra -Wno-unused-function -Werror \
      -c "$SCRATCH_DIR/gen.c" -o "$SCRATCH_DIR/gen.o"
  done
done

ESPSERVE="$BUILD_DIR/src/tools/espserve"

echo "== numeric flags: no sign, no wrap, no retired flag =="
# A sign or a value outside the destination's range is a usage error
# (exit 2): "-1" once read as 2^64 - 1, and 2^32 as 0 in a 32-bit field.
# An --int-domain piece must be a whole int64 decimal; atoll once read
# "foo,-x,99999999999999999999" as {0, 0, INT64_MAX}. --snapshot-stride
# and the --maxdepth alias are gone. Every command is capped so that it
# stays small should the check regress.
expect_exit 2 "$ESPSERVE" --machines 4294967296 --requests 10
expect_exit 2 "$ESPMC" "$VMMC_ESP" --process pageTable \
  --max-depth 4294967296 --max-states 1000
expect_exit 2 "$ESPC" --run --max-steps -1 "$SCRATCH_DIR/overflow_run.esp"
expect_exit 2 "$ESPMC" "$VMMC_ESP" --process pageTable \
  --snapshot-stride 4 --max-states 1000
expect_exit 2 "$ESPMC" "$REPO_ROOT/examples/esp/pagetable.esp" \
  --process pageTable --int-domain foo,-x,99999999999999999999 \
  --max-states 1000
expect_exit 2 "$ESPMC" "$REPO_ROOT/examples/esp/pagetable.esp" \
  --process pageTable --maxdepth 5 --max-states 1000

echo "== espserve: fleet smoke (single-worker deterministic + 4 workers) =="
# Exit 0 only when every request completed and the aggregate totals
# match the load generator's prediction (see docs/serving.md). The
# --stats-json report is one "run" object that must carry every
# quantity a fleet run measures.
"$ESPSERVE" --machines 256 --requests 20000 --jobs 1 \
  --conn-requests 64 -q
"$ESPSERVE" --machines 256 --requests 20000 --jobs 4 \
  --conn-requests 64 -q --stats-json "$SCRATCH_DIR/serve.json"
python3 -c 'import json, sys
run = json.load(open(sys.argv[1]))["run"]
missing = set(sys.argv[2:]) - set(run)
sys.exit("check.sh: espserve --stats-json lacks %s" % sorted(missing) if missing else 0)' \
  "$SCRATCH_DIR/serve.json" machines requests workers elapsed_ns \
  requests_per_sec p50_ns p99_ns p999_ns inbox_high_water \
  heap_high_water_max checksum responses steals parks wakes \
  backpressure_stalls resets instructions queue_high_water \
  heap_high_water_p50 heap_high_water_p99

echo "check.sh: all green"
