#!/usr/bin/env bash
# Compare two builds of the command-line tools on every tool command
# line that ctest runs, plus the nightly date-seeded sweeps and the
# bench/ table binaries next to each tools/ directory: stdout,
# stderr, exit status, every --json report and every file a run writes
# (BENCH_*.json, --out, --lab-out, lab result sets) must match byte for
# byte. Use it to show that a change to the tools leaves their
# behaviour alone, error texts included (a panic that became a fatal
# exits 2 with empty stdout either way).
#
#   scripts/cli_compare.sh OLD_TOOLS NEW_TOOLS [WORK_DIR] [--quick]
#
# OLD_TOOLS and NEW_TOOLS are build/tools directories of the two trees.
# The command lines come from `ctest --show-only=json-v1` in the NEW
# build tree (tests/CMakeLists.txt): each case that runs a tool from
# NEW_TOOLS, directly or through tests/cli_expect.cmake, is run on both
# builds. Paths into that tree's source and build directories become
# relative: each side runs from its own WORK_DIR/{old,new} directory,
# where `examples`, `bench` and `tests` link to the source tree.
# --quick skips the nightly-sized sweeps (the 500-kernel fuzz runs).
# Every bench_* binary in NEW_TOOLS/../bench runs with no arguments on
# both builds (about 0.6 s a side).
#
# Masked before comparing, because they are wall clock or thread
# scheduling and differ between two runs of the same binary:
#   - liquid-lab run stdout: the "in N.NNs" campaign time and the
#     "N stolen" work-steal count;
#   - liquid-fast --bench: the measured insts/sec lines on stdout and
#     the "throughput" block of the BENCH_fast.json it writes;
#   - liquid-serve run --json: the live server's per-response source
#     and its stats/cache counters (hot hits and coalescing depend on
#     when worker threads finish).
# All of these are on stdout; stderr carries no wall-clock text and is
# compared as written.
#
# Exit status: 0 when every compared output matches, 1 otherwise.

set -u

if [ $# -lt 2 ]; then
    sed -n '2,36p' "$0"
    exit 2
fi
OLD=$(cd "$1" && pwd)
NEW=$(cd "$2" && pwd)
WORK=${3:-$(mktemp -d)}
QUICK=0
[ "${4:-}" = "--quick" ] && QUICK=1
BUILD=$(cd "$NEW/.." && pwd)
SRC=$(sed -n 's/^CMAKE_HOME_DIRECTORY:INTERNAL=//p' "$BUILD/CMakeCache.txt")
SEED=20261019

rm -rf "$WORK/old" "$WORK/new" "$WORK/out"
for side in old new; do
    mkdir -p "$WORK/$side/fast_failures"
    ln -s "$SRC/examples" "$WORK/$side/examples"
    ln -s "$SRC/bench" "$WORK/$side/bench"
    ln -s "$SRC/tests" "$WORK/$side/tests"
done
mkdir -p "$WORK/out"

failures=0
compared=0

# mask FILE TOOL ARGS...: blank the wall-clock fields named above.
mask()
{
    local file=$1 tool=$2
    shift 2
    case "$tool $*" in
      "liquid-lab run"*)
        sed -E -i -e 's/ [0-9]+ stolen\)/ N stolen)/' \
            -e 's/ in [0-9.]+s -> / in Ts -> /' "$file" ;;
      "liquid-fast --bench"*)
        sed -E -i '/retired insts\/sec|^speedup:/d' "$file"
        python3 - "$@" <<'EOF'
import json, sys
args = sys.argv[1:]
path = args[args.index('--out') + 1]
rep = json.load(open(path))
rep.pop('throughput', None)
open(path, 'w').write(json.dumps(rep, indent=1))
EOF
        ;;
      "liquid-serve run"*--json*)
        python3 - "$file" <<'EOF'
import json, sys
path = sys.argv[1]
rep = json.load(open(path))
for rnd in rep.get('rounds', []):
    for r in rnd:
        r.pop('source', None)
rep.pop('stats', None)
rep.pop('cache', None)
open(path, 'w').write(json.dumps(rep, indent=1) + '\n')
EOF
        ;;
    esac
}

# run NAME TOOL ARGS...: run TOOL on both sides and compare stdout,
# stderr and exit status.
run()
{
    local name=$1 tool=$2
    shift 2
    for side in old new; do
        local bin=$OLD
        [ $side = new ] && bin=$NEW
        (cd "$WORK/$side" &&
         "$bin/$tool" "$@" > "$WORK/out/$name.$side.stdout" \
             2> "$WORK/out/$name.$side.stderr"
         echo $? > "$WORK/out/$name.$side.status"
         mask "$WORK/out/$name.$side.stdout" "$tool" "$@")
    done
    compared=$((compared + 1))
    for part in stdout stderr status; do
        if ! cmp -s "$WORK/out/$name.old.$part" \
                    "$WORK/out/$name.new.$part"; then
            echo "DIFF $name ($part): $tool $*"
            diff "$WORK/out/$name.old.$part" "$WORK/out/$name.new.$part" \
                | head -5
            failures=$((failures + 1))
        fi
    done
}

# ---- every ctest case that runs a tool, in definition order ------------
cases=$(ctest --test-dir "$BUILD" --show-only=json-v1 |
        python3 -c '
import json, os, shlex, sys
tools, build, src = sys.argv[1:4]
for test in json.load(sys.stdin)["tests"]:
    argv = test["command"]
    if "-P" in argv and argv[argv.index("-P") + 1].endswith(
            "cli_expect.cmake"):
        argv = argv[argv.index("--") + 1:]
    if os.path.dirname(argv[0]) != tools:
        continue
    args = [a.replace(build + "/", "").replace(src + "/", "")
            for a in argv[1:]]
    print(shlex.join([test["name"], os.path.basename(argv[0])] + args))
' "$NEW" "$BUILD" "$SRC")
if [ -z "$cases" ]; then
    echo "no tool command lines found in $BUILD" >&2
    exit 2
fi
while IFS= read -r line; do
    eval "run $line"
done <<< "$cases"

# ---- nightly date-seeded sweeps (.github/workflows/ci.yml) ---------------
if [ $QUICK = 0 ]; then
    run fast_fuzz liquid-fast --random 500 --seed $SEED \
        --dump-dir fast_failures
    run fast_fuzz_faults liquid-fast \
        --faults "int@50+smc@123+flush@400" --random 250 --seed $SEED \
        --dump-dir fast_failures
    run poly_fuzz liquid-poly --random 500 --seed $SEED --json
fi

# ---- the bench/ table binaries, run here with no arguments -------------
for table in "$NEW"/../bench/bench_*; do
    [ -f "$table" ] && [ -x "$table" ] || continue
    run "$(basename "$table")" "../bench/$(basename "$table")"
done

# ---- files the runs wrote ---------------------------------------------------
files=$(cd "$WORK/old" && find . -path ./examples -prune -o \
            -path ./bench -prune -o -path ./tests -prune -o \
            -type f -print | sort)
newFiles=$(cd "$WORK/new" && find . -path ./examples -prune -o \
               -path ./bench -prune -o -path ./tests -prune -o \
               -type f -print | sort)
if [ "$files" != "$newFiles" ]; then
    echo "DIFF written file sets:"
    diff <(echo "$files") <(echo "$newFiles") | head -10
    failures=$((failures + 1))
fi
for f in $files; do
    compared=$((compared + 1))
    if ! cmp -s "$WORK/old/$f" "$WORK/new/$f"; then
        echo "DIFF file $f"
        failures=$((failures + 1))
    fi
done

echo "$compared outputs compared, $failures difference(s) (work dir $WORK)"
[ $failures = 0 ]
