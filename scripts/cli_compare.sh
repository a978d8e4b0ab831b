#!/usr/bin/env bash
# Compare two builds of the command-line tools on the command lines
# that tests/CMakeLists.txt and .github/workflows/ci.yml run: stdout,
# exit status, every --json report and every file a run writes
# (BENCH_*.json, --out, --lab-out, lab result sets) must match byte for
# byte. Use it to show that a change to the tools' front ends leaves
# their behaviour alone.
#
#   scripts/cli_compare.sh OLD_TOOLS NEW_TOOLS [WORK_DIR] [--quick]
#
# OLD_TOOLS and NEW_TOOLS are build/tools directories of the two trees.
# Each side runs from its own WORK_DIR/{old,new} directory, where
# `examples` and `bench` link to this checkout, so the CI jobs'
# relative paths resolve. --quick skips the nightly-sized runs (the
# 500-kernel fuzz sweeps and the 512-request serve sweep).
#
# Masked before comparing, because they are wall clock or thread
# scheduling and differ between two runs of the same binary:
#   - liquid-lab run stdout: the "in N.NNs" campaign time and the
#     "N stolen" work-steal count;
#   - liquid-fast --bench: the measured insts/sec lines on stdout and
#     the "throughput" block of BENCH_fast.json;
#   - liquid-serve run --json: the live server's per-response source
#     and its stats/cache counters (hot hits and coalescing depend on
#     when worker threads finish).
# The three *_bad_widths command lines compare exit status only: they
# are usage errors, and a usage error no longer prints the usage text.
#
# Exit status: 0 when every compared output matches, 1 otherwise.

set -u

if [ $# -lt 2 ]; then
    sed -n '2,30p' "$0"
    exit 2
fi
OLD=$(cd "$1" && pwd)
NEW=$(cd "$2" && pwd)
WORK=${3:-$(mktemp -d)}
QUICK=0
[ "${4:-}" = "--quick" ] && QUICK=1
SRC=$(cd "$(dirname "$0")/.." && pwd)
SEED=20261019

rm -rf "$WORK/old" "$WORK/new" "$WORK/out"
for side in old new; do
    mkdir -p "$WORK/$side"
    ln -s "$SRC/examples" "$WORK/$side/examples"
    ln -s "$SRC/bench" "$WORK/$side/bench"
    mkdir -p "$WORK/$side/fast-results" "$WORK/$side/serve-results" \
             "$WORK/$side/fast_failures"
done
mkdir -p "$WORK/out"

failures=0
compared=0

# mask NAME FILE: blank the wall-clock fields named above.
mask()
{
    case "$1" in
      lab_run*)
        sed -E -i -e 's/ [0-9]+ stolen\)/ N stolen)/' \
            -e 's/ in [0-9.]+s -> / in Ts -> /' "$2" ;;
      fast_bench)
        sed -E -i '/retired insts\/sec|^speedup:/d' "$2" ;;
      serve_run*)
        python3 - "$2" <<'EOF'
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

# run MODE NAME TOOL ARGS...: run TOOL on both sides and compare.
# MODE is "same" (stdout and status) or "status" (status only).
run()
{
    local mode=$1 name=$2 tool=$3
    shift 3
    for side in old new; do
        local bin=$OLD
        [ $side = new ] && bin=$NEW
        (cd "$WORK/$side" &&
         "$bin/$tool" "$@" > "$WORK/out/$name.$side.stdout" \
             2> "$WORK/out/$name.$side.stderr"
         echo $? > "$WORK/out/$name.$side.status")
        mask "$name" "$WORK/out/$name.$side.stdout"
    done
    compared=$((compared + 1))
    local what="status"
    [ "$mode" = same ] && what="stdout status"
    for part in $what; do
        if ! cmp -s "$WORK/out/$name.old.$part" \
                    "$WORK/out/$name.new.$part"; then
            echo "DIFF $name ($part): $tool $*"
            diff "$WORK/out/$name.old.$part" "$WORK/out/$name.new.$part" \
                | head -5
            failures=$((failures + 1))
        fi
    done
}

SAXPY=examples/asm/saxpy.s
BUTTERFLY=examples/asm/butterfly.s
LAB_EXACT=(--tol 0 --counter core.insts:0 --counter core.dcacheMissCycles:0
           --counter icache.accesses:0 --counter icache.hits:0
           --counter icache.misses:0 --counter dcache.accesses:0
           --counter dcache.hits:0 --counter dcache.misses:0
           --counter dcache.writes:0)
FAST_EXACT=(--counter fast.insts:0 --counter core.insts:0
            --counter icache.accesses:0 --counter icache.hits:0
            --counter icache.misses:0 --counter dcache.accesses:0
            --counter dcache.hits:0 --counter dcache.misses:0
            --counter dcache.writes:0)

# ---- tests/CMakeLists.txt -------------------------------------------------
run same cli_sweep liquid-run --sweep $SAXPY
run same cli_ucode liquid-run --ucode --stats $BUTTERFLY
run same cli_pretranslate liquid-run --pretranslate --ucode $BUTTERFLY
run same cli_verify_saxpy liquid-verify $SAXPY
run same cli_verify_butterfly liquid-verify -w 8 $BUTTERFLY
run same cli_verify_suite liquid-verify --suite
run same cli_verify_json liquid-verify --json --suite
run same cli_run_list liquid-run --list
run same cli_run_filter liquid-run --filter fir --sweep
run same cli_lab_list liquid-lab list --smoke
run same lab_run_ucache liquid-lab run --smoke --experiment ucache \
    --filter "/fir/" --no-cache --out lab-smoke
run same lab_run_fig6 liquid-lab run --experiment fig6 --smoke --no-cache \
    --out lab-fig6
run same lab_fig6_counters_exact liquid-lab diff lab-fig6/BENCH_fig6.json \
    bench/baseline/BENCH_fig6.json "${LAB_EXACT[@]}"
run same lab_fig6_counters_exact_swapped liquid-lab diff \
    bench/baseline/BENCH_fig6.json lab-fig6/BENCH_fig6.json "${LAB_EXACT[@]}"
run same cli_chaos_smoke liquid-chaos smoke --workloads fir,fft
run same cli_chaos_explore liquid-chaos explore --window 4 --trials 4 \
    --workloads fir
run same cli_chaos_run_json liquid-chaos run \
    --schedule "int@40+flush@80+smc@100" --workloads fir --json
run same cli_scan_saxpy liquid-scan $SAXPY
run same cli_scan_suite_json liquid-scan --json --suite
run same cli_scan_validate liquid-scan --suite --validate \
    bench/baseline/BENCH_fig6.json
run same cli_proof_suite liquid-proof --suite --werror
run same cli_proof_suite_json liquid-proof --suite --json
run same cli_proof_symbolic_n liquid-proof --suite --symbolic-n --werror
run same cli_proof_sabotage liquid-proof --sabotage
run same cli_proof_file liquid-proof --widths 4,8 $SAXPY
run same cli_scan_prove_json liquid-scan --json --suite --prove
run same cli_verify_prove_suite liquid-verify --suite --prove --werror
run same cli_range_suite liquid-range --suite
run same cli_range_sabotage liquid-range --sabotage
run same cli_range_json liquid-range --json $SAXPY
run same cli_fast_lockstep liquid-fast --workloads fir,fft --random 5
run same cli_fast_sabotage liquid-fast --workloads fir --sabotage
run same cli_fast_json liquid-fast --workloads fir --json --switch
run same cli_run_functional liquid-run --tier functional --filter fir --stats
run same cli_run_functional_rejects_trace liquid-run --tier functional \
    --trace --filter fir
run same cli_run_warmup liquid-run --filter fir --mode native --warmup 1000
run same cli_poly_suite liquid-poly --suite
run same cli_poly_sabotage liquid-poly --sabotage
run same cli_poly_json liquid-poly --json --random 5
run same cli_verify_poly_json liquid-verify --poly --json $SAXPY
run same cli_chaos_reference_cycle liquid-chaos smoke --workloads fir \
    --reference cycle
run same serve_run_ctest liquid-serve run --workloads fir --widths 4 --json
run same cli_serve_loadgen liquid-serve loadgen --qps 2000 --requests 24 \
    --workloads fir --widths 4 --seed 7 --json
run same cli_serve_sweep liquid-serve sweep --qps 2000,4000 --requests 24 \
    --workloads fir --widths 4 --p99-target-us 10000000 --json \
    --lab-out serve-smoke.json
run same serve_bench_sweep liquid-serve sweep --seed 1 \
    --qps 500,1000,2000,4000,8000,16000 --requests 128 --widths 2,4,8,16 \
    --p99-target-us 11000 --lab-out BENCH_serve.json
run same cli_serve_p99_violation liquid-serve loadgen --qps 2000 \
    --requests 24 --workloads fir --widths 4 --p99-target-us 1
run status cli_scan_bad_widths liquid-scan --widths abc --suite
run status cli_range_bad_widths liquid-range --widths 3 --suite
run status cli_serve_bad_widths liquid-serve run --workloads fir \
    --widths abc

# ---- .github/workflows/ci.yml -----------------------------------------------
run same lab_run_all liquid-lab run --all --smoke --no-cache --jobs 4 \
    --out bench-results --render
run same ci_lab_diff liquid-lab diff bench-results/BENCH_fig6.json \
    bench/baseline/BENCH_fig6.json --tol 2
for f in examples/asm/*.s; do
    b=$(basename "$f" .s)
    run same "ci_verify_$b" liquid-verify --json "$f"
    run same "ci_scan_$b" liquid-scan --json "$f"
    run same "ci_range_$b" liquid-range --json "$f"
done
run same ci_verify_suite_ranges_poly liquid-verify --json --suite --ranges \
    --poly
run same ci_scan_suite_validate liquid-scan --json --suite --ranges \
    --validate bench/baseline/BENCH_fig6.json
run same ci_range_suite_json liquid-range --suite --json
run same ci_range_sabotage_json liquid-range --sabotage --json
run same ci_proof_suite_werror liquid-proof --suite --werror --json
run same ci_proof_symbolic_n liquid-proof --suite --symbolic-n --werror --json
run same ci_proof_sabotage liquid-proof --sabotage --json
run same ci_poly_random3 liquid-poly --random 3 --json
run same ci_chaos_run liquid-chaos run --schedule int@40 --workloads fir \
    --json
run same lab_run_predict liquid-lab run --smoke --experiment fig6 \
    --filter fir --no-cache --predict --prove --out lab-proof
run same ci_fast_random50 liquid-fast --random 50 --json
run same ci_fast_switch50 liquid-fast --switch --random 50
run same ci_fast_sabotage liquid-fast --sabotage --json
run same fast_bench liquid-fast --bench --out fast-results/BENCH_fast.json
for side in old new; do
    python3 - "$WORK/$side/fast-results/BENCH_fast.json" <<'EOF'
import json, sys
path = sys.argv[1]
rep = json.load(open(path))
rep.pop('throughput', None)
open(path, 'w').write(json.dumps(rep, indent=1))
EOF
done
run same ci_fast_diff liquid-lab diff fast-results/BENCH_fast.json \
    bench/baseline/BENCH_fast.json "${FAST_EXACT[@]}"
run same ci_fast_diff_swapped liquid-lab diff bench/baseline/BENCH_fast.json \
    fast-results/BENCH_fast.json "${FAST_EXACT[@]}"
run same ci_chaos_smoke liquid-chaos smoke
run same ci_chaos_explore liquid-chaos explore --window 8 --trials 8 \
    --workloads fir,fft,mpeg2enc,gsmdec
run same serve_run_ci liquid-serve run --json
run same ci_serve_sweep liquid-serve sweep --seed 1 \
    --qps 500,1000,2000,4000,8000,16000 --requests 128 --widths 2,4,8,16 \
    --p99-target-us 11000 --json --lab-out serve-results/BENCH_serve.json
run same ci_poly_suite50 liquid-poly --suite --random 50 --json
run same ci_poly_sabotage liquid-poly --sabotage --json
if [ $QUICK = 0 ]; then
    run same ci_fast_fuzz liquid-fast --random 500 --seed $SEED \
        --dump-dir fast_failures
    run same ci_fast_fuzz_switch liquid-fast --random 500 --seed $SEED \
        --switch --dump-dir fast_failures
    run same ci_fast_fuzz_faults liquid-fast \
        --faults "int@50+smc@123+flush@400" --random 250 --seed $SEED \
        --dump-dir fast_failures
    run same ci_serve_sweep_nightly liquid-serve sweep --seed 1 \
        --qps 500,1000,2000,4000,8000,16000,32000 --requests 512 \
        --widths 2,4,8,16 --p99-target-us 11000 --distribution --json
    run same ci_poly_fuzz liquid-poly --random 500 --seed $SEED --json
fi

# ---- files the runs wrote ---------------------------------------------------
files=$(cd "$WORK/old" && find . -path ./examples -prune -o \
            -path ./bench -prune -o -type f -print | sort)
newFiles=$(cd "$WORK/new" && find . -path ./examples -prune -o \
               -path ./bench -prune -o -type f -print | sort)
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
