#!/usr/bin/env bash
# check_kernels.sh — the kernel-speedup gate for the default build.
#
# ROADMAP: the blocked matmul must beat the naive reference on the
# DEFAULT build (no GOAMD64 flags), because that is what `go build`
# gives every user. The init-time CPU-feature dispatch (tensor/dispatch.go)
# selects the AVX2+FMA assembly kernels at package init when the host
# supports them, so the default build should see the same speedups as a
# GOAMD64=v3 build. This gate fails if the blocked/naive ratio at
# 192x192 (single-core) drops below a floor — e.g. if the dispatch
# silently regresses to the generic kernels on a machine that has AVX2,
# or a kernel change loses the advantage.
#
# The floor is deliberately below the observed ~7x with the assembly
# kernels but above the ~1.2x the generic path manages, so it trips on
# "dispatch broke", not on benchmark noise. On hosts without AVX2 the
# generic kernels cannot reach the floor; the gate detects the active
# kernel via AUTONOMIZER_KERNEL-aware TestKernelSelected logging and
# applies the generic floor instead. All floors are overridable:
#   MIN_SPEEDUP_192         (default 3.0, accelerated kernels)
#   MIN_SPEEDUP_192_GENERIC (default 0.9, generic fallback)
#   MIN_CONV_SPEEDUP        (default 2.0, accelerated kernels)
#   MIN_CONV_SPEEDUP_GENERIC (default 1.1, generic fallback)
#
# The conv gate compares the implicit-GEMM convolution (gather fused
# into GEBP packing, DESIGN.md §5j) against the materialized im2col
# lowering on the same geometry, forward and backward, inside one
# benchmark process — a ratio, so host-speed jitter cancels. The fusion
# helps the generic kernels too (it removes the column matrix and its
# re-pack), hence a floor above 1x even without AVX2.
#
# Every ratio is a ratio of medians: the benchmark binary is built once
# and run SAMPLES (5) times, each run timing both sides of every
# ratio, so the samples of the two sides interleave and a burst of host
# noise lands on both. One sample per side let a single slow stretch on
# a shared host decide the gate.
set -euo pipefail

cd "$(dirname "$0")/.."

MIN_SPEEDUP_192="${MIN_SPEEDUP_192:-3.0}"
MIN_SPEEDUP_192_GENERIC="${MIN_SPEEDUP_192_GENERIC:-0.9}"
MIN_CONV_SPEEDUP="${MIN_CONV_SPEEDUP:-2.0}"
MIN_CONV_SPEEDUP_GENERIC="${MIN_CONV_SPEEDUP_GENERIC:-1.1}"
readonly SAMPLES=5

# -count=1 defeats the test cache: the dispatch reads AUTONOMIZER_KERNEL
# at package init, before the test runner's env tracking starts, so a
# cached log can report the wrong kernel.
kernel=$(go test -count=1 ./internal/tensor/ -run TestKernelSelected -v 2>/dev/null \
    | awk -F'active kernel: ' '/active kernel:/ { split($2, a, " "); print a[1]; exit }')
if [ -z "$kernel" ]; then
    echo "FAIL: could not determine the active kernel implementation" >&2
    exit 1
fi

floor="$MIN_SPEEDUP_192"
conv_floor="$MIN_CONV_SPEEDUP"
if [ "$kernel" = "generic" ]; then
    floor="$MIN_SPEEDUP_192_GENERIC"
    conv_floor="$MIN_CONV_SPEEDUP_GENERIC"
fi
echo "kernel gate: active kernel '$kernel', matmul floor $floor, conv floor $conv_floor, median of $SAMPLES samples"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/bench.test" ./internal/bench/

# sample PATTERN BENCHTIME runs the benchmarks matching PATTERN SAMPLES
# times, interleaved, printing every result line.
sample() {
    for _ in $(seq "$SAMPLES"); do
        (cd internal/bench && "$tmp/bench.test" -test.run '^$' \
            -test.bench "$1" -test.benchtime "$2") | grep '^Benchmark'
    done
}

# median NAME prints the median ns/op of benchmark NAME in $out, or
# nothing unless all SAMPLES readings are present.
median() {
    printf '%s\n' "$out" | awk -v name="$1" '$1 ~ "/" name "(-|$)" { print $3 }' | sort -g |
        awk -v n="$SAMPLES" '{ v[NR] = $1 } END { if (NR == n) print v[int((n + 1) / 2)] }'
}

out=$(sample 'BenchmarkKernels/MatMul(Naive|Blocked)192$' 5x)
printf '%s\n' "$out"

naive=$(median MatMulNaive192)
blocked=$(median MatMulBlocked192)
if [ -z "$naive" ] || [ -z "$blocked" ]; then
    echo "FAIL: missing benchmark output (naive='$naive' blocked='$blocked')" >&2
    exit 1
fi

awk -v naive="$naive" -v blocked="$blocked" -v floor="$floor" -v kernel="$kernel" 'BEGIN {
    speedup = naive / blocked
    printf "kernel gate: blocked/naive median speedup at 192x192 = %.2fx (floor %.1fx, kernel %s)\n",
        speedup, floor, kernel
    if (speedup < floor) {
        printf "FAIL: default-build speedup %.2fx below floor %.1fx.\n", speedup, floor > "/dev/stderr"
        print "The init-time kernel dispatch may have regressed (see internal/tensor/dispatch.go)." > "/dev/stderr"
        exit 1
    }
}'

# Conv gate: implicit-GEMM vs materialized im2col, forward and backward.
out=$(sample 'BenchmarkKernels/Conv(Forward|Backward)(Im2Col|Implicit)$' 50x)
printf '%s\n' "$out"

fwd_ref=$(median ConvForwardIm2Col)
fwd_imp=$(median ConvForwardImplicit)
bwd_ref=$(median ConvBackwardIm2Col)
bwd_imp=$(median ConvBackwardImplicit)
if [ -z "$fwd_ref" ] || [ -z "$fwd_imp" ] || [ -z "$bwd_ref" ] || [ -z "$bwd_imp" ]; then
    echo "FAIL: missing conv benchmark output" >&2
    exit 1
fi

awk -v fr="$fwd_ref" -v fi="$fwd_imp" -v br="$bwd_ref" -v bi="$bwd_imp" \
    -v floor="$conv_floor" -v kernel="$kernel" 'BEGIN {
    fwd = fr / fi
    bwd = br / bi
    printf "kernel gate: implicit-GEMM conv median speedup forward %.2fx backward %.2fx (floor %.1fx, kernel %s)\n",
        fwd, bwd, floor, kernel
    if (fwd < floor || bwd < floor) {
        printf "FAIL: conv speedup (fwd %.2fx, bwd %.2fx) below floor %.1fx.\n", fwd, bwd, floor > "/dev/stderr"
        print "The implicit-GEMM packers may have regressed (see internal/tensor/convgemm.go)." > "/dev/stderr"
        exit 1
    }
}'
