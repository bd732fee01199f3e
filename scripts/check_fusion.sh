#!/usr/bin/env bash
# check_fusion.sh — the no-implicit-FMA gate for the determinism contract.
#
# Results must be bit-identical on every GOARCH the toolchain builds
# (DESIGN.md §5g). On arm64, ppc64le and s390x the Go compiler fuses an
# expression x*y + z into one fused multiply-add instruction, which
# rounds once where amd64 rounds the product and the sum separately, so
# the same source gives different bits there. Code that wants fusion
# says so with math.FMA (the kernels' fold). Everywhere else a product
# that feeds an add or subtract is rounded explicitly, float64(x*y),
# which the Go spec says must not be fused; amd64 output is unchanged.
#
# The gate cross-compiles ./internal/... for those three GOARCHes with
# -gcflags=-S and counts fused multiply-add instructions per function.
# It fails when a function outside the allowlist below contains one, or
# when an allowlisted function's count differs from its entry: each
# entry is a function whose math.FMA calls compile to exactly that many
# instructions. Needs only the Go toolchain (cross-compiling is built
# in); the build cache replays the listing on unchanged packages.
set -euo pipefail

cd "$(dirname "$0")/.."

# function (package-qualified, below internal/)  fused instruction count
allow='
tensor.(*PackedDense).Forward 1
tensor.gemvGeneric 4
tensor.matMulABTNaive 5
tensor.matMulNaiveRange 1
tensor.matMulPackedTile 52
tensor.tileStridedGeneric 16
'

fail=0
for arch in arm64 ppc64le s390x; do
    listing=$(GOARCH="$arch" go build -gcflags=-S ./internal/... 2>&1) || {
        printf '%s\n' "$listing" | tail -20 >&2
        echo "FAIL: cross-compile for $arch failed" >&2
        exit 1
    }
    # One line per function with fused instructions: name, count, and
    # the source position of the first one.
    found=$(printf '%s\n' "$listing" | awk -F'\t' '
        / STEXT/ { split($0, f, " "); fn = f[1]; sub(/.*\/internal\//, "", fn); next }
        $3 ~ /^FN?M(ADD|SUB)[DS]?$/ {
            if (!(fn in n)) { pos[fn] = $2; sub(/^[^(]*\(/, "", pos[fn]); sub(/\).*/, "", pos[fn]) }
            n[fn]++
        }
        END { for (k in n) print k, n[k], pos[k] }' | sort)
    bad=$(awk -v allow="$allow" 'BEGIN {
            split(allow, lines, "\n")
            for (i in lines) if (lines[i] != "") { split(lines[i], e, " "); want[e[1]] = e[2] }
        }
        {
            if (!($1 in want)) print "  " $1 ": " $2 " fused multiply-add(s), first at " $3
            else if ($2 != want[$1]) print "  " $1 ": " $2 " fused multiply-add(s), allowlist says " want[$1]
            seen[$1] = 1
        }
        END { for (k in want) if (!(k in seen)) print "  " k ": no fused multiply-add, allowlist says " want[k] }' <<<"$found")
    if [ -n "$bad" ]; then
        echo "FAIL ($arch): implicit fused multiply-add outside the math.FMA allowlist:" >&2
        printf '%s\n' "$bad" >&2
        fail=1
    else
        echo "fusion gate: $arch clean ($(wc -l <<<"$found") allowlisted math.FMA functions)"
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "Round the product explicitly, float64(x*y), or use math.FMA and list the function here." >&2
fi
exit "$fail"
