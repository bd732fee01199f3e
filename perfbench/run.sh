#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash perfbench/run.sh --open-rps 400 --workload rl_all --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live in .bench_build at the root, so
# nothing is read or written outside the checkout except the Go toolchain.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# Stamp the commit into the binary only where git can read the checkout.
vcs=false
if git -C "$root/perfbench" rev-parse --git-dir >/dev/null 2>&1; then
	vcs=auto
fi
(cd "$root/perfbench" && go build -buildvcs="$vcs" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
