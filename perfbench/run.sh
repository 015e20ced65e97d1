#!/usr/bin/env bash
# Builds the serving binaries and the perfbench command from this checkout
# into .bench_build/ and runs perfbench. Run from the repository root:
#   bash perfbench/run.sh --workload serve_cold --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/insightalign-serve" ] || [ ! -d "$root/cmd/insightalign-router" ]; then
	echo "perfbench: run from the repository root (cmd/ sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
# Keep every build artifact inside the checkout and never reach the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go build -o "$out/bin/insightalign-serve" ./cmd/insightalign-serve
go build -o "$out/bin/insightalign-router" ./cmd/insightalign-router
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
