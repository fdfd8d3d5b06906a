#!/usr/bin/env bash
# Builds the campaign benchmark and the mfc-campaign binary from this
# checkout's sources, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload run-clean --seed 11 --seconds 15 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# inside the checkout: compiler caches under .bench_build/, campaign
# stores, traces and result files under .bench_out/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mfc-campaign" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mfc-campaign and perfbench/ are required)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/mfc-campaign" mfc/cmd/mfc-campaign)

exec "$build/perfbench" -bin "$build/mfc-campaign" -out "$root/.bench_out" "$@"
