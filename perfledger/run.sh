#!/usr/bin/env bash
# Builds the coupling benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfledger/run.sh --workload control --seed 1 --seconds 10 --trace 0
#
# Every build output (binary, Go build cache, temporary files) goes under
# .bench_build in the current directory, so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfledger" ]]; then
	echo "perfledger: run from the repository root (need go.mod and perfledger/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfledger" && go build -o "$out/perfledger" .)
exec "$out/perfledger" "$@"
