#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and
# executes it with the given flags, e.g.
#
#   bash e2ebench/run.sh --workload replay-seq --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build artefact (Go build cache,
# binary, span files) stays under .bench_build/ in that directory, and
# nothing is fetched: the module has no dependencies outside the repo.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
