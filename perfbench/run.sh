#!/usr/bin/env bash
# Builds the benchmark from the checkout's own source and runs it.
#
#   bash perfbench/run.sh --workload counter --seed 1 --seconds 10 --trace 0
#
# Arguments pass through to the perfbench binary. Everything the build
# and the run write stays under .bench_build/perfbench in the checkout
# (binary, Go build cache, span files). The build prints to stderr only,
# so the last line of stdout is the benchmark's result object.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"

(
	cd "$root/perfbench"
	env GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" -root "$root" -span-dir "$out/spans" "$@"
