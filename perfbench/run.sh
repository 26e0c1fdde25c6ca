#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload replay-1g --seed 1 --seconds 25 --trace 0
#
# Build cache, inputs and results stay under .bench_build/perfbench.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
# Name the commit in the machine record when this is a git work tree.
PERFBENCH_COMMIT="${PERFBENCH_COMMIT:-$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short HEAD 2>/dev/null || true)}"
export PERFBENCH_COMMIT
exec "$out/perfbench" "$@"
