#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; the arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload swarm_2k --seed 3 --seconds 36 --trace 0
#
# Build outputs, the Go build cache and the benchmark's spans and results
# all stay under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
# The revision is read here rather than stamped by go build, so a
# checkout without git (or inside someone else's repository) still builds.
PERFBENCH_GIT_REV=unknown
if [ -e "$root/.git" ]; then
	PERFBENCH_GIT_REV=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
export PERFBENCH_GIT_REV
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
