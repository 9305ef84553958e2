#!/usr/bin/env bash
# Builds and runs the Oak serving benchmark. Works from any directory; the
# benchmark itself always runs from the repository root. The Go build cache,
# the toolchain's scratch space and the built binaries live inside the
# checkout (.bench_build/), so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/bin .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache" GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$root/.bench_build/bin/oakserve-bench" .
exec "$root/.bench_build/bin/oakserve-bench" "$@"
