#!/usr/bin/env bash
# Builds wym, wym-server and the benchmark program from the source tree
# this script sits in, then runs the program with the given arguments:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Every build product and scratch file stays under .bench_build/ at the
# root of the tree. Build output goes to stderr; the program's last line
# on stdout is its JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry and env file in the tree.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

cd "$root"
go build -o "$out/bin/" ./cmd/wym ./cmd/wym-server >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
