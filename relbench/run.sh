#!/usr/bin/env bash
# Builds relserver, relsnap and relbench from the checkout this is run in,
# then runs relbench with the given arguments. Everything the build and the
# run leave behind stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local GOENV=off GOWORK=off

go build -o "$out/bin/" ./cmd/relserver ./cmd/relsnap
go -C relbench build -o "$out/bin/relbench" .

exec "$out/bin/relbench" -bin "$out/bin" -tmp "$out/tmp" "$@"
