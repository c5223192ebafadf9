#!/usr/bin/env bash
# Builds cmd/cynthiabench from the checkout it sits in and runs it with the
# given arguments. Everything the build writes (binary, Go build cache,
# temp files, toolchain config) stays under .bench_build in the checkout,
# and the Go toolchain is pinned offline: no module download, no toolchain
# switch.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/cmd/cynthiabench" && go build -o "$out/cynthiabench" .)
exec "$out/cynthiabench" "$@"
