#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# inside the checkout (build cache included, so nothing is written outside
# it) and runs it with the caller's flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/bench" .
)
exec "$build/bench" "$@"
