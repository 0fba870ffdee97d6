#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every flag is passed on
# (see README.md). Build cache, binary, generated inputs and trace all stay
# under benchmark/out, so nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/benchmark" .)
exec "$out/benchmark" -outdir "$out" "$@"
