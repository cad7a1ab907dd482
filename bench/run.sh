#!/usr/bin/env bash
# Builds the benchmark and the servers it drives from the checkout's own
# sources, then runs the benchmark. Everything the build writes — including
# the Go build cache — stays under bench/.build, so a run touches nothing
# outside the checkout and does not depend on $HOME.
set -euo pipefail
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench")
export GOCACHE="$bench/.build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
mkdir -p "$bench/.build/bin"
go build -C "$root" -o "$bench/.build/bin/" ./cmd/pgserve ./cmd/pgproxy
go build -C "$bench" -o "$bench/.build/bin/pgledger" .
exec "$bench/.build/bin/pgledger" -root "$root" "$@"
