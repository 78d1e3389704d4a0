#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument goes to the
# program. The benchmark is a module of its own, so this works from any
# directory and `go build ./...` at the root never sees it.
set -euo pipefail
exec go run -C "$(dirname "$0")" . "$@"
