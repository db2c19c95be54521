#!/usr/bin/env bash
# Builds perfbench from the enclosing checkout and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload fig1 --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (binary, Go build cache, temporaries)
# stays under the build directory inside the checkout: $CARGO_TARGET_DIR
# when set, else .bench_build. The build needs the ldb module one
# directory up; without it the script fails before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
