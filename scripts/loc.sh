#!/usr/bin/env bash
# loc counts non-test, non-testdata Go lines per package directory (the
# benchmark module e2ebench/ excluded), from the root of the checkout:
#
#	bash scripts/loc.sh [BASE]
#	make loc [BASE=<rev>]
#
# It prints one row per directory, then total and serving, the same count
# over only the packages vectordbd links (`go list -deps ./cmd/vectordbd`).
# With BASE, it counts BASE the same way in a `git worktree` under
# .bench_build/ (removed on exit) and prints each row's lines at BASE, in
# this checkout's working tree, and the change: the before/after table a
# refactor's CHANGES.md entry carries. On a clean tree, BASE=HEAD reads 0
# on every row.
set -euo pipefail

base=${1:-}
root=$(git rev-parse --show-toplevel)
export GOTOOLCHAIN=local GOPROXY=off

# count DIR prints "<lines> <row>" for each package directory of the
# checkout at DIR, sorted, then its total and serving rows.
count() {
	cd "$1"
	find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './e2ebench/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$2 != "total" { d = $2; sub(/\/[^\/]*$/, "", d); n[d] += $1; t += $1 }
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2
	go list -deps -f '{{if not .Standard}}{{.Dir}}{{end}}' ./cmd/vectordbd | grep . |
		xargs -I{} find {} -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l |
		awk '{ printf "%7d serving\n", $1 }'
}

if [ -z "$base" ]; then
	count "$root"
	exit
fi

wt="$root/.bench_build/loc-base"
mkdir -p "$root/.bench_build"
cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach --quiet "$wt" "$base"

printf "%7s %7s %7s\n" base now change
# The first input is BASE's rows, the second this checkout's; a directory
# on one side only reads 0 on the other.
awk 'function row(r) { d = n[r] - b[r]; return sprintf("%7d %7d %7s %s", b[r], n[r], d ? sprintf("%+d", d) : 0, r) }
	NR == FNR { b[$2] = $1; rows[$2]; next }
	{ n[$2] = $1; rows[$2] }
	END {
		for (r in rows)
			if (r != "total" && r != "serving")
				print row(r) | "sort -k4"
		close("sort -k4")
		print row("total")
		print row("serving")
	}' <(count "$wt") <(count "$root")
