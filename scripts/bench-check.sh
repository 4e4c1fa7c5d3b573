#!/usr/bin/env bash
# bench-check compares the end-to-end benchmark (e2ebench) of a base
# revision against this checkout, from the root of the checkout:
#
#	bash scripts/bench-check.sh BASE [WORKLOADS] [PAIRS]
#	make bench-check BASE=<rev> [WORKLOADS=a,b] [PAIRS=n]
#
# BASE is checked out with `git worktree` under .bench_build/ (removed on
# exit). Both sides' e2ebench are built from source with run.sh's
# environment; the change side is this checkout's working tree. For each
# of PAIRS pairs (default 4) and each workload (comma-separated, default
# all six), it runs base and change alternately — base first on odd
# pairs — with the pair number as the seed, each side appending to its
# own results file (-o). An even PAIRS puts each side first in half of
# every workload's pairs, so a run's position (a machine still writing
# back the previous run's files, say) weighs on both medians alike; an
# odd PAIRS is allowed but warned about. Then `e2ebench
# -compare base change` prints one row per workload and end-to-end
# metric. The script exits 1 when a row reads `worse`, and repeats
# `unresolved` rows (a side's spread wider than the bound) as warnings.
# It changes no benchmark file.
set -euo pipefail

base=${1:?usage: bench-check.sh BASE [WORKLOADS] [PAIRS]}
workloads=${2:-scan.flat,probe.c1,probe.cN,tiered.over4x,mixed.rw,cluster.filtered}
pairs=${3:-4}
if ((pairs % 2 == 1)); then
	echo "bench-check: warning: PAIRS=$pairs is odd, so base runs first in one pair more than change" >&2
fi

root=$(git rev-parse --show-toplevel)
build="$root/.bench_build"
wt="$build/bench-check-base"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

cleanup() {
	git -C "$root" worktree remove --force "$wt" >/dev/null 2>&1 || rm -rf "$wt"
	git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach --quiet "$wt" "$base"

(cd "$wt/e2ebench" && go build -buildvcs=false -o "$build/e2ebench-base" .)
(cd "$root/e2ebench" && go build -buildvcs=false -o "$build/e2ebench-change" .)

out_base="$build/bench-check-base.jsonl"
out_change="$build/bench-check-change.jsonl"
rm -f "$out_base" "$out_change"

# run SIDE WORKLOAD SEED: one measured run from the root of its checkout.
run() {
	local dir=$root out=$out_change
	if [ "$1" = base ]; then
		dir=$wt out=$out_base
	fi
	echo "bench-check: pair $3 $1 $2" >&2
	(cd "$dir" && "$build/e2ebench-$1" -workload "$2" -seed "$3" -o "$out" >/dev/null)
}

for ((p = 1; p <= pairs; p++)); do
	for w in ${workloads//,/ }; do
		if ((p % 2 == 1)); then
			run base "$w" "$p"
			run change "$w" "$p"
		else
			run change "$w" "$p"
			run base "$w" "$p"
		fi
	done
done

status=0
report=$("$build/e2ebench-change" -compare "$out_base" "$out_change") || status=$?
echo "$report"
grep -w unresolved <<<"$report" | sed 's/^/warning: unresolved: /' >&2 || true
if [ "$status" -ne 0 ]; then
	echo "bench-check: a metric is worse than at $base" >&2
fi
exit "$status"
