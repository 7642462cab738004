#!/usr/bin/env bash
# perfab.sh — paired A/B comparison of the end-to-end benchmark between
# a base revision and this checkout, on the same machine.
#
#   scripts/perfab.sh WORKLOAD [PAIRS] [BASE]
#   make perf-ab W=local-rpc N=10 BASE=HEAD~1
#
# BASE (default HEAD) is checked out in a detached git worktree under a
# scratch directory (PERFAB_DIR, default a fresh mktemp -d). Each of the
# PAIRS (default 10) pairs runs each tree's own perfbench/run.sh once
# with identical arguments, alternating which side goes first. The runs
# use the window BENCHMARK.json declares (PERFAB_SECONDS overrides it)
# and seed PERFAB_SEED (default 1). The script only invokes perfbench;
# it edits nothing under perfbench/.
#
# The summary prints, for every end-to-end metric in BENCHMARK.json,
# each side's median and quartiles, the change of the median, how many
# pairs the candidate won (ties count for neither side), and two
# verdicts:
#   claim   "gain" when the candidate won at least nine tenths of the
#           pairs and the medians differ by more than the base's
#           interquartile range;
#   bound   "ok" when the candidate's median is no worse than the
#           base's by more than the metric's bound, "WORSE" when it is,
#           and "unresolved" when either side's interquartile range
#           exceeds the bound relative to its median (unless every
#           candidate run beat every base run).
# Run logs and result lines stay in the scratch directory, which the
# script prints; the worktree itself is removed on exit.
set -euo pipefail

workload=${1:?usage: perfab.sh WORKLOAD [PAIRS] [BASE]}
pairs=${2:-10}
base_rev=${3:-HEAD}
seed=${PERFAB_SEED:-1}

root=$(git rev-parse --show-toplevel)
spec="$root/BENCHMARK.json"
seconds=${PERFAB_SECONDS:-$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$spec")}
scratch=${PERFAB_DIR:-$(mktemp -d "${TMPDIR:-/tmp}/tdp-perfab.XXXXXX")}
mkdir -p "$scratch/runs"
basetree="$scratch/base"

git -C "$root" worktree add --detach --force "$basetree" "$base_rev" >/dev/null
trap 'git -C "$root" worktree remove --force "$basetree" >/dev/null 2>&1 || true' EXIT

echo "perf-ab: workload=$workload pairs=$pairs seed=$seed seconds=$seconds"
echo "perf-ab: base=$(git -C "$basetree" rev-parse --short HEAD) ($base_rev)  cand=$root (working tree)"
echo "perf-ab: logs in $scratch/runs"

# run SIDE TREE PAIR: one benchmark run; its last output line (the
# result JSON) goes to runs/SIDE.PAIR.json.
run() {
	local side=$1 tree=$2 i=$3 log="$scratch/runs/$1.$3.log"
	(cd "$tree" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0) >"$log" 2>&1 || true
	tail -n 1 "$log" >"$scratch/runs/$side.$i.json"
	if ! grep -Eq '"correct": ?true' "$scratch/runs/$side.$i.json"; then
		echo "perf-ab: $side run $i failed or was incorrect; see $log" >&2
		exit 1
	fi
}

for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run base "$basetree" "$i"
		run cand "$root" "$i"
	else
		run cand "$root" "$i"
		run base "$basetree" "$i"
	fi
	echo "perf-ab: pair $i/$pairs done"
done

# Summary. Input: BENCHMARK.json (metric names, directions, bounds),
# then every result line tagged with its side and pair.
{
	cat "$spec"
	for i in $(seq 1 "$pairs"); do
		for side in base cand; do
			printf '@%s %d ' "$side" "$i"
			cat "$scratch/runs/$side.$i.json"
		done
	done
} | awk -v pairs="$pairs" '
function sorted(src, n, dst,   i, j, v) {
	for (i = 1; i <= n; i++) dst[i] = src[i]
	for (i = 2; i <= n; i++) {
		v = dst[i]
		for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
		dst[j + 1] = v
	}
}
# q-quantile of a sorted array by linear interpolation.
function quant(a, n, q,   h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function abs(x) { return x < 0 ? -x : x }
/"end_to_end"/ { inE2E = 1 }
/"per_layer"/ { inE2E = 0 }
inE2E && match($0, /"name": "[^"]+"/) { name = substr($0, RSTART + 9, RLENGTH - 10); order[++nm] = name }
inE2E && match($0, /"unit": "[^"]+"/) { unit[name] = substr($0, RSTART + 9, RLENGTH - 10) }
inE2E && match($0, /"better": "[^"]+"/) { better[name] = substr($0, RSTART + 11, RLENGTH - 12) }
inE2E && match($0, /"bound": [0-9.]+/) { bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0 }
/^@/ {
	side = substr($1, 2); i = $2
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (match($0, "\"" m "\": ?\\{\"value\": ?[-0-9.eE+]+")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
			val[side, m, i] = v + 0
		}
	}
}
END {
	printf "%-14s %-6s %28s %28s %8s %6s  %-5s %s\n", "metric", "unit", "base median [q1, q3]", "cand median [q1, q3]", "change", "wins", "claim", "bound"
	need = int((9 * pairs + 9) / 10)
	for (k = 1; k <= nm; k++) {
		m = order[k]
		wins = 0; allbetter = 1
		delete b; delete c; delete bs; delete cs
		for (i = 1; i <= pairs; i++) {
			b[i] = val["base", m, i]; c[i] = val["cand", m, i]
			if (better[m] == "lower" ? c[i] < b[i] : c[i] > b[i]) wins++
		}
		sorted(b, pairs, bs); sorted(c, pairs, cs)
		bmed = quant(bs, pairs, 0.5); bq1 = quant(bs, pairs, 0.25); bq3 = quant(bs, pairs, 0.75)
		cmed = quant(cs, pairs, 0.5); cq1 = quant(cs, pairs, 0.25); cq3 = quant(cs, pairs, 0.75)
		if (better[m] == "lower") allbetter = cs[pairs] < bs[1]; else allbetter = cs[1] > bs[pairs]
		change = bmed != 0 ? (cmed - bmed) / bmed : 0
		worse = better[m] == "lower" ? change : -change
		claim = (wins >= need && abs(cmed - bmed) > bq3 - bq1) ? "gain" : "-"
		verdict = worse > bound[m] ? "WORSE" : "ok"
		spread = (bmed != 0 && (bq3 - bq1) / abs(bmed) > bound[m]) || (cmed != 0 && (cq3 - cq1) / abs(cmed) > bound[m])
		if (spread && !allbetter) verdict = "unresolved"
		printf "%-14s %-6s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %3d/%-2d  %-5s %s\n", m, unit[m], bmed, bq1, bq3, cmed, cq1, cq3, 100 * change, wins, pairs, claim, verdict
	}
}'
