#!/usr/bin/env bash
# Paired A/B runs of the repo's benchmark: this checkout (the change) against
# a git ref (the parent), the acceptance procedure bench/README.md ("Noise")
# and the choosing-metrics guide prescribe for any claimed gain.
#
#   scripts/abpairs.sh <git-ref> <workload|all> <pairs>
#   make abpairs REF=HEAD~1 WORKLOAD=serve_cold PAIRS=10
#
# "all" runs every workload of BENCHMARK.json in turn and prints one table.
#
# The ref is exported (git archive) into .bench_build/abpairs/parent, so the
# parent is built from committed files only and nothing is registered in
# .git; the change side is the working tree as it stands. Pair i runs
#
#   bash bench/run.sh --workload W --seed i --seconds 10 --trace 0
#
# once on each side, the parent first when i is odd and the change first when
# i is even. For every end-to-end metric of BENCHMARK.json the table gives
# both medians, the change's difference in percent of the parent's median,
# the pairs the change won (ties count for neither side), and the parent's own
# interquartile range in percent of its median: a gain is claimed only at
# >= 9/10 wins and a median difference larger than that spread. The last
# column is the "must not move" verdict against the metric's bound in
# BENCHMARK.json: "worse" when the change's median is worse than the parent's
# by more than the bound, "unresolved" when the parent's spread is wider than
# the bound and not every run of the change beat every run of the parent,
# "ok" otherwise. Every run's result line is kept in
# .bench_build/abpairs/runs.tsv, stderr in *.log. Per workload it also prints
# the share of operations that failed on each side. Exit status is non-zero
# if any run was not "correct", any metric is "worse", or the change's failed
# share is above the parent's on any workload.
set -euo pipefail

if [ "$#" -ne 3 ]; then
	echo "usage: $0 <git-ref> <workload|all> <pairs>" >&2
	exit 2
fi
ref="$1" workload="$2" pairs="$3"
case "${pairs}" in
'' | *[!0-9]* | 0) echo "$0: pairs must be a positive integer, got '${pairs}'" >&2; exit 2 ;;
esac

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ "${workload}" = all ]; then
	# One workload object per line in BENCHMARK.json, the only ones with a "why".
	workloads="$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' "${root}/BENCHMARK.json")"
else
	workloads="${workload}"
fi
work="${root}/.bench_build/abpairs"
sha="$(git -C "${root}" rev-parse --short "${ref}^{commit}")"
rm -rf "${work}"
mkdir -p "${work}/parent"
trap 'rm -rf "${work}/parent"' EXIT
git -C "${root}" archive "${sha}" | tar -x -C "${work}/parent"

runs="${work}/runs.tsv"
: >"${runs}"
bad=0
# run_side <side> <checkout> <seed>: one run of ${workload}; its result line
# (the last line of stdout) goes to runs.tsv whether or not the run was correct.
run_side() {
	local side="$1" dir="$2" seed="$3" line
	line="$(bash "${dir}/bench/run.sh" --workload "${workload}" --seed "${seed}" --seconds 10 --trace 0 \
		2>>"${work}/${side}.log" | tail -n 1)" || true
	printf '%s\t%s\t%s\t%s\n' "${workload}" "${side}" "${seed}" "${line}" >>"${runs}"
	case "${line}" in
	*'"correct":true'*) ;;
	*)
		echo "abpairs: ${workload} ${side} seed ${seed} was not correct: ${line:-no result line; see ${work}/${side}.log}" >&2
		bad=1
		;;
	esac
}

for workload in ${workloads}; do
	echo "abpairs: ${workload}, ${pairs} pairs, parent ${sha} (${ref}) vs working tree" >&2
	for seed in $(seq 1 "${pairs}"); do
		if [ $((seed % 2)) -eq 1 ]; then
			run_side parent "${work}/parent" "${seed}"
			run_side change "${root}" "${seed}"
		else
			run_side change "${root}" "${seed}"
			run_side parent "${work}/parent" "${seed}"
		fi
		echo "abpairs: ${workload} pair ${seed}/${pairs} done" >&2
	done
done

# The end-to-end metrics, their direction and their bound come from
# BENCHMARK.json (one object per line there); the values from each run's
# result line.
awk -F '\t' -v sha="${sha}" '
# after returns the number that follows key in a result line, "" without one.
function after(json, key,    at, rest) {
	at = index(json, key)
	if (at == 0) return ""
	rest = substr(json, at + length(key))
	sub(/[,}].*/, "", rest)
	return rest + 0
}
function value(json, name) { return after(json, "\"" name "\":{\"value\":") }
# sorted copies v[1..n] into s[1..n] in ascending order.
function sorted(v, n, s,    i, j, t) {
	for (i = 1; i <= n; i++) s[i] = v[i]
	for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
}
function median(v, n,    s) { sorted(v, n, s); return n % 2 ? s[(n + 1) / 2] : (s[n / 2] + s[n / 2 + 1]) / 2 }
# quartile k of 4 by the exclusive method, as bench/stats.go has it.
function quartile(v, n, k,    s, pos, j) {
	if (n < 2) return v[1]
	sorted(v, n, s); pos = k * (n + 1) / 4; j = int(pos)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	return s[j] + (pos - j) * (s[j + 1] - s[j])
}
FILENAME == ARGV[1] {
	if ($0 ~ /"end_to_end"/) inside = 1
	else if (inside && $0 ~ /^ *\]/) inside = 0
	else if (inside && match($0, /"name": *"[^"]+"/)) {
		name = substr($0, RSTART, RLENGTH); sub(/^"name": *"/, "", name); sub(/"$/, "", name)
		metrics[++nm] = name
		lower[name] = ($0 ~ /"better": *"lower"/)
		bound[name] = after($0, "\"bound\":")
	}
	next
}
{
	if (!($1 in seen)) { seen[$1] = 1; workloads[++nw] = $1 }
	seeds[$3] = 1
	for (m = 1; m <= nm; m++) val[$1, $2, $3, metrics[m]] = value($4, metrics[m])
	failed[$1, $2] += after($4, "\"failed\":"); attempted[$1, $2] += after($4, "\"attempted\":")
}
END {
	for (seed in seeds) order[++n] = seed
	printf "| workload | metric | parent %s median [Q1..Q3] | change median [Q1..Q3] | delta | wins | parent IQR | verdict |\n", sha
	print "|---|---|---:|---:|---:|---:|---:|---|"
	for (w = 1; w <= nw; w++) for (m = 1; m <= nm; m++) {
		workload = workloads[w]; name = metrics[m]; wins = 0
		for (i = 1; i <= n; i++) {
			p[i] = val[workload, "parent", order[i], name]; c[i] = val[workload, "change", order[i], name]
			if (p[i] != "" && c[i] != "") wins += lower[name] ? (c[i] < p[i]) : (c[i] > p[i])
		}
		mp = median(p, n); mc = median(c, n)
		p1 = quartile(p, n, 1); p3 = quartile(p, n, 3)
		sorted(p, n, ps); sorted(c, n, cs)
		allbetter = lower[name] ? (cs[n] < ps[1]) : (cs[1] > ps[n])
		verdict = "ok"
		if (mp && (lower[name] ? mc - mp : mp - mc) / mp > bound[name]) { verdict = "worse"; worse = 1 }
		else if (mp && (p3 - p1) / mp > bound[name] && !allbetter) verdict = "unresolved"
		printf "| `%s` | `%s` | %.6g [%.6g..%.6g] | %.6g [%.6g..%.6g] | %+.1f %% | %d/%d | %.1f %% | %s |\n",
			workload, name, mp, p1, p3, mc, quartile(c, n, 1), quartile(c, n, 3),
			mp ? 100 * (mc - mp) / mp : 0, wins, n, mp ? 100 * (p3 - p1) / mp : 0, verdict
	}
	print ""
	for (w = 1; w <= nw; w++) {
		workload = workloads[w]
		fp = attempted[workload, "parent"] ? failed[workload, "parent"] / attempted[workload, "parent"] : 0
		fc = attempted[workload, "change"] ? failed[workload, "change"] / attempted[workload, "change"] : 0
		printf "%s failed operations: parent %d of %d, change %d of %d\n", workload,
			failed[workload, "parent"], attempted[workload, "parent"],
			failed[workload, "change"], attempted[workload, "change"]
		printf "%s failed share parent %.6g vs change %.6g%s\n", workload, fp, fc, (fc > fp ? " (worse)" : "")
		if (fc > fp) worse = 1
	}
	exit worse
}' "${root}/BENCHMARK.json" "${runs}" || bad=1

exit "${bad}"
