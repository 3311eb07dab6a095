#!/usr/bin/env bash
# The byte-identity contract as a command: which experiments print something
# else in this checkout than at a git ref?
#
#   scripts/expdiff.sh <git-ref> [experiment ...]
#   make expdiff REF=HEAD~1 ALLOW="table5 fig10 fig11"
#
# The ref is exported (git archive) into .bench_build/expdiff/parent, so the
# parent is built from committed files only and nothing is registered in
# .git; the change side is the working tree as it stands. cmd/dlvmeasure is
# built on both sides and runs every -exp name except "all" and "overload"
# (real sockets, wall-clock numbers) at -seed 1 -scale 100, plus the sweep at
# -population 20000 (named sweep20k). Wall-clock lines ("finished in",
# "ran N experiment(s)") are dropped. The experiments whose output differs are
# printed, the outputs are kept in .bench_build/expdiff/{parent,change}.out,
# and the exit status is 0 only if the set that differs is exactly the set
# named on the command line.
set -euo pipefail

if [ "$#" -lt 1 ]; then
	echo "usage: $0 <git-ref> [experiment expected to differ ...]" >&2
	exit 2
fi
ref="$1"
shift
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${root}/.bench_build/expdiff"
sha="$(git -C "${root}" rev-parse --short "${ref}^{commit}")"
rm -rf "${work}"
mkdir -p "${work}/parent" "${work}/parent.out" "${work}/change.out"
trap 'rm -rf "${work}/parent"' EXIT
git -C "${root}" archive "${sha}" | tar -x -C "${work}/parent"
(cd "${work}/parent" && go build -o "${work}/dlvmeasure.parent" ./cmd/dlvmeasure)
(cd "${root}" && go build -o "${work}/dlvmeasure.change" ./cmd/dlvmeasure)

# -exp's valid list, as the binary itself reports it for an unknown name.
names="$("${work}/dlvmeasure.change" -exp '?' 2>&1 | sed -n 's/.*(valid: all, \(.*\))$/\1/p' | tr -d ',' || true)"
differ=""
for name in ${names} sweep20k; do
	[ "${name}" = overload ] && continue
	args="-exp ${name} -seed 1 -scale 100"
	[ "${name}" = sweep20k ] && args="-exp sweep -seed 1 -population 20000"
	for side in parent change; do
		# shellcheck disable=SC2086 # args is a word list
		"${work}/dlvmeasure.${side}" ${args} 2>&1 | grep -v -e 'finished in' -e '^ran ' >"${work}/${side}.out/${name}" || true
	done
	cmp -s "${work}/parent.out/${name}" "${work}/change.out/${name}" || differ="${differ} ${name}"
done

want="$(printf '%s\n' "$@" | sort -u | xargs)"
got="$(printf '%s\n' ${differ} | sort -u | xargs)"
echo "expdiff: ${sha} (${ref}) vs working tree: differ: ${got:-none}; declared: ${want:-none}"
[ "${got}" = "${want}" ]
