#!/usr/bin/env bash
# loc.sh — non-test Go lines, the figure every CHANGES.md entry of the
# deletion round reports: the root module and bench/ (a module of its
# own) separately, for the working tree and, given a git ref, for that
# ref with the difference.
#
#   scripts/loc.sh              # working tree
#   scripts/loc.sh origin/main  # working tree, the ref, and the delta
#
# Counts every line of every *.go file that is not a *_test.go, tracked
# or not yet tracked (ignored files are left out), so it agrees with
#   find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' \
#     -not -path './.bench_build/*' | xargs cat | wc -l
# on a clean checkout. Informational: it gates nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# lines <root|bench> [ref]: git grep -c '' prints one "path:count" (or
# "ref:path:count") per file; the count is the last field.
lines() {
	local spec=(-- '*.go' ':!*_test.go' ':!bench/')
	if [[ $1 == bench ]]; then spec=(-- 'bench/*.go' ':!*_test.go'); fi
	if [[ -n ${2:-} ]]; then
		git grep -c -e '' "$2" "${spec[@]}"
	else
		git grep -c --untracked -e '' "${spec[@]}"
	fi | awk -F: '{ n += $NF } END { print n + 0 }'
}

printf '%-12s %8s %8s\n' '' root bench
root=$(lines root) bench=$(lines bench)
printf '%-12s %8d %8d\n' 'working tree' "$root" "$bench"
if [[ $# -ge 1 ]]; then
	git rev-parse --verify --quiet "$1^{commit}" >/dev/null || { echo "loc.sh: unknown ref $1" >&2; exit 2; }
	rroot=$(lines root "$1") rbench=$(lines bench "$1")
	printf '%-12s %8d %8d\n' "$1" "$rroot" "$rbench"
	printf '%-12s %+8d %+8d\n' delta $((root - rroot)) $((bench - rbench))
fi
