#!/usr/bin/env bash
# Per-function statement coverage of internal/core and internal/analysis,
# checked against testdata/cover_core.golden (run as `make cover-core`).
#
# One `go test -coverpkg` run over the root, core, analysis, pipeline,
# bench and emit test packages measures both packages; `go tool cover
# -func` merges the packages' profiles. The golden lists every function
# below 100% as "file<TAB>function<TAB>percent<TAB>reason", without line
# numbers; a name that repeats within a file gets "#2", "#3" in source
# order. The check fails when a listed function's coverage falls, when a
# function not listed is below 100%, or when a listed function of the
# optimizer (decide.go, layout.go, rewrite.go, materialize.go, core.go)
# has no reason. A function whose coverage rose is reported so the golden
# can be tightened.
set -euo pipefail
cd "$(dirname "$0")/.."
golden=testdata/cover_core.golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! go test -count=1 -coverpkg=./internal/core/...,./internal/analysis/... \
	-coverprofile="$tmp/cover.out" \
	. ./internal/core ./internal/analysis ./internal/pipeline ./internal/bench ./internal/emit \
	>"$tmp/test.log" 2>&1; then
	cat "$tmp/test.log"
	exit 1
fi
go tool cover -func="$tmp/cover.out" | awk '
	$1 == "total:" { total = $NF; next }
	{
		file = $1
		sub(/^objinline\//, "", file)
		sub(/:[0-9]+:$/, "", file)
		name = $2
		n = ++seen[file SUBSEP name]
		if (n > 1) name = name "#" n
		printf "%s\t%s\t%s\n", file, name, $3
	}
	END { print total > "/dev/stderr" }' >"$tmp/current.tsv" 2>"$tmp/total.txt"

awk -F'\t' -v golden="$golden" '
	FNR == NR {
		if ($0 ~ /^#/ || NF < 3) next
		key = $1 "\t" $2
		want[key] = $3 + 0
		if ($1 ~ /^internal\/core\/(decide|layout|rewrite|materialize|core)\.go$/ && $4 == "") {
			printf "%s: %s %s carries no reason\n", golden, $1, $2
			bad = 1
		}
		next
	}
	{
		key = $1 "\t" $2
		got[key] = 1
		pct = $3 + 0
		if (key in want) {
			if (pct < want[key]) {
				printf "coverage fell: %s %s %s (golden %.1f%%)\n", $1, $2, $3, want[key]
				bad = 1
			} else if (pct > want[key]) {
				printf "coverage rose: %s %s %s (golden %.1f%%); tighten the golden\n", $1, $2, $3, want[key]
			}
		} else if (pct < 100) {
			printf "below 100%% and not in the golden: %s %s %s\n", $1, $2, $3
			bad = 1
		}
	}
	END {
		for (key in want) {
			if (!(key in got)) printf "in the golden but gone: %s\n", key
		}
		exit bad
	}' "$golden" "$tmp/current.tsv" || {
	echo "current functions below 100%:"
	awk -F'\t' '$3 != "100.0%"' "$tmp/current.tsv"
	exit 1
}
echo "cover-core: $(cat "$tmp/total.txt") of statements in internal/core and internal/analysis; every function at or above $golden"
