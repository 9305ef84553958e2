#!/bin/sh
# churngate.sh — holds the JSON decoder's worst cases to the decoder before
# the mechanism they defeat existed.
#
# BenchmarkDecodeRotating/JSON-churn decodes 12 rotating reports in 32
# variants, every entry's sizeBytes moved by its variant's number, so an entry
# mismatches the continuation its URL holds in all but one decode in 32. It is
# held to the commit before continuations: the parent of the first commit
# whose internal/report/decode.go has "type continuation struct" (HEAD while
# that commit is not made yet; CHURN_BASE=<rev> overrides it).
#
# JSON-reorder rotates each report's entries by its variant's number, so a
# report mismatches its page's template in the first entry; JSON-newpage
# names a page never seen in every report, so no report has a template and
# every one could record one. Both are held to the commit before templates:
# the parent of the first commit whose internal/report/template.go has "type
# template struct" (HEAD while that commit is not made yet; TEMPLATE_BASE=<rev>
# overrides it).
#
# For each base the gate builds internal/report's test binary from it, with
# this tree's rotating_test.go copied in so both decode the same bodies, and
# from this tree. It then runs the two binaries alternately, PAIRS times each
# per case, and fails when this tree's fastest run is more than 1.05 of the
# old one's fastest. A run is timed by the CPU time the process spent on it
# (the benchmark's cpu-ns/op, from getrusage), not by the wall clock: other
# load on the machine delays a run far more than it costs it CPU. Each run
# decodes enough reports to spend at least 100 ms of CPU, or the gate fails
# naming the case to lengthen. What load still costs a run (caches, a
# shared core) only ever slows it, and alternating gives both binaries the
# same quiet moments, so the fastest runs are the closest to each cost.
#
# Run from anywhere: sh scripts/churngate.sh (needs the git history).
set -e
cd "$(dirname "$0")/.."
pairs=${PAIRS:-41}

# baseof <override> <string> <file>: the commit before the one that added
# <string> to <file>.
baseof() {
	base=$1
	if [ -z "$base" ]; then
		intro=$(git log --reverse --format=%H -S "$2" -- "$3" | head -n 1)
		base=${intro:+$intro^}
		base=${base:-HEAD}
	fi
	git rev-parse --verify "$base^{commit}"
}
churnbase=$(baseof "${CHURN_BASE:-}" 'type continuation struct' internal/report/decode.go)
tmplbase=$(baseof "${TEMPLATE_BASE:-}" 'type template struct' internal/report/template.go)

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
# build <rev>: $dir/<rev>.test, the old decoder with this tree's benchmark.
build() {
	mkdir "$dir/$1"
	git archive "$1" | tar -x -C "$dir/$1"
	cp internal/report/rotating_test.go "$dir/$1/internal/report/"
	go -C "$dir/$1" test -c -o "$dir/$1.test" ./internal/report
}
build "$churnbase"
[ -x "$dir/$tmplbase.test" ] || build "$tmplbase"
go test -c -o "$dir/tree.test" ./internal/report

# gate <case> <decodes per run> <rev> <what the rev is before>
gate() {
	cpunsop() {
		"$1" -test.run '^$' -test.bench "DecodeRotating/$2\$" -test.benchtime "$3x" -test.cpu 1 |
			awk -v c="$2" '$1 ~ c { for (i = 2; i <= NF; i++) if ($i == "cpu-ns/op") print $(i - 1) }'
	}
	i=0
	while [ "$i" -lt "$pairs" ]; do
		b=$(cpunsop "$dir/$3.test" "$1" "$2")
		t=$(cpunsop "$dir/tree.test" "$1" "$2")
		echo "$t $b"
		i=$((i + 1))
	done | awk -v c="$1" -v n="$2" -v base="$3" -v what="$4" -v want="$pairs" '
		NF == 2 && $1 > 0 && $2 > 0 {
			k++
			if (k == 1 || $1 < t) t = $1
			if (k == 1 || $2 < b) b = $2
		}
		END {
			r = k ? t / b : 0
			printf "%s, fastest of %d runs of %d decodes each, by CPU time: this tree %d ns/op, before %s (%.12s) %d ns/op, ratio %.3f, gate 1.05\n",
				c, k, n, t, what, base, b, r
			if (k == want && (t < b ? t : b) * n < 1e8) {
				printf "churn gate: a %s run spent under 100 ms of CPU; raise its decodes per run\n", c
				exit 1
			}
			exit !(k == want && r <= 1.05) # a run that printed no figure fails the gate
		}' || { echo "churn gate failed: $1 costs more than 1.05 of the decoder before $4, or its runs are too short to time" >&2; exit 1; }
}
# Decodes per run: multiples of the case's rotation (384 churn bodies, 480
# reordered), each run ≥ 100 ms of CPU on a 2-vCPU Xeon.
gate JSON-churn 19200 "$churnbase" continuations
gate JSON-reorder 38400 "$tmplbase" templates
gate JSON-newpage 38400 "$tmplbase" templates
