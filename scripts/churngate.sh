#!/bin/sh
# churngate.sh — holds the JSON decoder's worst case to the decoder before
# continuations existed.
#
# BenchmarkDecodeRotating/JSON-churn decodes 12 rotating reports in 32
# variants, every entry's sizeBytes moved by its variant's number, so an entry
# mismatches the continuation its URL holds in all but one decode in 32. The
# gate builds internal/report's test binary twice: from this tree, and from
# the commit before the one that added continuations (the parent of the first
# commit whose internal/report/decode.go has "type continuation struct"; HEAD
# while that commit is not made yet; CHURN_BASE=<rev> overrides it), with this
# tree's rotating_test.go copied in, so both decode the same bodies. It then
# runs the two binaries alternately, PAIRS times each, and fails when this
# tree's fastest run is more than 1.05 of the old one's fastest. Other load
# on the machine only ever slows a run, and alternating gives both binaries
# the same quiet moments, so the fastest runs are the closest to each cost.
#
# Run from anywhere: sh scripts/churngate.sh (needs the git history).
set -e
cd "$(dirname "$0")/.."
pairs=${PAIRS:-41}

base=${CHURN_BASE:-}
if [ -z "$base" ]; then
	intro=$(git log --reverse --format=%H -S 'type continuation struct' -- internal/report/decode.go | head -n 1)
	base=${intro:+$intro^}
	base=${base:-HEAD}
fi
base=$(git rev-parse --verify "$base^{commit}")

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT INT TERM
mkdir "$dir/src"
git archive "$base" | tar -x -C "$dir/src"
cp internal/report/rotating_test.go "$dir/src/internal/report/"
go -C "$dir/src" test -c -o "$dir/before.test" ./internal/report
go test -c -o "$dir/tree.test" ./internal/report

nsop() {
	"$1" -test.run '^$' -test.bench 'DecodeRotating/JSON-churn$' -test.benchtime 3840x -test.cpu 1 |
		awk '/JSON-churn/ { print $3 }'
}
i=0
while [ "$i" -lt "$pairs" ]; do
	b=$(nsop "$dir/before.test")
	t=$(nsop "$dir/tree.test")
	echo "$t $b"
	i=$((i + 1))
done | awk -v base="$base" -v want="$pairs" '
	NF == 2 && $1 > 0 && $2 > 0 {
		n++
		if (n == 1 || $1 < t) t = $1
		if (n == 1 || $2 < b) b = $2
	}
	END {
		r = n ? t / b : 0
		printf "JSON-churn, fastest of %d runs each: this tree %d ns/op, before continuations (%.12s) %d ns/op, ratio %.3f, gate 1.05\n",
			n, t, base, b, r
		exit !(n == want && r <= 1.05) # a run that printed no figure fails the gate
	}' || { echo "churn gate failed: a churned JSON decode costs more than 1.05 of the decoder before continuations" >&2; exit 1; }
