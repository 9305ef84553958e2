#!/bin/sh
# verify.sh — the repository verify path, run on every PR.
#
# Beyond the tier-1 gate (go build && go test), this enforces formatting,
# vet cleanliness, and — because internal/obs ships lock-free histograms
# and a ring buffer feeding the concurrent engine — race-checks the
# packages where that concurrency lives (including the chaos suite in
# internal/faultinject, which drives the full loop under injected faults).
# A short fuzz smoke over the snapshot importer keeps hostile state files
# from ever aborting a boot; another over the compiled applier keeps the
# single-pass rewriter, and the page index's splice, provably equivalent to
# the sequential reference;
# two more pin the report fast-path decoder to encoding/json (intern table
# cold and warm) and the OAKRPT1 binary codec to round-trip identity with
# typed rejection of hostile frames, and a fifth pins the gateway's routing
# key to the backend's filing key (SniffJSONUser == Decode().UserID). The
# report decode gate
# (TestDecodeSteadyStateAllocs) holds a pooled decode of 12 rotating reports,
# in either wire format, to the allocations the intern table leaves, next to
# a one-iteration BenchmarkDecodeRotating; the table's adversaries (a flood of
# unique and over-length tokens against its memory bound, and concurrent JSON
# and OAKRPT1 decoders over colliding URLs under -race) are a named step. A
# one-iteration serve benchmark run keeps the benchmark
# code compiling; beside it a gate holds the live heap that serving 400
# activated users on twelve registered paths adds to 1 MB, the page indexes
# included, and the serve-path concurrency tests — with four engines built at
# once from one rule set — run five times under -race; the
# ingest smoke additionally gates the steady-state
# JSON ingest path at <= 8 allocs/op (TestHandleReportSteadyStateAllocs),
# so a scratch buffer or pool silently falling out of reuse fails the
# verify by name; two more gates do the same for the staged HTTP bodies —
# bytes and allocations per forwarded report and page at the gateway
# (TestForwardSteadyStateBytes, a revalidated page included) and per report
# and per 304 through the origin's handlers (TestReportHandlerSteadyStateBytes,
# TestPageNotModifiedSteadyStateBytes); the edge variant cache's adversaries
# (generated churn with a mid-run backend kill against twin engines, and a
# backend that answers 304 wrongly) run five times under -race as a named
# step. The gateway's own transport to its backends is a named step too: its
# conformance suite (a scripted raw-TCP server, net/http's Transport as the
# oracle), the https case and the backend-restart test run five times under
# -race, and the two body-lifetime tests that forward staged buffers without
# a copy (TestStagedBodyAcrossRetryAndFailover,
# TestSplitBatchesAndSinglesStayApart) ten times. The race step covers bodybuf and
# client too: under -race a released body buffer is overwritten at once, so
# the body-lifetime tests of gateway and origin fail on a stale reference,
# not only on a reused one. The
# guard chaos smoke re-runs the kill-the-alternate scenario on its own so a
# breaker regression fails the verify with a named step; the bulk rollback
# step runs, five times under -race, the table of every road an activation
# takes into a resident profile (TestTripReachesEveryRoad) beside the trip
# tests that race ingest, so a rollback that misses a road or races a report
# fails by name; one-iteration guard and synthesis benchmark runs (the guard's
# include the rollback pass's worst case, 100 affected of 20,000 resident)
# keep those micro-benchmarks compiling and running. Finally, a compact
# scenario smoke runs four checked-in end-to-end workloads (cellular,
# blackout, slowloris, popslow) against injected ground truth and gates on the precision/recall/trip floors in
# each spec's expect block — popslow additionally requires at least one
# breaker trip and one synthesized activation, so a regression in
# detection quality, guard response, population-level synthesis, or
# false-positive control fails the verify even when every unit test still
# passes. The nodeloss chaos smoke does the same for the cluster tier: it
# kills a gateway backend mid-traffic and requires zero 5xx after the
# probe window, snapshot-driven replacement, and a fleet-wide breaker
# broadcast with recall 1.0. The spill chaos smoke kills an engine
# mid-spill (torn segment tail) and hole-punches a sealed segment under a
# live engine, requiring recovery with no acknowledged state lost to the kill,
# nothing but the punched segment's users lost to the punch, and
# byte-identical exports across residency layouts; a one-iteration memory
# benchmark run keeps those micro-benchmarks running. The spill view step
# runs, five times under -race, the three tests that pin "only ingest changes
# where a profile lives": a reader of a spilled, activated user racing an
# eviction storm, ten thousand serve-side reads that must leave the tier's
# durable state byte-identical, and a seeded operation stream against a capped
# and an uncapped engine that must serve the same bytes, tags and fingerprints
# after every step — crashes of the capped engine that leave it nothing but
# its segment log, clean save-and-restarts on state file and segments, a
# restart across a record and a newer copy that share a last-report instant,
# and a rule change as a restart of both on a smaller rule set included, with
# byte-equal exports after every restart and crash; that stream runs in the boot-adopts-the-log step, beside the two
# tests that pin what a restart costs: a 2,000-user capped boot that must not
# spill, compact or change a byte of the segment directory
# (TestBootAdoptsTheLog) and the newer-wins predicate with the import around
# it, a case a row (TestNewerWinsMerge). The format step boots on the files the
# PR 18, PR 20 and PR 27 commits wrote (testdata/pr18-files, pr20-files,
# pr27-files) and those of the last commit that pinned a rehydrated user's
# record (testdata/pr31-files). The spill log
# order step runs, five times under
# -race, the two tests that pin "one append path, one order": the compactor
# moving a survivor must never let a stale record outrank a later one after a
# crash (TestCompactionKeepsLogOrder), and a refused append, a refused fsync or
# a kill between the re-append and the victim's removal must each leave the
# pre-compaction state recoverable with nothing quarantined
# (TestCompactionCrashPoints). The crash-prefix step replays every prefix of a
# seeded workload's file-operation trace, whole and with un-fsynced writes
# dropped and torn, boots on each — and again from the .bak with the primary
# removed, where there is one — and prints how many prefixes it ran and how
# many rehydrations a crash would have lost had the ref gone with them, each of
# which every prefix must bring back at an acknowledged state
# (TestCrashPrefixes, under -race). The spill index step boots the capped
# differential's and TestBootAdoptsTheLog's directories with the index and
# without it after every restart, and requires the same exports, counts and
# pages; boots each way an index can fail to fit (missing, empty, torn, a
# flipped byte, a foreign magic, a covered segment compacted, truncated or
# hole-punched) to the whole-log decode's state; re-runs the crash prefixes,
# whose trace now holds the index's writes — all three times under -race —
# then fuzzes the index loader for 5 s, gates a 20,000-user indexed boot at
# under 0.1 allocations a user and the index's probes at none, and runs the
# boot benchmark at 20,000 and 200,000 users once. The checkpoint step holds the state file
# to the resident set: a capped save reads no segment and names exactly the
# residents, an uncapped save is ExportSnapshot's bytes, and a quarantined
# segment's users are gone after a boot that says how many. A plain-grep structure check then fails by
# name if a second segment writer creeps back into the log (a .tmp file, a
# second sequence allocation, a frame parser outside seglog's Walk and Read), if
# the process-global spill failpoint returns, if non-test internal/core makes a
# file call of its own instead of going through the seglog.FS seam, if
# internal/seglog imports internal/core, if spill.go reaches 600 lines or
# non-test internal/core plus internal/seglog its budget, if the spill refs
# go back into a map (map[string]spillRef) beside the spill index, if a second serve-side
# memory comes back beside the page index (a per-profile activation memo:
# nextExpiry, actCache, cacheMu, cachedActivations, or an epoch in profile.go;
# or a cache of rewritten pages: maphash outside the spill index's user keys,
# or rewriteCache, in non-test internal/core or internal/origin),
# if a resident user's record is kept live by anything but their ref (pinned,
# pinLocked, releasePins, begun, type pin), if
# recovery grows back its staging map (byUser), if the boot merge compares times
# outside its one predicate (ref.last.After( in persist.go), if a second site
# bumps a profile's version, or if non-test code grows back a runtime rule swap,
# the rule-set generation or a removed test-only verb (SetRules, rulesGen,
# rulesMu, ruleSnapshot, PruneProfiles, HandleBatch), or if a second per-user
# store comes back beside the profiles (Ledger(, RecordUser, RecordActivation,
# core.RuleStat). A named step pins fig14 and table3 to a golden the reference
# build wrote (TestFig14Table3Golden). A
# fuzz smoke pins the internal/wire primitives both binary dialects are schemas
# over (round trip, canonical re-encoding, typed rejection). The state file has
# two readers: a fuzz smoke pins whatever its schema reader accepts to
# encoding/json's reading (FuzzDecodeStateEquivalence), and a named step holds
# every file the engine writes to that reader, each hand-written border row to
# its side of the subset, and the allocations per decoded profile and per
# walked segment record below the reflective decoder's; the structure check
# fails by name if persist.go grows a second json.Unmarshal of the payload or a
# JSON scanning primitive is defined outside internal/jsonscan. The benchmark module
# step vets and tests bench/ (its own module, which the root go build/test
# do not descend into) so an internal API change cannot break the serving
# benchmark of record (bash bench/run.sh) unnoticed.
set -e
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== gofmt -l . =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go test ./... =="
go test ./...

echo "== benchmark module: go vet + go test in bench/ =="
go -C bench vet ./...
go -C bench test ./...

echo "== go test -race ./internal/core ./internal/obs ./internal/bodybuf ./internal/client ./internal/origin ./internal/faultinject ./internal/gateway =="
go test -race ./internal/core ./internal/obs ./internal/bodybuf ./internal/client ./internal/origin ./internal/faultinject ./internal/gateway

echo "== fuzz smoke: FuzzImportState (5s) =="
go test -run '^$' -fuzz FuzzImportState -fuzztime 5s ./internal/core

echo "== fuzz smoke: FuzzDecodeStateEquivalence (5s) =="
go test -run '^$' -fuzz FuzzDecodeStateEquivalence -fuzztime 5s ./internal/core

echo "== state decode gate: the engine's own files stay on the fast reader, the border rows punt where they must, allocs per decoded profile and per walked segment record =="
go test -run 'TestStateFilesStayOnTheFastReader|TestStateRowsPuntWhereTheyMust|TestStateDecodeAllocs|TestSegmentWalkAllocs' -count=1 ./internal/core

echo "== fuzz smoke: FuzzApplyEquivalence (5s) =="
go test -run '^$' -fuzz FuzzApplyEquivalence -fuzztime 5s ./internal/rules

echo "== fuzz smoke: FuzzDecodeEquivalence (5s) =="
go test -run '^$' -fuzz FuzzDecodeEquivalence -fuzztime 5s ./internal/report

echo "== fuzz smoke: FuzzBinaryRoundTrip (5s) =="
go test -run '^$' -fuzz FuzzBinaryRoundTrip -fuzztime 5s ./internal/report

echo "== fuzz smoke: FuzzPrimitivesRoundTrip (10s) =="
go test -run xxx -fuzz FuzzPrimitivesRoundTrip -fuzztime 10s ./internal/wire

echo "== fuzz smoke: FuzzSniffUserAgreesWithDecode (5s) =="
go test -run '^$' -fuzz FuzzSniffUserAgreesWithDecode -fuzztime 5s ./internal/report

echo "== report decode gate: allocs per rotating decode (JSON, OAKRPT1) + rotating decode bench smoke =="
go test -run 'TestDecodeSteadyStateAllocs' -count=1 ./internal/report
go test -run '^$' -bench 'BenchmarkDecodeRotating' -benchtime 1x ./internal/report

echo "== intern table adversaries: memory bound under a token flood, shared table under -race =="
go test -run 'TestInternTableIsBounded' -count=1 ./internal/report
go test -race -run 'TestInternTableUnderConcurrentDecoders' -count=5 ./internal/report

echo "== serve-path benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkModifyPage' -benchtime 1x ./internal/core

echo "== serve memory gate: serving keeps nothing per user beyond the page index; deriving a view allocates nothing =="
out=$(go test -count=1 -run 'TestServingRetainsNoPerUserState|TestActivationViewAllocatesNothing|TestRewriteNoOpPathZeroAlloc' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|heap growth|byte cap'

echo "== serve path under -race, five times: views derived under the read lock against ingest, eviction storms, the capped/uncapped differential and engines built at once from one rule set =="
go test -race -run 'TestModifyPageConcurrentWithIngest|TestServeSpilledUserUnderEvictionStorm|TestCappedServesWhatUncappedServes|TestEnginesBuiltConcurrentlyFromOneRuleSet' -count=5 ./internal/core

echo "== ingest bench smoke + steady-state alloc gate (JSON path <= 8 allocs/op) =="
go test -run 'TestHandleReportSteadyStateAllocs' -count=1 ./internal/core
go test -run '^$' -bench 'BenchmarkHandleReportSerial$|BenchmarkIngest(JSON|Binary)$' -benchtime 1x ./internal/core

echo "== staged-body gates: bytes and allocs per forward (gateway; report, page, revalidated page) and per report (12 rotating reports, JSON and OAKRPT1) and per 304 (origin handler) =="
go test -run 'TestForwardSteadyStateBytes' -count=1 ./internal/gateway
go test -run 'TestReportHandlerSteadyStateBytes|TestPageNotModifiedSteadyStateBytes' -count=1 ./internal/origin

echo "== edge cache adversaries under -race, five times: generated churn with a mid-run kill, and the wrong-304 backend =="
go test -race -run 'TestEdgeCacheUnderChurn|TestWrong304IsNeverABlankPage' -count=5 ./internal/gateway

echo "== backend transport under -race, five times: conformance against net/http from the socket, https, backend restart and idle close =="
go test -race -run 'TestTransportAgreesWithNetHTTP|TestTransportOverTLS|TestForwardSurvivesBackendRestart|TestGatewayKeepsBackendConnections' -count=5 ./internal/gateway

echo "== staged bodies forwarded without a copy, under -race, ten times =="
go test -race -run 'TestStagedBodyAcrossRetryAndFailover|TestSplitBatchesAndSinglesStayApart' -count=10 ./internal/gateway

echo "== guard chaos smoke: kill-the-alternate loop under -race =="
go test -race -run 'TestChaosGuardKillsAlternateMidRun' -count=1 ./internal/faultinject

echo "== nodeloss chaos smoke: gateway failover + snapshot replacement under -race =="
go test -race -run 'TestNodeLossChaos' -count=1 ./internal/gateway

echo "== spill chaos smoke: kill-mid-spill + hole-punch under -race =="
go test -race -run 'TestSpillChaos' -count=1 ./internal/faultinject

echo "== spill log order under -race, five times: the compactor keeps (seq, offset) = age, and every crash point of it recovers the pre-compaction state =="
go test -race -run 'TestCompactionKeepsLogOrder|TestCompactionCrashPoints' -count=5 ./internal/core

echo "== crash prefixes under -race: every prefix of a seeded trace, whole, torn and from the .bak, boots to a durable state; prefixes and hazard cases =="
out=$(go test -race -count=1 -run 'TestCrashPrefixes' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep 'prefixes'

echo "== spill index under -race, three times: a boot with the index serves what a boot without it serves, every way an index can fail to fit falls back to the whole-log decode, crash prefixes through the index's writes; a 5s FuzzSpillIndexLoad smoke; the boot and probe allocation gates; one BenchmarkBootCapped run =="
go test -race -count=3 -run 'TestCappedServesWhatUncappedServes|TestBootAdoptsTheLog|TestSpillIndexFallback|TestIndexedBootDecodesRecordsWithoutAnEntry|TestSpillIndexAgreesWithAMap|TestRecoverLeavesStraysAlone|TestCrashPrefixes' ./internal/core
go test -run '^$' -fuzz FuzzSpillIndexLoad -fuzztime 5s ./internal/core
out=$(go test -count=1 -run 'TestIndexedBootAllocs|TestSpillIndexProbeAllocatesNothing' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|allocations booting'
go test -run '^$' -bench 'BenchmarkBootCapped' -benchtime 1x ./internal/core

echo "== checkpoint holds residents only: a capped save reads no record, an uncapped save is the snapshot, a quarantined segment's users are gone =="
out=$(go test -count=1 -run 'TestCheckpointHoldsResidentsOnly|TestUncappedSaveIsTheSnapshot|TestBootAdoptsTheLog/one_segment_damaged' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|gone with'

echo "== structure check: one segment writer, one sequence allocator, one segment walker, one file seam, one serve cache, one durable ref, one page index, one merge predicate, one version bump, one home for an activation, one rule set per process, one home for a user, one reference decoder, one JSON scanner, one spill index =="
fail() { echo "structure check failed: $1" >&2; exit 1; }
seglog_go=$(ls internal/seglog/*.go | grep -v '_test\.go$')
core_go=$(ls internal/core/*.go | grep -v '_test\.go$')
if grep -n '\.tmp' $seglog_go internal/core/spill.go; then
	fail "no-tmp-files: the segment log mentions .tmp (segments are only ever appended to, never written aside and renamed)"
fi
[ "$(cat $seglog_go $core_go | grep -c 'nextSeq++')" = 1 ] && grep -q 'nextSeq++' internal/seglog/seglog.go ||
	fail "one-sequence-allocator: nextSeq++ must occur exactly once, in internal/seglog/seglog.go (Create)"
callers=$(echo $seglog_go $core_go | xargs awk '/^func /{fn=$0} /NextFrame\(/ && !/^[[:space:]]*\/\//{print FILENAME ":" fn}' |
	sed -E 's/^([^:]*):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1:\3/' | sort -u | tr '\n' ' ')
[ "$callers" = "internal/seglog/seglog.go:Read internal/seglog/seglog.go:Walk " ] ||
	fail "one-segment-walker: NextFrame( is called from [ $callers], want seglog's Read and Walk only"
if grep -rn --include='*.go' 'SetSpillFailpoint\|spillFailpoint\|spillFail(' internal/ cmd/ oak.go; then
	fail "no-global-failpoint: the process-global spill failpoint is back (a fault is a fake seglog.FS in the test, not a global)"
fi
if grep -nE 'os\.(Open|OpenFile|Create|ReadFile|WriteFile|ReadDir|MkdirAll|Remove|Rename|Stat|Truncate)\(' $core_go; then
	fail "one-file-seam: non-test internal/core calls the os package's file functions (every durable byte goes through seglog.FS)"
fi
if grep -n '"oak/internal/core"' $seglog_go; then
	fail "seglog-knows-no-profiles: internal/seglog imports oak/internal/core"
fi
spill_lines=$(wc -l <internal/core/spill.go)
log_lines=$(cat $core_go $seglog_go | wc -l)
# The budget is the measured count once each rewrite was spliced from a
# once-per-page index, 7,512 - 32: rewritecache.go -239, engine.go -111,
# guardwire.go -58, metrics.go +1, serve.go +375 (the page registry,
# plans, derived tags and the shims the benchmark still calls).
echo "spill.go: $spill_lines lines (< 600); non-test internal/core + internal/seglog: $log_lines lines (<= 7480)"
[ "$spill_lines" -lt 600 ] || fail "line-budget: spill.go has $spill_lines lines, want under 600"
[ "$log_lines" -le 7480 ] || fail "line-budget: non-test internal/core + internal/seglog has $log_lines lines, want at most 7480"
if grep -n 'map\[string\]spillRef' $core_go; then
	fail "one-spill-index: non-test internal/core keeps spill refs in a map again (a shard's refs live in its spillIndex: slots and a key blob, no heap object per user)"
fi
if grep -n 'nextExpiry\|actCache\|cacheMu\|cachedActivations' $core_go || grep -n 'epoch' internal/core/profile.go; then
	fail "one-serve-cache: non-test internal/core keeps a per-profile activation memo again (each serve derives its view under the shard lock; the page index is the serve path's only memory)"
fi
origin_go=$(ls internal/origin/*.go | grep -v '_test\.go$')
# The spill index hashes user IDs with maphash; nothing else in core or
# origin may (a page body hashed per serve is a cache key).
if grep -n 'maphash\|rewriteCache' $core_go $origin_go | grep -v '^internal/core/spillindex\.go:'; then
	fail "one-page-index: non-test internal/core or internal/origin caches rewritten pages again (each serve splices from the page's index; no serve hashes a body)"
fi
if grep -n 'pinned\|pinLocked\|releasePins\|begun\|type pin\b' $core_go; then
	fail "one-durable-ref: non-test internal/core keeps a record live beside the spill refs again (a resident user keeps their ref; its record is live until their next record replaces it)"
fi
if grep -n 'byUser' internal/core/spill.go internal/core/spillboot.go; then
	fail "recovery-commits-in-place: the spill tier mentions byUser (recoverSpill commits each segment's frames into the shards' presized indexes, no per-user staging map)"
fi
if grep -n 'ref\.last\.After(' internal/core/persist.go; then
	fail "one-merge-predicate: persist.go compares ref.last itself (newer-wins is spillRef.supersedes, nothing else)"
fi
bumps=$(cat $core_go | grep -c 'version++')
[ "$bumps" -eq 1 ] ||
	fail "one-version-bump: version++ occurs $bumps times in non-test internal/core, want once (analyzeLocked, beside lastReport)"

if grep -rn 'provIndex\|indexActivation\|freshIdx' internal/ cmd/ oak.go; then
	fail "activations-live-in-profiles: the guard's provider index is back (a bulk rollback is rollbackWhere's pass over the resident profiles)"
fi
# Non-test code only: a test can call only what non-test code defines, and the
# batch tests and BenchmarkHandleBatch keep their names, now driving StartBatch.
if grep -rn --include='*.go' --exclude='*_test.go' 'SetRules\|rulesGen\|rulesMu\|ruleSnapshot\|PruneProfiles\|HandleBatch' internal/ cmd/ oak.go; then
	fail "one-rule-set-per-process: a runtime rule swap, the rule-set generation or a removed test-only verb is back (a rule change is a restart; batches go through StartBatch)"
fi

if grep -rn --include='*.go' --exclude='*_test.go' 'Ledger(\|RecordUser\|RecordActivation\|core\.RuleStat' internal/ cmd/ oak.go examples/; then
	fail "one-home-for-a-user: a second per-user store is back (the audit folds over the profiles; fig14/table3 tally HandleReport's results)"
fi

unmarshals=$(grep -c 'json\.Unmarshal(payload' internal/core/persist.go)
[ "$unmarshals" -eq 1 ] ||
	fail "one-reference-decoder: json.Unmarshal(payload occurs $unmarshals times in persist.go, want once (decodeState's fallback)"
for prim in ScanString ScanInt64 ScanFloat64 SkipValue; do
	defs=$(grep -rlEi --include='*.go' "^func \([a-z]+ \*?[A-Za-z]+\) $prim\(" . | tr '\n' ' ')
	[ "$defs" = "./internal/jsonscan/jsonscan.go " ] ||
		fail "one-json-scanner: $prim is defined (in any case) in [ $defs], want internal/jsonscan/jsonscan.go only"
done

echo "== spill view under -race, five times: reads move nothing, an eviction storm cannot blank an activated user =="
go test -race -run 'TestServeSpilledUserUnderEvictionStorm|TestPageReadsNeverWriteTheSpillTier' -count=5 ./internal/core

echo "== boot adopts the log under -race, five times: a capped boot writes nothing, the newer-wins table, capped serves what uncapped serves across restarts =="
go test -race -run 'TestBootAdoptsTheLog|TestNewerWinsMerge|TestCappedServesWhatUncappedServes' -count=5 ./internal/core

echo "== on-disk formats: boots on the files PR 18, PR 20 and PR 27 wrote, and a spill index holding pins =="
go test -run 'TestBootsOnFilesWritten' -count=1 ./internal/core

echo "== memory benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkSpillRehydrate$|BenchmarkServeCold95$|BenchmarkIngestCapped$' -benchtime 1x ./internal/core

echo "== bulk rollback under -race, five times: a trip reaches every road into a resident profile, and races ingest, serving, export and rule quarantines =="
go test -race -run 'TestTripReachesEveryRoad|TestGuardTripBulkRollsBackAllUsers|TestGuardConcurrentTripAndServe' -count=5 ./internal/core

echo "== guard benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkActivationGuardOn|BenchmarkGuardRollback100$|BenchmarkGuardRollback100of20000$' -benchtime 1x ./internal/core

echo "== synthesis benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkHandleReportSynth(On|Off)$' -benchtime 1x ./internal/core

echo "== fig14/table3 golden: the rule tally reproduces the reference build's figures byte for byte =="
go test -run 'TestFig14Table3Golden' -count=1 ./internal/experiment

echo "== scenario smoke: cellular + blackout + slowloris + popslow (gated on expect floors) =="
go run ./cmd/oakbench scenario cellular blackout slowloris popslow

echo "verify: OK"
