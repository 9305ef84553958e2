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
# cold, warm, warmed by siblings whose continuations every entry
# mismatches, and with the page's template from a sibling that differs in
# one entry or in length) and the OAKRPT1 binary codec to round-trip identity with
# typed rejection of hostile frames. The gateway routes a cookie-less JSON
# report by the very decode the backend files it by (report.SniffItemUser),
# so no fuzzer has to pin a second reader to it. The
# report decode gate
# (TestDecodeSteadyStateAllocs) holds a pooled decode of 12 rotating reports,
# in either wire format, to the allocations the intern table leaves, next to
# a one-iteration BenchmarkDecodeRotating; the churn gate (churngate.sh) holds
# a JSON rotation whose every entry mismatches its URL's continuation to +5 %
# of the decoder before continuations, and rotations whose every report
# mismatches its page's template in the first entry or names a new page to
# +5 % of the decoder before templates, on the same bodies, by the CPU time
# of runs of at least 100 ms; the tables'
# adversaries (a flood of unique and over-length tokens, continuations
# filling entries to the byte, against the intern table's memory bound; a
# flood of pages whose templates keep replaced entries alive, against the
# template table's; one URL with a new entry every time, against bytes and
# allocations per entry; a new page in every report, against bytes and
# allocations per report; and concurrent JSON and OAKRPT1 decoders over
# colliding URLs, publishing templates, under -race) are a named step. A
# one-iteration serve benchmark run keeps the benchmark
# code compiling; beside it a gate holds the live heap that serving 400
# activated users on twelve registered paths adds to 1 MB, the page indexes
# included, and the serve-path concurrency tests — with four engines built at
# once from one rule set — run five times under -race; the
# ingest smoke additionally gates the steady-state
# JSON ingest path at <= 8 allocs/op (TestHandleReportSteadyStateAllocs),
# so a scratch buffer or pool silently falling out of reuse fails the
# verify by name; the ingest scratch gate holds a healthy report to what
# the engine returns (TestHealthyIngestSteadyStateBytes: <= 256 B and 3
# allocations, the grouping done in pooled scratch), and a kept result's
# violators must survive a thousand later reports under -race
# (TestIngestResultOutlivesScratch, in the ingest/serve -race step); two more gates do the same for the staged HTTP bodies —
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
# breaker regression fails the verify with a named step; the rollback step
# runs, five times under -race, the table of every road an activation takes
# into a profile (TestTripReachesEveryRoad) beside the trip tests that race
# ingest, so a rollback epoch that misses a road or races a report fails by
# name; the guard's toll is a count — on an activating load the guard
# allocates nothing the guardless engine does not (TestGuardAddsNoAllocations)
# — and one-iteration guard and synthesis benchmark runs keep those
# micro-benchmarks compiling and running. Finally, a compact
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
# pr27-files), those of the last commit that pinned a rehydrated user's
# record (testdata/pr31-files) and those of the last commit whose state file
# was JSON (testdata/pr33-files), through the migration and a save after it,
# and those of the last commit before activations recorded epochs
# (testdata/pr41-files), whose breaker is open over a spilled activation that
# must read as dead at boot and after the breaker closes. The spill log
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
# (TestCrashPrefixes, under -race; its workload holds authoritative imports,
# whose deletes must hold at every later prefix). The checkpoint index step
# boots the capped differential's and TestBootAdoptsTheLog's directories with
# the checkpoint's index and without it after every restart until an import
# drops a user, and requires the same exports, counts and pages; boots a
# damaged checkpoint from its backup, and each way an index can fail to fit
# (missing, empty, torn, a flipped byte, a covered segment truncated or
# hole-punched) to the whole-log decode's state; holds a record without an
# entry, and an entry in a segment gone since, dead; boots after imports
# without the users they dropped, crashed or clean; re-runs the crash prefixes
# — all three times under -race — then fuzzes the index frames for 5 s, gates
# a 20,000-user indexed boot at under 0.1 allocations a user and the index's
# probes at none, splits an index too big for one frame, and runs the boot
# benchmark at 20,000 and 200,000 users once. The checkpoint step holds a
# capped checkpoint to the index: a capped save reads no segment, writes
# nothing at the state file's path and holds no profile record, and a
# quarantined segment's users are gone after a boot that says how many; an
# uncapped save loads back to ExportSnapshot's bytes. A plain-grep structure check then fails by
# name if a second segment writer creeps back into the log (a .tmp file, a
# second sequence allocation, a frame parser outside seglog's Walk and Read), if
# the process-global spill failpoint returns, if non-test internal/core makes a
# file call of its own instead of going through the seglog.FS seam, if
# internal/seglog imports internal/core, if the spill tier keeps a second
# durable file beside the log and its checkpoint (one-durable-home: spill.idx
# or spillIndexName in non-test internal/core, or spillRef.supersedes called
# beyond the one read of a legacy state file), if spill.go reaches 600 lines or
# non-test internal/core plus internal/seglog its budget, if the spill refs
# go back into a map (map[string]spillRef) beside the spill index, if a second serve-side
# memory comes back beside the page index (a per-profile activation memo:
# nextExpiry, actCache, cacheMu, cachedActivations, observeExpiry, or an
# atomic epoch in profile.go;
# or a cache of rewritten pages: maphash outside the spill index's user keys,
# or rewriteCache, in non-test internal/core or internal/origin),
# if a rollback takes a second road beside the epoch (one-rollback:
# rollbackWhere, spillActivationBarred or a guarded bool in non-test
# internal/core), if a resident user's record is kept live by anything but
# their ref (pinned,
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
# over (round trip, canonical re-encoding, typed rejection). The state file is
# a checkpoint, a segment of OAKPROF1 records: a fuzz smoke feeds any bytes as
# the file and its backup and requires a load or a typed error that leaves the
# engine as it was (FuzzLoadCheckpoint), and a named step holds every file the
# engine writes to the state it was written from, every damaged one (a record
# short or extra at a frame boundary among them) to its typed error, and the
# allocations per loaded profile and per walked segment record under 3.5; the
# structure check
# fails by name if persist.go grows a second json.Unmarshal of the payload, if
# a JSON scanning primitive is defined outside internal/jsonscan, if a second
# JSON reader of the report comes back (one-json-reader: no SniffJSONUser or
# sniffUser in non-test code, and only internal/report imports
# internal/jsonscan), or if a
# profile gets a second durable codec (one-profile-codec: internal/core reads
# no JSON with internal/jsonscan, and marshals JSON only in exportStateRange
# and a checkpoint's header), and if the gateway reaches a backend around its
# one bounded call (one-backend-call: non-test internal/gateway names no
# http.Client, NewRequestWithContext, io.LimitReader, io.ReadAll, SubmitURL or
# client.HTTPClient, and only forward.go's call calls RoundTrip), if a body is
# read around a staged buffer (one-body-read: non-test internal/origin,
# internal/gateway and internal/client name no io.ReadAll, io.LimitReader or
# bufio.Scanner), or if a batch is walked outside internal/report
# (one-batch-walk: among non-test internal/ packages only internal/report
# calls NextBinaryFrame). The report sweep step POSTs generated bodies of the
# four report content types, at and one byte over every bound, to a node and
# to a gateway over two nodes, and requires the same status, counts, capped
# samples and state of both (TestReportSweep*, TestBatchSamplesCapOnBothTiers). The benchmark module
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

echo "== fuzz smoke: FuzzLoadCheckpoint (5s) =="
go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 5s ./internal/core

echo "== checkpoint gate: every state file the engine writes holds the state it was written from, every damaged one is refused typed, allocs per loaded profile and per walked segment record =="
out=$(go test -run 'TestEngineWritesCheckpoints|TestCheckpointDamageIsCorrupt|TestStateDecodeAllocs|TestSegmentWalkAllocs' -count=1 -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|allocs per'


echo "== fuzz smoke: FuzzApplyEquivalence (5s) =="
go test -run '^$' -fuzz FuzzApplyEquivalence -fuzztime 5s ./internal/rules

echo "== fuzz smoke: FuzzDecodeEquivalence (5s) =="
go test -run '^$' -fuzz FuzzDecodeEquivalence -fuzztime 5s ./internal/report

echo "== fuzz smoke: FuzzBinaryRoundTrip (5s) =="
go test -run '^$' -fuzz FuzzBinaryRoundTrip -fuzztime 5s ./internal/report

echo "== fuzz smoke: FuzzPrimitivesRoundTrip (10s) =="
go test -run xxx -fuzz FuzzPrimitivesRoundTrip -fuzztime 10s ./internal/wire

echo "== report decode gate: allocs per rotating decode (JSON, OAKRPT1) + rotating decode bench smoke =="
out=$(go test -run 'TestDecodeSteadyStateAllocs' -count=1 -v ./internal/report) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|allocs per decode'
go test -run '^$' -bench 'BenchmarkDecodeRotating' -benchtime 1x ./internal/report

echo "== churn gate: a JSON rotation whose every entry mismatches its continuation, against the decoder before continuations; reordered and new-page rotations, against the decoder before templates; by CPU time =="
sh scripts/churngate.sh

echo "== intern and template table adversaries: memory bounds under token and page floods with continuations and stale template entries, one URL's continuation flood, a new-page flood, shared tables under -race =="
out=$(go test -run 'TestInternTableIsBounded|TestContinuationFloodIsBounded|TestTemplateTableIsBounded|TestTemplateFloodIsBounded' -count=1 -v ./internal/report) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|string bytes|per entry|templates,|new-page report'
go test -race -run 'TestInternTableUnderConcurrentDecoders' -count=5 ./internal/report

echo "== serve-path benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkModifyPage' -benchtime 1x ./internal/core

echo "== serve memory gate: serving keeps nothing per user beyond the page index; deriving a view allocates nothing =="
out=$(go test -count=1 -run 'TestServingRetainsNoPerUserState|TestActivationViewAllocatesNothing|TestRewriteNoOpPathZeroAlloc' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|heap growth|byte cap'

echo "== ingest/serve path under -race, five times: views derived under the read lock against ingest, eviction storms, the capped/uncapped differential, engines built at once from one rule set, and a kept ingest result against the pooled scratch =="
go test -race -run 'TestModifyPageConcurrentWithIngest|TestServeSpilledUserUnderEvictionStorm|TestCappedServesWhatUncappedServes|TestEnginesBuiltConcurrentlyFromOneRuleSet|TestIngestResultOutlivesScratch' -count=5 ./internal/core

echo "== ingest scratch gate: a healthy 40-entry report costs the engine <= 256 B and <= 3 allocations (grouping, detection and script list live in the pooled ingest scratch) =="
out=$(go test -count=1 -run 'TestHealthyIngestSteadyStateBytes' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|per healthy report'

echo "== ingest bench smoke + steady-state alloc gate (JSON path <= 8 allocs/op) =="
go test -run 'TestHandleReportSteadyStateAllocs' -count=1 ./internal/core
go test -run '^$' -bench 'BenchmarkHandleReportSerial$|BenchmarkIngest(JSON|Binary)$' -benchtime 1x ./internal/core

echo "== staged-body gates: bytes and allocs per forward (gateway; report, page, revalidated page) and per report (12 rotating reports, JSON and OAKRPT1) and per 304 (origin handler) =="
go test -run 'TestForwardSteadyStateBytes' -count=1 ./internal/gateway
go test -run 'TestReportHandlerSteadyStateBytes|TestPageNotModifiedSteadyStateBytes' -count=1 ./internal/origin

echo "== report sweep: generated report bodies of every content type, at and one byte over every bound, answer and end alike on one node and through a gateway over two =="
out=$(go test -count=1 -run 'TestReportSweep|TestBatchSamplesCapOnBothTiers' -v ./internal/gateway) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '^--- PASS'

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

echo "== checkpoint index under -race, three times: a boot on the checkpoint's index serves what the whole-log decode serves until an import drops a user, a damaged checkpoint boots from its backup, an index that does not fit falls back to the whole-log decode, a record without an entry and an entry in a gone segment are dead, import deletes survive a crash and a restart, crash prefixes through the checkpoint's writes and imports; a 5s FuzzSpillIndexLoad smoke; the boot and probe allocation gates and the index-frame split; one BenchmarkBootCapped run =="
go test -race -count=3 -run 'TestCappedServesWhatUncappedServes|TestBootAdoptsTheLog|TestSpillIndexFallback|TestIndexedBootDropsRecordsWithoutAnEntry|TestEntriesInAGoneSegmentAreDead|TestImportDeletesSurviveARestart|TestImportWhoseCheckpointFails|TestEvictionRewritesARecordInAQuarantinedSegment|TestSpillIndexAgreesWithAMap|TestRecoverLeavesStraysAlone|TestCrashPrefixes' ./internal/core
go test -run '^$' -fuzz FuzzSpillIndexLoad -fuzztime 5s ./internal/core
out=$(go test -count=1 -run 'TestIndexedBootAllocs|TestSpillIndexProbeAllocatesNothing|TestIndexFramesSplit' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|allocations booting|users in'
go test -run '^$' -bench 'BenchmarkBootCapped' -benchtime 1x ./internal/core

echo "== a capped checkpoint holds no profile: a capped save reads no record and writes nothing at the state file's path, an uncapped save loads back to the snapshot, a quarantined segment's users are gone =="
out=$(go test -count=1 -run 'TestCappedCheckpointHoldsNoProfile|TestUncappedSaveIsTheSnapshot|TestBootAdoptsTheLog/one_segment_damaged' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|gone with'

echo "== structure check: one segment writer, one sequence allocator, one segment walker, one file seam, one serve cache, one durable ref, one page index, one merge predicate, one version bump, one home for an activation, one rollback, one rule set per process, one home for a user, one durable home for a profile, one reference decoder, one JSON scanner, one JSON reader, one profile codec, one spill index, one backend call, one body read, one batch walk, one admission =="
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
if grep -n 'spill\.idx\|spillIndexName' $core_go; then
	fail "one-durable-home: non-test internal/core names spill.idx again (under a cap the log is every profile's home and the spill directory's checkpoint is its index)"
fi
mergers=$(echo $core_go | xargs awk '/^func /{fn=$0} /\.supersedes\(/ && !/^[[:space:]]*\/\//{print FILENAME ":" fn}' |
	sed -E 's/^([^:]*):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1:\3/' | sort -u | tr '\n' ' ')
[ "$mergers" = "internal/core/persist.go:buildImport " ] ||
	fail "one-durable-home: spillRef.supersedes is called from [ $mergers], want persist.go's buildImport only (the one read of a state file written before the checkpoint moved into the spill directory)"
spill_lines=$(wc -l <internal/core/spill.go)
log_lines=$(cat $core_go $seglog_go | wc -l)
# The budget is the measured count once the state file became a checkpoint,
# 7,480 - 250: statedecode.go -399, persist.go +14, statefile.go +73,
# spillcodec.go +31, profile.go +21, engine.go and popwire.go +10 (the
# checkpoint, and the bound that keeps every profile's record within a frame),
# then 7,230 - 11 once ingest grouped into pooled scratch: analyzer.go -10
# (one detection pass per metric, the ingest scratch beside it), engine.go -1,
# then 7,219 - 10 once admission became one decision: guardwire.go's
# admitLocked replaced guardAdmit and the three sites' canary bookkeeping,
# then 7,209 - 1 once a rollback became an epoch: the trip walk, the
# spilled-record filter and installRecordLocked went, the epoch table, the
# ingest prune, the record's epoch field and the import's squaring with the
# guard's counts came, then 7,208 - 2 once the log became every capped
# profile's one home: spill.idx's file, ImportCounts and the boot merge went,
# the checkpoint's index frames, its backup at boot and the resident appends
# of a capped save and import came.
echo "spill.go: $spill_lines lines (< 600); non-test internal/core + internal/seglog: $log_lines lines (<= 7206)"
[ "$spill_lines" -lt 600 ] || fail "line-budget: spill.go has $spill_lines lines, want under 600"
[ "$log_lines" -le 7206 ] || fail "line-budget: non-test internal/core + internal/seglog has $log_lines lines, want at most 7206"
if grep -n 'map\[string\]spillRef' $core_go; then
	fail "one-spill-index: non-test internal/core keeps spill refs in a map again (a shard's refs live in its spillIndex: slots and a key blob, no heap object per user)"
fi
if grep -n 'nextExpiry\|actCache\|cacheMu\|cachedActivations\|observeExpiry' $core_go || grep -nE 'epoch[[:space:]]+atomic|p\.epoch\b' internal/core/profile.go; then
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

if grep -nE '^func \(s \*Set\) Allow\(' internal/guard/*.go; then
	fail "one-admission: guard.Set has an Allow again (an activation is admitted whole by Set.Admit, which spends canary slots only when every provider admits)"
fi
admitters=$(echo $core_go | xargs awk '/^func /{fn=$0} /guard\.Admit\(/ && !/^[[:space:]]*\/\//{print FILENAME ":" fn}' |
	sed -E 's/^([^:]*):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1:\3/' | sort -u | tr '\n' ' ')
[ "$admitters" = "internal/core/guardwire.go:admitLocked " ] ||
	fail "one-admission: guard.Admit( is called from [ $admitters], want guardwire.go's admitLocked only (activation, advance and synthesis each ask it once)"

if grep -rn 'provIndex\|indexActivation\|freshIdx' internal/ cmd/ oak.go; then
	fail "activations-live-in-profiles: the guard's provider index is back (a rollback is an epoch every activation records; deadAt reads it wherever the activation lives)"
fi
if grep -n 'rollbackWhere\|spillActivationBarred\|guarded bool' $core_go; then
	fail "one-rollback: a trip walks profiles or filters spilled records again (a trip or quarantine moves an epoch, and deadAt is the one predicate for resident, spilled, exported and imported activations)"
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
	fail "one-reference-decoder: json.Unmarshal(payload occurs $unmarshals times in persist.go, want once (decodeState)"
for prim in ScanString ScanInt64 ScanFloat64; do
	defs=$(grep -rlEi --include='*.go' "^func \([a-z]+ \*?[A-Za-z]+\) $prim\(" . | tr '\n' ' ')
	[ "$defs" = "./internal/jsonscan/jsonscan.go " ] ||
		fail "one-json-scanner: $prim is defined (in any case) in [ $defs], want internal/jsonscan/jsonscan.go only"
done

if grep -rnE --include='*.go' --exclude='*_test.go' '^func (\([^)]*\) )?(SniffJSONUser|sniffUser)\(' internal/ cmd/ examples/ *.go; then
	fail "one-json-reader: a second JSON reader of the report is back (the gateway routes a cookie-less report by the decode its backend files it by: report.SniffItemUser)"
fi
readers=$(grep -rl --include='*.go' --exclude='*_test.go' '"oak/internal/jsonscan"' internal/ cmd/ examples/ *.go | xargs -n1 dirname | sort -u | tr '\n' ' ')
[ "$readers" = "internal/report " ] ||
	fail "one-json-reader: internal/jsonscan is imported by non-test code in [ $readers], want internal/report only (the report's decoder is its one reader)"

if grep -n '"oak/internal/jsonscan"' $core_go; then
	fail "one-profile-codec: non-test internal/core imports internal/jsonscan (a profile's durable form is its OAKPROF1 record; JSON state is read by encoding/json alone)"
fi
marshals=$(echo $core_go | xargs awk '/^func /{fn=$0} /json\.Marshal/ && !/^[[:space:]]*\/\//{print FILENAME ":" fn}' |
	sed -E 's/^([^:]*):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1:\3/' | sort -u | tr '\n' ' ')
[ "$marshals" = "internal/core/persist.go:exportStateRange internal/core/statefile.go:encodeCheckpoint " ] &&
	grep -q '^	Profiles int `json:"profiles"`$' internal/core/statefile.go ||
	fail "one-profile-codec: json.Marshal is called from [ $marshals], want exportStateRange and encodeCheckpoint only, the latter over a header whose profiles are a count"

gateway_go=$(ls internal/gateway/*.go | grep -v '_test\.go$')
if grep -nE 'http\.Client|NewRequestWithContext|io\.LimitReader|io\.ReadAll|SubmitURL|client\.HTTPClient' $gateway_go; then
	fail "one-backend-call: non-test internal/gateway reaches a backend around call (no http.Client, no oak client, no request built or body read but in call)"
fi
callers=$(echo $gateway_go | xargs awk '/^func /{fn=$0} /RoundTrip\(/ && !/^func \([^)]*\) RoundTrip\(/ && !/^[[:space:]]*\/\//{print FILENAME ":" fn}' |
	sed -E 's/^([^:]*):func (\([^)]*\) )?([A-Za-z0-9_]+).*/\1:\3/' | sort -u | tr '\n' ' ')
[ "$callers" = "internal/gateway/forward.go:call " ] ||
	fail "one-backend-call: RoundTrip( is called from [ $callers], want forward.go's call only"

if grep -nE 'io\.ReadAll|io\.LimitReader|bufio\.Scanner' $origin_go $gateway_go $(ls internal/client/*.go | grep -v '_test\.go$'); then
	fail "one-body-read: non-test internal/origin, internal/gateway or internal/client reads a body around bodybuf (every body is staged once, under a named bound)"
fi
walkers=$(grep -rlE --include='*.go' --exclude='*_test.go' '(^|[^A-Za-z0-9_])NextBinaryFrame\(' internal/ | xargs -n1 dirname | sort -u | tr '\n' ' ')
[ "$walkers" = "internal/report " ] ||
	fail "one-batch-walk: NextBinaryFrame( is called in [ $walkers], want internal/report only (a batch is walked with report.NextItem)"

echo "== spill view under -race, five times: reads move nothing, an eviction storm cannot blank an activated user =="
go test -race -run 'TestServeSpilledUserUnderEvictionStorm|TestPageReadsNeverWriteTheSpillTier' -count=5 ./internal/core

echo "== boot adopts the log under -race, five times: a capped boot installs and writes nothing, the legacy read's newer-wins table, capped serves what uncapped serves across restarts =="
go test -race -run 'TestBootAdoptsTheLog|TestNewerWinsMerge|TestCappedServesWhatUncappedServes' -count=5 ./internal/core

echo "== on-disk formats: boots on the checked-in files of earlier writers (a spill.idx holding pins, JSON state files, the state file beside the spill directory), migrated to the spill directory's checkpoint by the next save =="
go test -run 'TestBootsOnFilesWritten' -count=1 ./internal/core

echo "== memory benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkSpillRehydrate$|BenchmarkServeCold95$|BenchmarkIngestCapped$' -benchtime 1x ./internal/core

echo "== rollback epoch under -race, five times: a trip reaches every road into a profile, and races ingest, serving, export and rule quarantines =="
go test -race -run 'TestTripReachesEveryRoad|TestGuardTripBulkRollsBackAllUsers|TestGuardConcurrentTripAndServe' -count=5 ./internal/core

echo "== guard toll: the guard adds no allocation to an activating report; guard benchmark smoke (1 iteration) =="
out=$(go test -count=1 -run 'TestGuardAddsNoAllocations' -v ./internal/core) || { echo "$out" >&2; exit 1; }
echo "$out" | grep -E -e '--- PASS|allocs per activating report'
go test -run '^$' -bench 'BenchmarkActivationGuard(On|Off)$' -benchtime 1x ./internal/core

echo "== synthesis benchmark smoke (1 iteration) =="
go test -run '^$' -bench 'BenchmarkHandleReportSynth(On|Off)$' -benchtime 1x ./internal/core

echo "== fig14/table3 golden: the rule tally reproduces the reference build's figures byte for byte =="
go test -run 'TestFig14Table3Golden' -count=1 ./internal/experiment

echo "== scenario smoke: cellular + blackout + slowloris + popslow (gated on expect floors) =="
go run ./cmd/oakbench scenario cellular blackout slowloris popslow

echo "verify: OK"
