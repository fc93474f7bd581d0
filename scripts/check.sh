#!/bin/sh
# Full local verification: formatting, build, vet, the named contract
# tests, the fuzz seed corpora, the campaign and benchmark smoke runs,
# then the whole suite under the race detector. The structural gates (one
# chassis, one sync manager, one spawn site, the line budgets, ...) live
# in TestStructure (structure_test.go) and the dead-export gate in
# TestNoDeadExports; `go test -v -run 'TestStructure|TestNoDeadExports' .`
# prints their counts.
#
# Every step runs, whatever failed before it; the script exits 1 at the end
# and lists the steps that failed.
set -u

cd "$(dirname "$0")/.."

failed=""
# step runs one verification step and records it when it fails.
step() {
    echo "+ $*" >&2
    if ! "$@"; then
        failed="$failed
    $*"
    fi
}

# gofmt gate: fail loudly if any file is unformatted.
gofmt_clean() {
    unformatted=$(gofmt -l .)
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        return 1
    fi
}
step gofmt_clean

step go build ./...
step go vet ./...
step go test -count=1 -run 'TestStructure' .

# The models' thread and collective calls against goldens recorded before
# they moved into Task Management and Cluster Control.
step go test -race -count=5 -run 'TestModelScriptIdentity' .

# Every Config field, flag and file key has a committed measurement behind
# it, and every feature x engine cell works or is rejected by Validate
# with a reason.
step go test -run 'TestSurfaceEvidence' ./internal/bench/ ./internal/cluster/ ./cmd/hamsterrun/ ./cmd/hamsterbench/

# Load-bearing contracts by name, so a failure is unmistakable before the
# full suite: attribution sums to the clock; a panic never strands a peer;
# locks, barriers and accessors match their pre-consolidation goldens
# (five times: the scripts must be schedule-independent); crash recovery,
# aggregation, 64-node hierarchical sync and ParallelNodes move no
# checksum.
step go test -race -run 'TestAttributionInvariantAllSubstrates|TestNewAllocatesNoRings|TestReenableKeepsEventsWithoutAllocating|TestEnableRacesRecord' ./internal/perfmon/
step go test -race -run 'TestConfigMatrix|TestNodePanicUnblocksPeers|TestCloseNeedsQuiescence' ./internal/core/
step go test -race -run 'TestManager|TestAbortWakesWaiters|TestDLockMutualExclusion64' ./internal/hsync/
step go test -race -count=5 -run 'TestSyncScriptIdentity|TestAccessScriptIdentity' ./internal/bench/
step go test -race -run 'TestCrashRecoveryKernels|TestAggregationEquivalence|TestHierSyncKernels64|TestHierSyncFaults64|TestPNodesIdentity|TestPNodesFaultDeterminism|TestPNodesCrashRecoveryDeterminism' ./internal/bench/

# Bench-identity and allocation gates, plain: the pinned numbers are what
# ships in BENCH_3/4/6/7/8.json, and the race runtime allocates on its own.
# Committed artifacts replay, cell-parallel equals sequential, the hot
# paths allocate nothing in steady state, and an untraced 64-node boot
# stays inside 4 MB.
step go test -run 'TestAggregationOffIdentity|TestEngineDefaultIdentity|TestTopologyFlatIdentity|TestParallelRunnerByteIdentity|TestServeParallelByteIdentity|TestScalingReplay|TestPNodesScaling256Identity|TestLoadArtifactRejects|ZeroAlloc|TestBootAllocBudget' ./internal/bench/
step go test -run '^$' -bench 'BenchmarkStridedRead' -benchtime 1x ./internal/bench/

# Consistency-engine conformance: the default engine's, IVY's and the
# hybrid DSM's litmus batteries twenty times (their reads take no lock,
# and a rare schedule is what such a read gets wrong), and the broken
# engine must be caught.
step go test -race -count=20 -run 'TestLitmusDefaultEngine|TestLitmusIVY|TestLitmusHybridDSM' ./internal/conscheck/
step go test -race -run 'TestLitmusCatchesBrokenEngine' ./internal/conscheck/

# The serve fabric: identical checksums and latency quantiles on every
# substrate and engine; a guided Zipf sample equals a full-table search;
# ingest orders ties as a stable sort; Validate rejects bad floats and
# horizons.
step go test -race -run 'TestServeEngineConformance' ./internal/serve/
step go test -run 'TestIngestOrderMatchesStableSort|TestServeValidateRejects' ./internal/serve/
step go test -run 'TestZipfGuideMatchesSearch|TestHistSaturates|FuzzHistDecode' ./internal/loadgen/

# The decoders by their committed seed corpora: diffs, snapshots and
# protocol payloads round-trip, and arbitrary bytes decode or fail cleanly.
step go test -run 'FuzzApplyDiff' ./internal/swdsm/
step go test -run 'FuzzDecode' ./internal/checkpoint/
step go test -run 'FuzzDec$' ./internal/amsg/

# Lock-free read paths and page ownership under the race detector: a
# notice board drains what per-destination queues would; page buffers go
# back to the one list exactly once; the page table and the window stay
# coherent with spinning readers; the atomic frame helpers match the plain
# codecs and keep a partly written word's neighbours; IVY's and swdsm's
# lock-free reads race peers' handlers; hybriddsm's home frames take every
# access at once with no lock; the clock's single-add contract holds.
step go test -race -run 'TestBoard' ./internal/notices/
step go test -race -run 'TestPooledBufferAliasing|TestConcurrentFrameCreation|TestDropThenFrameIsFresh|TestPagesAscending' ./internal/pagestore/
step go test -race -run 'TestTable|TestWindow|TestAtomic|TestPartialStoresKeepNeighbours|FuzzFrameAccess' ./internal/memsim/
step go test -race -run 'TestHammer|TestOwnUpgradeRefreshesWindow|TestSelfFaultAfterHandlerBootstrap' ./internal/ivy/
step go test -race -run 'TestHomeHammer|TestHomeReadTakesNoFrameLock' ./internal/swdsm/
step go test -race -run 'TestWindowInvalidation|TestHomeFrameHammer|TestHomeFrameTakesNoLock|TestSpansAndUnalignedWordsMatchAModel' ./internal/hybriddsm/
step go test -race -run 'TestAdvanceToCatRacesOtherBucket|TestRestoreRoundTrip|TestClockFillsWholeLines' ./internal/vclock/

# The conservative gate, five times under the race detector: the
# one-pass bound equals the activation Dijkstra, a non-metric lookahead
# is refused and every topology preset accepted, the published table
# never claims more than the exact horizon, the tick delivers progress
# made without a gate event, a filtered receive behind a message it
# skips still delivers, the wake path allocates nothing, a send wakes
# only whom it unblocks, and gated runs match free-running ones,
# on the rack and fattree presets too.
step go test -race -count=5 -run 'TestEngineBoundMatchesDijkstra|TestNewEngineRejectsNonMetricLookahead|TestEnableGateAcceptsEveryPreset|TestPNodesIdentity|TestEngineTableBoundsStayBelowHorizon|TestEngineTickDeliversNonKickingProgress|TestEngineEventWakesTheSmallestActivation|TestEngineFilteredReceiverDelivers|TestEngineWakePathAllocatesNothing|TestGatedSendWakesOnlyWhomItUnblocks|TestGatedRecvTakesTagsOutOfArrivalOrder|TestGatedTokenRing|TestGatedRecvWaitsForHorizon|TestGatedTryRecvPollsHorizon|TestGatedCloseWaivesGate|TestPNodesScaling256Identity' ./internal/vclock/ ./internal/simnet/ ./internal/bench/

# Campaign smoke: the campaigns no test runs whole through the command
# line, the paper's two at the small working sets.
for c in kernels checkpoint aggregation engines; do
    step go run ./cmd/hamsterbench -campaign $c -json /dev/null -parallel 2
done
for c in figures ablations; do
    step go run ./cmd/hamsterbench -campaign $c -size small -json /dev/null -parallel 2
done

# Benchmark smoke test: benchmark/ is a module of its own, so the root
# ./... patterns never reach it (checks every cell against
# benchmark/reference.json).
step go test -C benchmark ./...

step go test -race ./...

if [ -n "$failed" ]; then
    echo "check.sh: failed steps:$failed" >&2
    exit 1
fi
echo "check.sh: every step passed"
