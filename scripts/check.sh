#!/bin/sh
# Full local verification: formatting, build, vet, and the test suite
# under the race detector. This is the gate the bulk-access fast path and
# the perfmon instrumentation must keep green — the block API and the
# per-word loops must stay observably identical (TestBlockWordEquivalence),
# the paper's figure shapes must hold, and every node's virtual-time
# attribution must sum exactly to its clock on all four substrates
# (TestAttributionInvariantAllSubstrates).
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

# Package-docs gate: every internal package must carry a proper
# "// Package <name> ..." doc comment (role, paper reference, and its
# concurrency/virtual-time contract live there).
package_docs() {
    for dir in internal/*/; do
        pkg=$(basename "$dir")
        if ! grep -qr "^// Package $pkg " "$dir"*.go; then
            echo "missing package doc comment for internal/$pkg" >&2
            return 1
        fi
    done
}
step package_docs

# ARCHITECTURE.md gate: the system map must only name internal packages
# that actually exist — a renamed or deleted package must take its
# documentation with it.
architecture_packages() {
    for pkg in $(grep -o 'internal/[a-z0-9]*' ARCHITECTURE.md | sort -u); do
        if [ ! -d "$pkg" ]; then
            echo "ARCHITECTURE.md names nonexistent package $pkg" >&2
            return 1
        fi
    done
}
step architecture_packages

# One synchronization manager: hsync.Manager owns the lock table, the
# single-home-vs-distributed-queue and manager-vs-tree decision, and every
# virtual lock. None of that may leak back into a substrate (swdsm's
# home-migration rendezvous is a VBarrier, listed in the manager's
# Config.Rendezvous so AbortSync poisons it).
one_sync_manager() {
    if grep -rnE 'hsync\.NewDLock|hsync\.NewTree|vclock\.NewVLock\(' \
        --include='*.go' --exclude='*_test.go' \
        internal/smp internal/hybriddsm internal/swdsm internal/ivy internal/multidsm; then
        echo "a substrate builds its own lock or hierarchy: that is hsync.Manager's job" >&2
        return 1
    fi
}
step one_sync_manager

# One read routine and one write routine per substrate: home resolution
# lives in memsim.Space.HomeFor, and hybriddsm's word/span/run bodies do
# not come back beside readRun/writeRun.
one_access_path() {
    if grep -rn 'func (n \*node) homeOf' --include='*.go' \
        internal/smp internal/hybriddsm internal/swdsm internal/ivy internal/multidsm; then
        echo "a substrate resolves homes itself: use memsim.Space.HomeFor" >&2
        return 1
    fi
    if grep -nE 'readWord|writeWord|readSpan|writeSpan|maybeCache' \
        $(ls internal/hybriddsm/*.go | grep -v _test.go); then
        echo "hybriddsm has a second access path: readRun/writeRun are the only ones" >&2
        return 1
    fi
}
step one_access_path
# touchLocal must stay small enough to inline into those routines (it
# cost 4-10 % of the word path each time it stopped).
touchlocal_inlines() {
    inlined=$(go build -gcflags=-m ./internal/swdsm ./internal/hybriddsm ./internal/ivy 2>&1 |
        grep -c 'can inline (\*node).touchLocal' || true)
    if [ "$inlined" -ne 3 ]; then
        echo "touchLocal inlines in $inlined of swdsm, hybriddsm, ivy; want 3" >&2
        return 1
    fi
}
step touchlocal_inlines

# One substrate chassis: platform.Base builds the cost model, address
# space and clocks and implements the seven methods that only read them.
# No substrate writes its own, and none accepts a foreign active-message
# layer (core adopts the engine's own for coalesced messaging).
one_chassis() {
    if grep -nE 'func \([a-z]+ \*[A-Za-z]+\) (Nodes\(\)|Clock\(|Space\(\)|Params\(\)|Compute\()' \
        $(ls internal/smp/*.go internal/hybriddsm/*.go internal/swdsm/*.go \
            internal/ivy/*.go internal/multidsm/*.go | grep -v _test.go); then
        echo "a substrate re-implements a chassis method: embed platform.Base" >&2
        return 1
    fi
    if grep -nE '^[[:space:]]+Layer[[:space:]]+\*amsg\.Layer' \
        internal/smp/*.go internal/hybriddsm/*.go internal/swdsm/*.go internal/ivy/*.go internal/multidsm/*.go; then
        echo "a substrate Config takes an active-message layer: each engine builds its own" >&2
        return 1
    fi
}
step one_chassis

# Line budgets: the five substrates plus hsync, and those six plus the
# platform package that holds their chassis — non-test files, non-blank
# non-comment lines. 3,874 before the synchronization paths, the page
# cache entry and the block accessors were each written once, 3,310 before
# each substrate's accessors were folded into one routine per direction,
# 3,029 (3,163 with platform) before the chassis; growth past either
# budget means a duplicate came back.
code_lines() {
    cat $(ls "$@" | grep -v _test.go) | sed 's/^[[:space:]]*//' | grep -v -e '^$' -e '^//' | wc -l
}
substrate_budget() {
    six=$(code_lines internal/swdsm/*.go internal/ivy/*.go internal/hybriddsm/*.go \
        internal/multidsm/*.go internal/hsync/*.go internal/smp/*.go)
    seven=$((six + $(code_lines internal/platform/*.go)))
    echo "substrate+hsync+platform code lines: $seven (budget 3030); substrate+hsync: $six (budget 2900)"
    if [ "$seven" -gt 3030 ] || [ "$six" -gt 2900 ]; then
        echo "line budget exceeded" >&2
        return 1
    fi
}
step substrate_budget

# One campaign harness: internal/bench plus the hamsterbench command,
# non-test files, counted the same way. 2,051 when
# every campaign had its own runner, row type, schema, render and engine
# builder, 1,346 while the paper's figures and ablations still ran on a
# second harness beside the campaigns; growth past the budget means one
# of them came back.
harness_budget() {
    budget=1148
    lines=$(cat $(ls internal/bench/*.go | grep -v _test.go) cmd/hamsterbench/main.go |
        sed 's/^[[:space:]]*//' | grep -v -e '^$' -e '^//' | wc -l)
    echo "campaign harness code lines: $lines (budget $budget)"
    if [ "$lines" -gt "$budget" ]; then
        echo "line budget exceeded" >&2
        return 1
    fi
}
step harness_budget
# ... with no cluster builder of its own (bench.Cluster.build is
# core.NewSubstrate; the ablation legs whose knob is no Config field name
# a constructor in substrates.go) and one standard kernel table.
one_cluster_builder() {
    if grep -lE '(swdsm|ivy|hybriddsm|multidsm|smp)\.New\(' $(ls internal/bench/*.go | grep -v _test.go) |
        grep -v -x -e internal/bench/substrates.go; then
        echo "a second engine builder in internal/bench: use bench.Cluster" >&2
        return 1
    fi
    standard=$(grep -rlF 'SOR(m, 192, 6, true)' --include='*.go' . | wc -l)
    if [ "$standard" -ne 1 ]; then
        echo "the standard kernel set is written in $standard .go files, want 1: use bench.standardKernels" >&2
        return 1
    fi
}
step one_cluster_builder

# One cluster description: core.Config is validated by Config.Validate
# and built by core.NewSubstrate and by nothing else. hamsterrun names
# engines and topologies only in flag usage strings (Validate checks
# them), platform names are parsed by platform.ParseKind alone, and the
# four files a second vocabulary would grow in are on a budget: 1,449
# lines when the cluster file, bench.Cluster and hamsterrun each had
# their own name tables, selection and rejections.
one_cluster_description() {
    if grep -nE 'EngineNames\(\)|TopologyNames\(\)' cmd/hamsterrun/main.go | grep -v 'fs\.StringVar('; then
        echo "hamsterrun checks engine or topology names itself: that is Config.Validate's job" >&2
        return 1
    fi
    parsers=$(grep -rlF '"hybrid-dsm"' --include='*.go' --exclude='*_test.go' . | tr '\n' ' ')
    if [ "$parsers" != "./internal/platform/platform.go " ]; then
        echo "platform names are parsed in: $parsers; want internal/platform/platform.go (ParseKind) alone" >&2
        return 1
    fi
    budget=1200
    lines=$(cat cmd/hamsterrun/main.go internal/cluster/cluster.go internal/core/runtime.go internal/bench/campaign.go |
        sed 's/^[[:space:]]*//' | grep -v -e '^$' -e '^//' | wc -l)
    echo "cluster description code lines: $lines (budget $budget)"
    if [ "$lines" -gt "$budget" ]; then
        echo "line budget exceeded" >&2
        return 1
    fi
}
step one_cluster_description
# One spawn site per runtime: Task Management numbers, places and starts
# every thread, and Cluster Control owns the reductions and broadcasts, so
# no model starts a goroutine, makes a channel or broadcasts by hand, and
# core starts every node and task goroutine in one go statement
# (Runtime.goNode). Before, three thread models each kept thread ids,
# round-robin placement and a goroutine for the initial thread, and three
# collective models each wrote reduce and broadcast with their own float
# codec. The models' golden pins what those calls observably do.
one_spawn_site() {
    models_go=$(ls models/*/*.go | grep -v _test.go)
    if grep -nE '(^|[^[:alnum:]_.])go (func|[[:alnum:]_.]+\()' $models_go; then
        echo "a model starts a goroutine: spawn through Task Management (Env.Task)" >&2
        return 1
    fi
    if grep -nF 'make(chan' $models_go; then
        echo "a model makes a channel: threads and joins are Task Management's" >&2
        return 1
    fi
    if grep -nF 'Cluster.Broadcast(' $models_go; then
        echo "a model broadcasts by hand: use Cluster.ReduceF64 / Cluster.BcastF64" >&2
        return 1
    fi
    spawns=$(cat $(ls internal/core/*.go | grep -v _test.go) |
        grep -cE '(^|[^[:alnum:]_.])go (func|[[:alnum:]_.]+\()' || true)
    if [ "$spawns" -ne 1 ]; then
        echo "internal/core has $spawns go statements, want 1 (Runtime.goNode)" >&2
        return 1
    fi
}
step one_spawn_site
step go test -race -count=5 -run 'TestModelScriptIdentity' .

# Every Config field, flag and file key has a committed measurement behind
# it, and every feature x engine cell works or is rejected by Validate
# with a reason.
step go test -run 'TestSurfaceEvidence' ./internal/bench/ ./internal/cluster/ ./cmd/hamsterrun/ ./cmd/hamsterbench/
step go test -race -run 'TestConfigMatrix' ./internal/core/
# Every exported name in internal/ has a caller outside its package (the
# commands, models, examples, root package, other internal packages or
# the benchmark/ module), satisfies an interface somebody calls, or is
# allowlisted with a reason; so does every exported field of a struct
# named Config, Options or Aggregation, with "written" for "called". The
# fixture run proves the checker convicts a test-only name and a
# test-only field. 936 exported declarations when the gate was written,
# before it counted fields.
dead_exports() {
    exports=$(go test -count=1 -v -run '^TestNoDeadExports' .) || { echo "$exports" >&2; return 1; }
    echo "dead-export gate: $(echo "$exports" | grep -o 'exported [0-9]*, allowlisted [0-9]*')"
}
step dead_exports

# The attribution invariant is the load-bearing contract of the perfmon
# subsystem; run it by name under the race detector so a failure is
# unmistakable before the full suite starts.
step go test -race -run 'TestAttributionInvariantAllSubstrates' ./internal/perfmon/

# The synchronization manager's two contracts, by name before the full
# suite: what every substrate's locks and barriers charge, count and
# record is pinned against goldens from before the consolidation (five
# times: the script must be schedule-independent), and a node that panics
# never leaves a peer blocked in a barrier or on a lock, on any substrate.
step go test -race -count=5 -run 'TestSyncScriptIdentity' ./internal/bench/
# The data paths' counterpart: what every substrate's ten accessors
# charge, count, record and return, against goldens from before they were
# folded into one routine per direction.
step go test -race -count=5 -run 'TestAccessScriptIdentity' ./internal/bench/
step go test -race -run 'TestNodePanicUnblocksPeers' ./internal/core/
step go test -race -run 'TestManager|TestAbortWakesWaiters' ./internal/hsync/

# The crash-recovery acceptance run is the checkpoint subsystem's
# load-bearing contract (bit-identical checksums across crash, rollback,
# and replay); run it by name under the race detector before the full
# suite for the same unmistakable-failure property.
step go test -race -run 'TestCrashRecoveryKernels' ./internal/bench/

# Bench-identity gates, by name and plain (no -race: the pinned numbers
# are what ships in BENCH_3/4/6/7/8.json, and identity is about virtual
# time): committed artifacts replay, cell-parallel equals sequential.
step go test -run 'TestAggregationOffIdentity|TestEngineDefaultIdentity|TestTopologyFlatIdentity|TestParallelRunnerByteIdentity|TestServeParallelByteIdentity|TestScalingReplay|TestPNodesScaling256Identity|TestLoadArtifactRejects' ./internal/bench/
# Aggregation on must never move a checksum on any substrate.
step go test -race -run 'TestAggregationEquivalence' ./internal/bench/

# Hierarchical-synchronization gate: at 64 nodes the substrates switch
# to tree barriers and distributed lock queues; kernels must keep the
# scope/flat reference checksum on every engine and topology, including
# under a seeded lossy-wire fault campaign — run under the race detector
# because the lock queues' hint chains are touched from every node
# goroutine.
step go test -race -run 'TestHierSyncKernels64|TestHierSyncFaults64' ./internal/bench/
step go test -race -run 'TestDLockMutualExclusion64' ./internal/hsync/

# Consistency-engine conformance gate: the default engine must pass the
# whole litmus battery under the race detector (the other engines and the
# broken-engine negative control run in the same package's full suite).
step go test -race -run 'TestLitmusDefaultEngine|TestLitmusCatchesBrokenEngine' ./internal/conscheck/

# Serve-conformance gate: the server workloads (sharded KV, pipeline,
# sync log) must produce the identical checksum AND identical latency
# quantiles on every substrate and every consistency engine — the serve
# fabric's portability contract. Run under the race detector because the
# SPSC rings and shard latches are touched from every node goroutine.
step go test -race -run 'TestServeEngineConformance' ./internal/serve/
# The serve fabric pays no host time the model never charges: one Zipf
# table per run (built in serve.Kernel), sampled through its guide table,
# and a generic sort on the ingest queue's total order. The guided sample
# must equal a full-table search, the comparator must order ties as a
# stable sort does, Validate must reject non-finite floats, and the
# histogram decoder's seed corpus must replay without a panic.
step go test -run 'TestZipfGuideMatchesSearch|TestHistSaturates|FuzzHistDecode' ./internal/loadgen/
step go test -run 'TestIngestOrderMatchesStableSort|TestServeValidateRejects' ./internal/serve/
# The two decoders of page contents, by their committed seed corpora: a
# diff never changes a byte outside its runs and BuildDiff/ApplyDiff
# round-trip a page; a snapshot the decoder accepts re-encodes to an
# equal one. The protocol payload decoder under both: an Enc/Dec round
# trip returns its values, and arbitrary bytes decode or panic with a
# bounds error without allocating more than they are.
step go test -run 'FuzzApplyDiff' ./internal/swdsm/
step go test -run 'FuzzDecode' ./internal/checkpoint/
step go test -run 'FuzzDec$' ./internal/amsg/
serve_host_time() {
    if grep -rn 'sort\.Slice' --include='*.go' --exclude='*_test.go' internal/serve; then
        echo "internal/serve sorts with reflection: use slices.SortFunc" >&2
        return 1
    fi
    zipfs=$(grep -rF 'loadgen.NewZipf(' --include='*.go' --exclude='*_test.go' internal/serve | wc -l)
    if [ "$zipfs" -ne 1 ]; then
        echo "internal/serve builds $zipfs Zipf tables, want 1 (serve.Kernel, once per run)" >&2
        return 1
    fi
}
step serve_host_time

# Parallel-node identity gate: Config.ParallelNodes swaps the reference
# scheduler for the conservative lookahead engine, and nothing modeled
# may move. TestPNodesIdentity pins checksums, clocks, traffic, and
# perfmon event streams at 2/8/64 nodes; the determinism-stress pair
# replays a seeded 5%-drop campaign and a mid-traffic crash/recovery
# byte-identically. Run under the race detector because the gate is
# exactly the machinery that lets node goroutines run concurrently.
step go test -race -run 'TestPNodesIdentity|TestPNodesFaultDeterminism|TestPNodesCrashRecoveryDeterminism' ./internal/bench/

# Allocation gates: the pooled hot paths must not allocate in steady
# state (page fetch and message send at exactly 0 allocs/op; diff flush
# with zero marginal cost per page; the word accessors of every substrate
# at 0 — TestWordAccessZeroAlloc). Plain mode only — the race runtime
# inserts its own allocations and would drown the signal.
step go test -run 'ZeroAlloc' ./internal/bench/
# A disabled recorder costs no memory: New allocates ring headers only,
# Enable allocates the rings once (and races safely with Record), and a
# 64-node boot stays inside 4 MB (170 MB when every node had a ring).
step go test -race -run 'TestNewAllocatesNoRings|TestReenableKeepsEventsWithoutAllocating|TestEnableRacesRecord' ./internal/perfmon/
step go test -run 'TestBootAllocBudget' ./internal/bench/
rings_in_enable() {
    ringmakers=$(awk '/^func /{fn=$0} /make\(\[\]Event/ && fn !~ /\) Enable\(\)/' internal/perfmon/perfmon.go)
    if [ -n "$ringmakers" ]; then
        echo "perfmon allocates an event ring outside Enable: $ringmakers" >&2
        return 1
    fi
}
step rings_in_enable
# One notice union per barrier epoch, collected into the caller's buffer
# by the one collect function.
one_notice_collect() {
    collects=$(grep -c 'func (e \*EpochExchange) Collect' internal/notices/notices.go || true)
    if grep -rn 'CollectOthersInto' --include='*.go' . || [ "$collects" -ne 1 ]; then
        echo "a second EpochExchange collect function: CollectOthers(epoch, node, dst) is the one" >&2
        return 1
    fi
}
step one_notice_collect

# One page allocator: every page buffer a substrate holds comes from
# pagestore's free list and goes back to it, including at Close (the page
# images a checkpoint snapshot keeps are its own allocations, copied with
# append, and not matched here). A sync.Pool is emptied by
# the garbage collector every second cycle, and a pass runs a dozen, so
# page buffers were 84 % of the bytes sync-scale allocated while they sat
# in one. No non-test Go of this module outside internal/pagestore makes a
# page buffer itself, and no sync.Pool holds page-sized arrays (the
# benchmark/ module is a separate module and not scanned).
one_page_allocator() {
    if grep -rnE 'make\(\[\]byte, memsim\.PageSize|new\(\[memsim\.PageSize\]byte\)' \
        --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark --exclude-dir=pagestore .; then
        echo "a page buffer made outside the page list: use pagestore.GetPage / GetZeroedPage" >&2
        return 1
    fi
    if grep -rn -A3 --include='*.go' 'sync\.Pool{' . | grep -E 'PageSize\]byte'; then
        echo "a sync.Pool holds page-sized arrays: the GC empties it; use the page list" >&2
        return 1
    fi
}
step one_page_allocator
# The recycling tests, by name under the race detector (also part of the
# full suite below; named here so a recycling regression is
# unmistakable): the ownership chain survives swdsm's
# fetch/evict/invalidate/flush churn and ivy's ownership churn under
# lock-free readers, a runtime reads zeros where a closed one left its
# stamps, Close hands every buffer back exactly once, and Close refuses a
# runtime with a task still running.
step go test -race -run 'TestPooledBufferAliasing' ./internal/pagestore/
step go test -race -run 'TestCloseNeedsQuiescence' ./internal/core/

# The page table under every frame and home lookup reads with atomic
# loads only; its creation, drop and top-level-growth paths must stay
# coherent with spinning readers under the race detector.
step go test -race -run 'TestTable' ./internal/memsim/
step go test -race -run 'TestConcurrentFrameCreation|TestDropThenFrameIsFresh|TestPagesAscending' ./internal/pagestore/

# IVY reads take no lock (a per-node window of page buffers behind an
# atomic revoke epoch), and its fault path once livelocked when a remote
# request bootstrapped the home's page mid-fault: both are rare-schedule
# failures one run misses, so the litmus battery runs 20 times and the
# two-page hammers, the window's own tests and the clock's single-add
# contract run by name before the full suite.
step go test -race -count=20 -run 'TestLitmusIVY' ./internal/conscheck/
step go test -race -run 'TestHammer|TestOwnUpgradeRefreshesWindow|TestSelfFaultAfterHandlerBootstrap' ./internal/ivy/
# hybriddsm resolves pages through the same window: every event that
# drops a cached copy or ends an interval must drop the node's slots.
step go test -race -run 'TestWindowInvalidation' ./internal/hybriddsm/
step go test -race -run 'TestWindow' ./internal/memsim/
step go test -race -run 'TestAdvanceToCatRacesOtherBucket|TestRestoreRoundTrip|TestClockFillsWholeLines' ./internal/vclock/
# Compile-and-run smoke of the strided-read benchmark (one iteration).
step go test -run '^$' -bench 'BenchmarkStridedRead' -benchtime 1x ./internal/bench/

# Campaign smoke: the six campaigns no test runs whole through the
# command line (seconds; scaling and serve are run by their tests), the
# paper's two at the small working sets.
for c in kernels checkpoint aggregation engines; do
    step go run ./cmd/hamsterbench -campaign $c -json /dev/null -parallel 2
done
for c in figures ablations; do
    step go run ./cmd/hamsterbench -campaign $c -size small -json /dev/null -parallel 2
done

# Benchmark smoke test: benchmark/ is a module of its own, so the root
# ./... patterns never reach it (≈4 s at smoke sizes; checks every cell
# against benchmark/reference.json).
step go test -C benchmark ./...

step go test -race ./...

if [ -n "$failed" ]; then
    echo "check.sh: failed steps:$failed" >&2
    exit 1
fi
echo "check.sh: every step passed"
