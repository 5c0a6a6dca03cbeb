#!/usr/bin/env bash
# bench.sh — verification + benchmark run with a regression gate.
#
# Runs go vet and the race-enabled test suite, then the core benchmark
# set, writing results to benchmarks/latest.txt. When a committed
# baseline exists (benchmarks/baseline.txt), every benchmark present in
# both files is compared on ns/op and the script fails if any regresses
# by more than BENCH_MAX_REGRESSION_PCT percent (default 5).
#
# Environment:
#   BENCH_PATTERN             benchmarks to run (go test -bench regexp;
#                             default: the committed-baseline set)
#   BENCH_TIME                -benchtime value (default 1s)
#   BENCH_MAX_REGRESSION_PCT  allowed ns/op regression in percent
#                             (default 5; CI uses a loose 40 because
#                             hosted runners are noisy)
#   BENCH_MAX_ALLOC_REGRESSION  allowed B/op and allocs/op regression in
#                             percent (default 5). Unlike ns/op this
#                             gate is exact for zero baselines: a
#                             benchmark whose baseline reads 0 allocs/op
#                             (the steady-state decision path) fails on
#                             ANY allocation, which is the
#                             zero-allocation contract's enforcement
#                             point. Tiny B/op deltas (< 64 B) are
#                             ignored as runtime noise. The custom
#                             projections/decision, steps/decision and
#                             bounds/decision columns (the steady core
#                             rows; projections and bounds summed over
#                             the shards on the steady cluster rows,
#                             which the carried ceiling moves;
#                             projections on the batch rows, which also
#                             report, ungated, the predictions the HTM's
#                             memo served as reused/decision) are
#                             gated at the same percentage
#                             where both files report them: they are
#                             counts of the HTM's work (candidates
#                             projected, traces the clock stepped, busy
#                             traces the pruned pass visited) that
#                             repeat from run to run, so they stay a
#                             tight gate on hosted runners where ns/op
#                             is loose. refreshes/decision (the
#                             baseline projections a decision runs, about
#                             0 on the steady rows: the commit installs
#                             the winner's projection; about 0.5 on the
#                             batch rows, whose busy winners the memo
#                             served have none to install) is gated the same
#                             way above an absolute floor of 0.01, one
#                             refresh per hundred decisions, since a row
#                             that reads about 0 reads a stray refresh of
#                             a trace's first projection as a large
#                             relative change.
#   BENCH_REQUIRE_ALL=1       fail when a baseline benchmark is absent
#                             from the run (CI full runs; subset runs
#                             via BENCH_PATTERN only warn)
#   BENCH_SKIP_CHECKS=1       skip gofmt + vet + race tests (bench only)
#   BENCH_OUT                 benchmark output file (default
#                             benchmarks/latest.txt)
#
# The gate comparison is also written to benchmarks/gate-diff.txt so a
# failing CI run can upload both files as an artifact and hosted-runner
# noise can be triaged without re-running.
#
# Promote a reviewed latest.txt with scripts/bench-update.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

PATTERN="${BENCH_PATTERN:-BenchmarkEvaluateAllLargeTestbed|BenchmarkHTMEvaluate|BenchmarkGridRun200|BenchmarkSchedulerDecisions|BenchmarkAgentSubmit|BenchmarkClusterSubmit|BenchmarkAssignSolve|BenchmarkFedSubmit}"
BENCH_TIME="${BENCH_TIME:-1s}"
MAX_PCT="${BENCH_MAX_REGRESSION_PCT:-5}"
MAX_ALLOC_PCT="${BENCH_MAX_ALLOC_REGRESSION:-5}"

if [[ "${BENCH_SKIP_CHECKS:-0}" != "1" ]]; then
    echo "==> gofmt -l"
    unformatted="$(gofmt -l .)"
    if [[ -n "${unformatted}" ]]; then
        echo "error: gofmt needed on:" >&2
        echo "${unformatted}" >&2
        exit 1
    fi
    echo "==> go vet ./..."
    go vet ./...
    echo "==> go test -race ./..."
    go test -race ./...
fi

OUT="${BENCH_OUT:-benchmarks/latest.txt}"
mkdir -p benchmarks
echo "==> go test -bench '${PATTERN}' -benchtime ${BENCH_TIME}"
go test -run '^$' -bench "${PATTERN}" -benchmem -benchtime "${BENCH_TIME}" . | tee "${OUT}"

if [[ ! -f benchmarks/baseline.txt ]]; then
    echo "==> no benchmarks/baseline.txt: skipping regression gate" \
         "(run scripts/bench-update.sh to create one)"
    exit 0
fi

echo "==> comparing against benchmarks/baseline.txt" \
     "(max regression ${MAX_PCT}% ns/op, ${MAX_ALLOC_PCT}% B/op+allocs/op+projections/decision+steps/decision+bounds/decision+refreshes/decision)"
awk -v max="${MAX_PCT}" -v maxAlloc="${MAX_ALLOC_PCT}" \
    -v requireAll="${BENCH_REQUIRE_ALL:-0}" '
    # Collect "BenchmarkName  N  T ns/op [B B/op] [A allocs/op]" lines
    # from both files. The GOMAXPROCS suffix (-8 etc.) varies across
    # machines; strip it so a baseline taken elsewhere still matches.
    FNR == 1 { file++ }
    /^Benchmark/ && / ns\/op/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""; proj = ""; steps = ""; bounds = ""; refresh = ""
        for (i = 2; i <= NF; i++) {
            if ($(i) == "ns/op")     ns = $(i-1)
            if ($(i) == "B/op")      bytes = $(i-1)
            if ($(i) == "allocs/op") allocs = $(i-1)
            if ($(i) == "projections/decision") proj = $(i-1)
            if ($(i) == "steps/decision") steps = $(i-1)
            if ($(i) == "bounds/decision") bounds = $(i-1)
            if ($(i) == "refreshes/decision") refresh = $(i-1)
        }
        if (file == 1) { base[name] = ns; baseB[name] = bytes; baseA[name] = allocs; baseP[name] = proj; baseS[name] = steps; baseK[name] = bounds; baseR[name] = refresh }
        else           { latest[name] = ns; latestB[name] = bytes; latestA[name] = allocs; latestP[name] = proj; latestS[name] = steps; latestK[name] = bounds; latestR[name] = refresh }
    }
    # worse(old, new, pct, floor) -> 1 when new regresses past the
    # allowance. A zero baseline admits no headroom at all: any growth
    # beyond the absolute noise floor fails.
    function worse(old, new, pct, floor) {
        if (new - old <= floor) return 0
        if (old == 0) return new > 0
        return (new - old) / old * 100 > pct
    }
    END {
        status = 0
        matched = 0
        for (name in latest) {
            if (!(name in base)) {
                printf "NEW      %-60s %12.0f ns/op\n", name, latest[name]
                continue
            }
            matched++
            pct = (latest[name] - base[name]) / base[name] * 100
            tag = "ok"
            if (pct > max) { tag = "REGRESSED"; status = 1 }
            if (baseA[name] != "" && latestA[name] != "" && \
                worse(baseA[name], latestA[name], maxAlloc, 0)) {
                tag = "ALLOCS"; status = 1
                printf "ALLOCS   %-60s %12d -> %12d allocs/op\n", \
                       name, baseA[name], latestA[name]
            }
            if (baseB[name] != "" && latestB[name] != "" && \
                worse(baseB[name], latestB[name], maxAlloc, 64)) {
                tag = "BYTES"; status = 1
                printf "BYTES    %-60s %12d -> %12d B/op\n", \
                       name, baseB[name], latestB[name]
            }
            counts = ""
            if (baseP[name] != "" && latestP[name] != "") {
                counts = sprintf("  %s -> %s projections/decision", baseP[name], latestP[name])
                if (worse(baseP[name], latestP[name], maxAlloc, 0)) { tag = "PROJECT"; status = 1 }
            }
            if (baseS[name] != "" && latestS[name] != "") {
                counts = counts sprintf("  %s -> %s steps/decision", baseS[name], latestS[name])
                if (worse(baseS[name], latestS[name], maxAlloc, 0)) { tag = "STEP"; status = 1 }
            }
            if (baseK[name] != "" && latestK[name] != "") {
                counts = counts sprintf("  %s -> %s bounds/decision", baseK[name], latestK[name])
                if (worse(baseK[name], latestK[name], maxAlloc, 0)) { tag = "BOUND"; status = 1 }
            }
            if (baseR[name] != "" && latestR[name] != "") {
                counts = counts sprintf("  %s -> %s refreshes/decision", baseR[name], latestR[name])
                if (worse(baseR[name], latestR[name], maxAlloc, 0.01)) { tag = "REFRESH"; status = 1 }
            }
            printf "%-8s %-60s %12.0f -> %12.0f ns/op (%+.1f%%)%s\n", \
                   tag, name, base[name], latest[name], pct, counts
        }
        for (name in base) {
            if (!(name in latest)) {
                printf "MISSING  %-60s (in baseline, not in this run)\n", name
                if (requireAll) status = 1
            }
        }
        if (matched == 0) {
            print "error: no benchmark in the run matches the baseline; gate cannot compare" > "/dev/stderr"
            status = 1
        }
        exit status
    }
' benchmarks/baseline.txt "${OUT}" | tee benchmarks/gate-diff.txt
echo "==> benchmark gate passed"
