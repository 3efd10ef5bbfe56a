#!/usr/bin/env bash
# Paired bench gate. Builds the root package's test binary from the working
# tree and from BASE_REF, runs their whole-simulation throughput benchmarks
# alternately on this host (5 pairs, benchcheck's minimum, alternating
# which side runs first), runs the layer benchmarks on the working tree, and hands both
# sides to benchcheck: ops/s is gated by the median per-pair ratio, allocs/op
# against BENCH_baseline.json. Run from the repository root:
#   bash scripts/benchpair.sh BASE_REF
set -euo pipefail
base_ref=$1
pairs=5
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base_ref" | tar -x -C "$work/base"
go test -c -o "$work/head.test" .
(cd "$work/base" && go test -c -o "$work/base.test" .)
run() { # run SIDE DIR: one throughput run of SIDE's binary in its package dir
	(cd "$2" && "$work/$1.test" -test.run '^$' -test.bench BenchmarkSimulatorThroughput \
		-test.benchtime 1x -test.benchmem -test.timeout 10m) | tee -a "$work/$1.txt"
}
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run base "$work/base"
		run head .
	else
		run head .
		run base "$work/base"
	fi
done
go test -run '^$' -bench . -benchmem ./internal/mem ./internal/sim ./internal/machine \
	./internal/interconnect ./internal/secure ./internal/campaign ./internal/store ./internal/crypto ./internal/workload \
	./internal/otp ./internal/core ./internal/migration | tee -a "$work/head.txt"
go run ./scripts/benchcheck -in "$work/head.txt" -base "$work/base.txt" -ops-tolerance 0.20
