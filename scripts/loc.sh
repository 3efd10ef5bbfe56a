#!/usr/bin/env bash
# Production Go lines per package: every .go file except tests, perfbench/
# and scripts/, counted with wc -l and grouped by directory, then the total.
# Run from the repository root:
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' \
	! -path './perfbench/*' ! -path './scripts/*' ! -path './.git/*' -print0 |
	xargs -0 wc -l | grep -v ' total$' |
	awk '{ d = $2; sub(/\/[^\/]*$/, "", d); sub(/^\.\/?/, "", d); if (d == "") d = "."
	       n[d] += $1; t += $1 }
	     END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2")
	           printf "%6d  total\n", t }'
