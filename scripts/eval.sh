#!/usr/bin/env bash
# Regenerates every table EXPERIMENTS.md quotes. It builds secbench from
# this checkout and writes full_eval.txt and extra_ablations.txt into the
# output directory (default results/). Simulations are deterministic, so
# the files differ between runs only in the "(<exp> in N.Ns)" timing line
# after each table; strip those lines before comparing:
#   bash scripts/eval.sh /tmp/eval
#   for f in results/*.txt; do
#   	diff <(sed -E '/^\(.* in [0-9.]+s\)$/d' "$f") \
#   	     <(sed -E '/^\(.* in [0-9.]+s\)$/d' "/tmp/eval/$(basename "$f")")
#   done
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-results}
mkdir -p "$out"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/secbench" ./cmd/secbench
sb() { "$tmp/secbench" -quiet "$@"; }

{
	echo "== Core figures, 4 GPUs, scale 0.5 =="
	sb -exp table1,table4,fig13,fig14,fig15,fig16,fig9,fig10,fig11,fig12,fig21,fig22,fig23,fig8,fig26 -scale 0.5
	echo "== Scaling figures =="
	sb -exp fig24 -scale 0.4
	sb -exp fig25 -scale 0.25
	echo "== Ablations (subset, scale 0.3) =="
	sb -exp ablation-decompose,ablation-batch-size -scale 0.3 -workloads mm,syr2k,mt,pr,aes,km
	sb -exp ablation-timeout -scale 0.3 -workloads mm,syr2k,aes
	sb -exp ablation-alpha-beta -scale 0.3 -workloads mm,syr2k,pr
	sb -exp ablation-oracle -scale 0.3 -workloads mm,syr2k,mt,pr,aes,km
	echo "== Robustness (scale 0.1) =="
	sb -exp resilience,degradation -scale 0.1 -workloads mm,syr2k,pr
} >"$out/full_eval.txt"

sb -exp ablation-tlb,ablation-topology,ablation-cu-frontend -scale 0.25 -workloads mm,syr2k,mt,pr,aes,km >"$out/extra_ablations.txt"
