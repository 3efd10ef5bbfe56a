package workload

import (
	"errors"
	"fmt"
	"sort"
)

// Registry returns the 17 evaluated benchmarks of Table IV, keyed by the
// paper's abbreviations. Parameters encode each workload's published
// communication character: RPKI class sets the inter-burst compute gap,
// suite-specific access patterns set burst size, destination locality,
// write mix, CPU involvement, and page reuse (migration affinity).
func Registry() []Spec {
	specs := []Spec{
		// ---- High RPKI (> 1000): interconnect-bound workloads. ----
		{
			Name: "matrixtranspose", Abbr: "mt", Suite: "AMD APP SDK", Class: HighRPKI,
			OpsPerGPU: 40000, BurstMin: 16, BurstMax: 32, IntraGapMax: 1,
			InterGapMin: 18, InterGapMax: 60, WriteFrac: 0.35, CPUWeight: 0.25,
			Phases: 6, HotDests: 1, Concentration: 0.85, PageReuse: 0.10, PagePool: 4096,
		},
		{
			Name: "relu", Abbr: "relu", Suite: "DNNMark", Class: HighRPKI,
			OpsPerGPU: 40000, BurstMin: 16, BurstMax: 32, IntraGapMax: 1,
			InterGapMin: 20, InterGapMax: 65, WriteFrac: 0.15, CPUWeight: 0.3,
			Phases: 3, HotDests: 1, Concentration: 0.85, PageReuse: 0.15, PagePool: 4096,
		},
		{
			Name: "pagerank", Abbr: "pr", Suite: "Hetero-Mark", Class: HighRPKI,
			OpsPerGPU: 40000, BurstMin: 6, BurstMax: 16, IntraGapMax: 2,
			InterGapMin: 15, InterGapMax: 60, WriteFrac: 0.20, CPUWeight: 0.5,
			Phases: 10, HotDests: 3, Concentration: 0.45, PageReuse: 0.05, PagePool: 8192,
		},
		{
			Name: "syr2k", Abbr: "syr2k", Suite: "Polybench", Class: HighRPKI,
			OpsPerGPU: 40000, BurstMin: 16, BurstMax: 32, IntraGapMax: 1,
			InterGapMin: 22, InterGapMax: 75, WriteFrac: 0.25, CPUWeight: 0.3,
			Phases: 8, HotDests: 1, Concentration: 0.85, PageReuse: 0.12, PagePool: 4096,
		},
		{
			Name: "spmv", Abbr: "spmv", Suite: "SHOC", Class: HighRPKI,
			OpsPerGPU: 40000, BurstMin: 4, BurstMax: 12, IntraGapMax: 2,
			InterGapMin: 14, InterGapMax: 55, WriteFrac: 0.10, CPUWeight: 0.6,
			Phases: 12, HotDests: 2, Concentration: 0.40, PageReuse: 0.04, PagePool: 8192,
		},

		// ---- Medium RPKI (100-1000): mixed compute/communication. ----
		{
			Name: "simpleconvolution", Abbr: "sc", Suite: "AMD APP SDK", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 3,
			InterGapMin: 40, InterGapMax: 140, WriteFrac: 0.25, CPUWeight: 0.4,
			Phases: 4, HotDests: 2, Concentration: 0.85, PageReuse: 0.20, PagePool: 2048,
		},
		{
			Name: "matrixmultiplication", Abbr: "mm", Suite: "AMD APP SDK", Class: MediumRPKI,
			OpsPerGPU: 28000, BurstMin: 16, BurstMax: 32, IntraGapMax: 3,
			InterGapMin: 40, InterGapMax: 140, WriteFrac: 0.15, CPUWeight: 0.6,
			Phases: 8, HotDests: 1, Concentration: 0.85, PageReuse: 0.30, PagePool: 2048,
		},
		{
			Name: "atax", Abbr: "atax", Suite: "Polybench", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 4,
			InterGapMin: 25, InterGapMax: 90, WriteFrac: 0.15, CPUWeight: 1.0,
			Phases: 4, HotDests: 2, Concentration: 0.70, PageReuse: 0.25, PagePool: 2048,
		},
		{
			Name: "bicg", Abbr: "bicg", Suite: "Polybench", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 4,
			InterGapMin: 25, InterGapMax: 90, WriteFrac: 0.20, CPUWeight: 1.0,
			Phases: 4, HotDests: 2, Concentration: 0.70, PageReuse: 0.25, PagePool: 2048,
		},
		{
			Name: "gesummv", Abbr: "ges", Suite: "Polybench", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 4,
			InterGapMin: 30, InterGapMax: 100, WriteFrac: 0.10, CPUWeight: 1.2,
			Phases: 3, HotDests: 2, Concentration: 0.65, PageReuse: 0.20, PagePool: 2048,
		},
		{
			Name: "mvt", Abbr: "mvt", Suite: "Polybench", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 4,
			InterGapMin: 28, InterGapMax: 95, WriteFrac: 0.15, CPUWeight: 1.0,
			Phases: 4, HotDests: 2, Concentration: 0.70, PageReuse: 0.22, PagePool: 2048,
		},
		{
			Name: "stencil2d", Abbr: "st", Suite: "SHOC", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 16, BurstMax: 32, IntraGapMax: 3,
			InterGapMin: 25, InterGapMax: 90, WriteFrac: 0.30, CPUWeight: 0.2,
			Phases: 2, HotDests: 2, Concentration: 0.90, PageReuse: 0.35, PagePool: 1024,
		},
		{
			Name: "fft", Abbr: "fft", Suite: "SHOC", Class: MediumRPKI,
			OpsPerGPU: 26000, BurstMin: 16, BurstMax: 32, IntraGapMax: 2,
			InterGapMin: 30, InterGapMax: 110, WriteFrac: 0.40, CPUWeight: 0.3,
			Phases: 10, HotDests: 1, Concentration: 0.90, PageReuse: 0.15, PagePool: 2048,
		},
		{
			Name: "kmeans", Abbr: "km", Suite: "Hetero-Mark", Class: MediumRPKI,
			OpsPerGPU: 24000, BurstMin: 12, BurstMax: 24, IntraGapMax: 4,
			InterGapMin: 35, InterGapMax: 110, WriteFrac: 0.35, CPUWeight: 1.5,
			Phases: 5, HotDests: 1, Concentration: 0.75, PageReuse: 0.30, PagePool: 1024,
		},

		// ---- Low RPKI (< 100): compute-bound or bulk-transfer bound. ----
		{
			Name: "floydwarshall", Abbr: "floyd", Suite: "AMD APP SDK", Class: LowRPKI,
			OpsPerGPU: 9000, BurstMin: 4, BurstMax: 10, IntraGapMax: 8,
			InterGapMin: 150, InterGapMax: 450, WriteFrac: 0.20, CPUWeight: 0.5,
			Phases: 4, HotDests: 2, Concentration: 0.70, PageReuse: 0.25, PagePool: 1024,
		},
		{
			// aes streams bulk data between processors: few distinct
			// pages touched over and over in page-sized runs, so nearly
			// all of its traffic becomes 4KB page migrations -- which is
			// why it is badly hurt by per-block metadata despite its low
			// RPKI, and why batching recovers it (Section V-B).
			Name: "aes", Abbr: "aes", Suite: "Hetero-Mark", Class: LowRPKI,
			OpsPerGPU: 12000, BurstMin: 32, BurstMax: 64, IntraGapMax: 1,
			InterGapMin: 100, InterGapMax: 300, WriteFrac: 0.45, CPUWeight: 2.5,
			Phases: 2, HotDests: 1, Concentration: 0.95, PageReuse: 0.65, PagePool: 256,
		},
		{
			Name: "fir", Abbr: "fir", Suite: "Hetero-Mark", Class: LowRPKI,
			OpsPerGPU: 9000, BurstMin: 4, BurstMax: 12, IntraGapMax: 8,
			InterGapMin: 250, InterGapMax: 700, WriteFrac: 0.15, CPUWeight: 1.5,
			Phases: 2, HotDests: 1, Concentration: 0.80, PageReuse: 0.30, PagePool: 1024,
		},
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Abbr < specs[j].Abbr })
	return specs
}

// ErrUnknownWorkload is wrapped by ByAbbr when an abbreviation is not in
// the registry; match it with errors.Is.
var ErrUnknownWorkload = errors.New("unknown workload")

// ByAbbr looks a workload up by its Table IV abbreviation. An
// unregistered abbreviation yields an error satisfying
// errors.Is(err, ErrUnknownWorkload).
func ByAbbr(abbr string) (Spec, error) {
	for _, s := range Registry() {
		if s.Abbr == abbr {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: %w: unknown abbreviation %q", ErrUnknownWorkload, abbr)
}

// ByClass returns the workloads of one RPKI class.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range Registry() {
		if s.Class == c {
			out = append(out, s)
		}
	}
	return out
}
