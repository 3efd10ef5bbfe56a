// Package metrics provides the statistics primitives used across the secure
// multi-GPU model: scalar counters, bucketed histograms (for the paper's
// burst-interval distributions, Figures 15-16), and interval time series (for
// the communication-pattern studies, Figures 13-14).
//
// All collectors are plain single-threaded values: the simulation engine is
// sequential, so no locking is needed or wanted on the hot path.
package metrics

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Counter accumulates a non-negative quantity such as bytes or requests.
type Counter struct {
	val uint64
}

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.val += n }

// Inc increases the counter by one.
func (c *Counter) Inc() { c.val++ }

// Value returns the accumulated total.
func (c *Counter) Value() uint64 { return c.val }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.val = 0 }

// Histogram counts samples into caller-defined right-open buckets
// [bound[i-1], bound[i]). Samples >= the last bound land in a final overflow
// bucket. This mirrors the paper's interval buckets such as [40, 160).
type Histogram struct {
	bounds []uint64
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds ...uint64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	idx := sort.Search(len(h.bounds), func(i int) bool { return v < h.bounds[i] })
	h.counts[idx]++
	h.total++
}

// Clone returns an independent copy of the histogram — a consistent
// snapshot callers can serialize without racing later Observes on the
// original.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{
		bounds: make([]uint64, len(h.bounds)),
		counts: make([]uint64, len(h.counts)),
		total:  h.total,
	}
	copy(c.bounds, h.bounds)
	copy(c.counts, h.counts)
	return c
}

// Total returns the number of samples observed.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the raw count of bucket i (len(bounds)+1 buckets).
func (h *Histogram) Bucket(i int) uint64 { return h.counts[i] }

// NumBuckets returns the bucket count, including the overflow bucket.
func (h *Histogram) NumBuckets() int { return len(h.counts) }

// Fraction returns bucket i's share of all samples, or 0 with no samples.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// CumulativeFractionBelow returns the fraction of samples < bound. The bound
// must be one of the histogram's configured bounds.
func (h *Histogram) CumulativeFractionBelow(bound uint64) float64 {
	if h.total == 0 {
		return 0
	}
	var sum uint64
	for i, b := range h.bounds {
		if b > bound {
			break
		}
		sum += h.counts[i]
	}
	return float64(sum) / float64(h.total)
}

// BucketLabel renders bucket i as the paper's "[lo, hi)" notation.
func (h *Histogram) BucketLabel(i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("[0, %d)", h.bounds[0])
	case i < len(h.bounds):
		return fmt.Sprintf("[%d, %d)", h.bounds[i-1], h.bounds[i])
	default:
		return fmt.Sprintf("[%d, inf)", h.bounds[len(h.bounds)-1])
	}
}

// String renders all buckets with fractions, for debugging and reports.
func (h *Histogram) String() string {
	var b strings.Builder
	for i := range h.counts {
		fmt.Fprintf(&b, "%s: %.1f%%  ", h.BucketLabel(i), 100*h.Fraction(i))
	}
	return strings.TrimSpace(b.String())
}

// histogramJSON is the wire form of a Histogram: the durable result
// store round-trips simulation results through JSON, and the collector
// fields are unexported.
type histogramJSON struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Total  uint64   `json:"total"`
}

// MarshalJSON encodes the histogram's bounds, counts, and total.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts, Total: h.total})
}

// UnmarshalJSON decodes and validates a histogram. Invalid shapes —
// non-ascending bounds, a count/bound length mismatch, or a total that
// disagrees with the counts (a flipped bit) — are errors, never panics,
// so a corrupt persisted result is rejected instead of trusted.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var d histogramJSON
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.Bounds) == 0 {
		return fmt.Errorf("metrics: histogram with no bounds")
	}
	for i := 1; i < len(d.Bounds); i++ {
		if d.Bounds[i] <= d.Bounds[i-1] {
			return fmt.Errorf("metrics: histogram bounds not ascending")
		}
	}
	if len(d.Counts) != len(d.Bounds)+1 {
		return fmt.Errorf("metrics: histogram has %d counts for %d bounds", len(d.Counts), len(d.Bounds))
	}
	var sum uint64
	for _, c := range d.Counts {
		sum += c
	}
	if sum != d.Total {
		return fmt.Errorf("metrics: histogram total %d != summed counts %d", d.Total, sum)
	}
	h.bounds, h.counts, h.total = d.Bounds, d.Counts, d.Total
	return nil
}

// Series records per-interval samples of a set of named lanes, e.g. the
// send/receive request mix per 10K-cycle window in Figure 13.
type Series struct {
	lanes   []string
	rows    [][]uint64
	current []uint64
}

// NewSeries creates a series with the given lane names.
func NewSeries(lanes ...string) *Series {
	if len(lanes) == 0 {
		panic("metrics: series needs at least one lane")
	}
	return &Series{lanes: lanes, current: make([]uint64, len(lanes))}
}

// Add accumulates n into the named lane of the current interval.
func (s *Series) Add(lane int, n uint64) { s.current[lane] += n }

// Flush closes the current interval, appending it as a row.
func (s *Series) Flush() {
	row := make([]uint64, len(s.current))
	copy(row, s.current)
	s.rows = append(s.rows, row)
	for i := range s.current {
		s.current[i] = 0
	}
}

// Lanes returns the lane names.
func (s *Series) Lanes() []string { return s.lanes }

// Rows returns all flushed intervals. The returned slice is owned by the
// series; callers must not mutate it.
func (s *Series) Rows() [][]uint64 { return s.rows }

// seriesJSON is the wire form of a Series (see histogramJSON).
type seriesJSON struct {
	Lanes   []string   `json:"lanes"`
	Rows    [][]uint64 `json:"rows,omitempty"`
	Current []uint64   `json:"current"`
}

// MarshalJSON encodes the series' lanes, flushed rows, and open interval.
func (s *Series) MarshalJSON() ([]byte, error) {
	return json.Marshal(seriesJSON{Lanes: s.lanes, Rows: s.rows, Current: s.current})
}

// UnmarshalJSON decodes and validates a series; any row whose width
// disagrees with the lane count is an error, never a panic.
func (s *Series) UnmarshalJSON(data []byte) error {
	var d seriesJSON
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	if len(d.Lanes) == 0 {
		return fmt.Errorf("metrics: series with no lanes")
	}
	if len(d.Current) != len(d.Lanes) {
		return fmt.Errorf("metrics: series current width %d for %d lanes", len(d.Current), len(d.Lanes))
	}
	for _, row := range d.Rows {
		if len(row) != len(d.Lanes) {
			return fmt.Errorf("metrics: series row width %d for %d lanes", len(row), len(d.Lanes))
		}
	}
	s.lanes, s.rows, s.current = d.Lanes, d.Rows, d.Current
	return nil
}

// FractionRows returns each interval normalized so lanes sum to 1
// (all-zero intervals stay zero).
func (s *Series) FractionRows() [][]float64 {
	out := make([][]float64, len(s.rows))
	for i, row := range s.rows {
		var sum uint64
		for _, v := range row {
			sum += v
		}
		fr := make([]float64, len(row))
		if sum > 0 {
			for j, v := range row {
				fr[j] = float64(v) / float64(sum)
			}
		}
		out[i] = fr
	}
	return out
}
