// Package metrics provides the observability layer's registry of counters
// and histograms. Instruments are charged no simulated cycles: they
// are plain host-side accumulators the subsystems bump (or the end-of-run
// harvest fills from the subsystems' stats structs), so an instrumented run
// is bit-identical to an uninstrumented one.
//
// Like trace.Buffer and the profiler, every instrument tolerates a nil
// receiver (one branch), so call sites need no enablement checks. Snapshot
// output is deterministic: names are sorted before rendering.
package metrics

import (
	"fmt"
	"io"
	"sort"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v uint64 }

// Add increases the counter by n; nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// SubBuckets is the number of linear sub-buckets inside each power-of-two
// histogram bucket. Sixteen sub-buckets bound a quantile estimate's relative
// error by 1/16 ≈ 6%, which is enough to tell a p99 from a p999.
const SubBuckets = 16

// Histogram accumulates a distribution of uint64 samples in power-of-two
// buckets (bucket i counts samples with bit length i), each subdivided into
// SubBuckets linear sub-buckets so quantiles can be extracted with bounded
// relative error.
type Histogram struct {
	counts   [65]uint64
	sub      [65][SubBuckets]uint64
	n        uint64
	sum      uint64
	min, max uint64
}

func bitLen(v uint64) int {
	n := 0
	for v != 0 {
		v >>= 1
		n++
	}
	return n
}

// bucketLow returns the smallest value in power-of-two bucket b.
func bucketLow(b int) uint64 {
	if b == 0 {
		return 0
	}
	return 1 << (b - 1)
}

// bucketWidth returns the number of distinct values in bucket b.
func bucketWidth(b int) uint64 {
	if b <= 1 {
		return 1 // bucket 0 holds only 0, bucket 1 only 1
	}
	return 1 << (b - 1) // [2^(b-1), 2^b) spans 2^(b-1) values
}

// subIndex maps a value to its linear sub-bucket within bucket b.
func subIndex(v uint64, b int) int {
	low, width := bucketLow(b), bucketWidth(b)
	if width <= SubBuckets {
		return int(v - low)
	}
	return int((v - low) / (width / SubBuckets))
}

// Observe records one sample; nil-safe.
func (h *Histogram) Observe(v uint64) { h.ObserveN(v, 1) }

// ObserveN records n identical samples (harvesting pre-aggregated counts);
// nil-safe.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil || n == 0 {
		return
	}
	b := bitLen(v)
	h.counts[b] += n
	h.sub[b][subIndex(v, b)] += n
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n += n
	h.sum += v * n
}

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1) of the observed
// samples, interpolated within the matching linear sub-bucket and clamped to
// the exact observed [min, max]. The relative error is bounded by the
// sub-bucket width (≈6%). An empty or nil histogram reads as zero.
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	return quantile(&h.counts, &h.sub, h.n, h.min, h.max, q)
}

// quantile is the shared nearest-rank-with-interpolation walk used by both
// the live histogram and its snapshot point.
func quantile(counts *[65]uint64, sub *[65][SubBuckets]uint64, n, min, max uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := uint64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var cum uint64
	for b := 0; b < 65; b++ {
		if counts[b] == 0 {
			continue
		}
		low, width := bucketLow(b), bucketWidth(b)
		subWidth := width / SubBuckets
		if subWidth == 0 {
			subWidth = 1
		}
		for s := 0; s < SubBuckets; s++ {
			c := sub[b][s]
			if c == 0 {
				continue
			}
			if cum+c > rank {
				// The rank lands in this sub-bucket: interpolate the
				// position of the rank within it.
				sLow := low + uint64(s)*subWidth
				frac := float64(rank-cum) / float64(c)
				v := sLow + uint64(frac*float64(subWidth))
				if v < min {
					v = min
				}
				if v > max {
					v = max
				}
				return v
			}
			cum += c
		}
	}
	return max
}

// Merge folds another histogram's samples into h (combining per-worker
// host-side histograms after a run); nil receivers and arguments are no-ops.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.n == 0 {
		return
	}
	for b := 0; b < 65; b++ {
		h.counts[b] += o.counts[b]
		for s := 0; s < SubBuckets; s++ {
			h.sub[b][s] += o.sub[b][s]
		}
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of samples; nil reads as zero.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sample total; nil reads as zero.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry holds named instruments. Get-or-create accessors keep wiring
// one-lined; names conventionally read "subsystem.metric".
type Registry struct {
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.histograms[name]
	if !ok {
		h = new(Histogram)
		r.histograms[name] = h
	}
	return h
}

// CounterPoint is one counter in a snapshot.
type CounterPoint struct {
	Name  string
	Value uint64
}

// HistogramPoint is one histogram in a snapshot.
type HistogramPoint struct {
	Name           string
	Count, Sum     uint64
	Min, Max       uint64
	CountsByBitLen [65]uint64
	// SubCounts subdivides each power-of-two bucket into SubBuckets linear
	// sub-buckets — the precision behind Quantile.
	SubCounts [65][SubBuckets]uint64
}

// Mean returns the sample mean (zero for an empty histogram).
func (h HistogramPoint) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an estimate of the q-quantile of the snapshotted
// distribution (see Histogram.Quantile).
func (h HistogramPoint) Quantile(q float64) uint64 {
	return quantile(&h.CountsByBitLen, &h.SubCounts, h.Count, h.Min, h.Max, q)
}

// P50, P99 and P999 are the SLO-report quantiles.
func (h HistogramPoint) P50() uint64  { return h.Quantile(0.50) }
func (h HistogramPoint) P99() uint64  { return h.Quantile(0.99) }
func (h HistogramPoint) P999() uint64 { return h.Quantile(0.999) }

// Snapshot is an immutable, name-sorted view of a registry.
type Snapshot struct {
	Counters   []CounterPoint
	Histograms []HistogramPoint
}

// Snapshot captures the registry's current values, sorted by name so the
// result is independent of map iteration order.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	//metalsvm:deterministic — keys are collected, then sorted below
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{Name: name, Value: c.v})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	//metalsvm:deterministic — keys are collected, then sorted below
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, HistogramPoint{
			Name: name, Count: h.n, Sum: h.sum, Min: h.min, Max: h.max,
			CountsByBitLen: h.counts, SubCounts: h.sub,
		})
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the named counter's value from the snapshot (zero when
// absent).
func (s *Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// WriteText renders the snapshot as aligned name/value lines.
func (s *Snapshot) WriteText(w io.Writer) {
	width := 0
	for _, c := range s.Counters {
		if len(c.Name) > width {
			width = len(c.Name)
		}
	}
	for _, h := range s.Histograms {
		if len(h.Name) > width {
			width = len(h.Name)
		}
	}
	for _, c := range s.Counters {
		fmt.Fprintf(w, "%-*s %12d\n", width, c.Name, c.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(w, "%-*s %12d samples, mean %.2f, min %d, max %d, p50 %d, p99 %d, p999 %d\n",
			width, h.Name, h.Count, h.Mean(), h.Min, h.Max, h.P50(), h.P99(), h.P999())
	}
}
