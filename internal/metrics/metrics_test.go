package metrics

import (
	"strings"
	"testing"
)

func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	c.Add(3) // must not panic
	var h *Histogram
	h.Observe(7)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram misbehaves")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(1)
	if r.Counter("a.b") != c || r.Counter("a.b").v != 1 {
		t.Fatal("counter identity lost")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity lost")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(0) // bit length 0
	h.Observe(1) // bit length 1
	h.Observe(5) // bit length 3
	h.ObserveN(5, 2)
	if h.Count() != 5 || h.Sum() != 16 {
		t.Fatalf("count %d sum %d", h.Count(), h.Sum())
	}
}

func TestSnapshotSortedAndLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Add(1)
	r.Histogram("hops").Observe(3)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if s.Counter("z.last") != 2 || s.Counter("absent") != 0 {
		t.Fatal("snapshot lookup wrong")
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Mean() != 3 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	var sb strings.Builder
	s.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"a.first", "z.last", "hops", "mean 3.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output lacks %q:\n%s", want, out)
		}
	}
	// The text lists counters sorted: a.first before z.last.
	if strings.Index(out, "a.first") > strings.Index(out, "z.last") {
		t.Error("counters not sorted in text output")
	}
}
