package profile

import (
	"strings"
	"testing"

	"metalsvm/internal/sim"
)

func TestNilProfilerSafe(t *testing.T) {
	var p *Profiler
	p.Enter(0, FaultHandling, 10)
	p.EnterIfIdle(0, MailboxWait, 20)
	p.Exit(0, 30)
	p.Stall(0, 5, 1, 40)
	p.Finish(0, 50)
	if p.Spans() != nil || p.Report() != nil {
		t.Fatal("nil profiler misbehaves")
	}
}

// TestBucketPartition walks a core through every hook kind and asserts the
// partition invariant: the buckets sum exactly to the final local time, and
// each bucket carries exactly the intervals charged to it.
func TestBucketPartition(t *testing.T) {
	p := New(1, Config{})
	p.Enter(0, FaultHandling, 100)     // [0,100] compute
	p.EnterIfIdle(0, MailboxWait, 120) // [100,120] fault (probe inside fault stays fault)
	p.Exit(0, 140)                     // [120,140] fault
	p.Exit(0, 150)                     // [140,150] fault
	p.Stall(0, 20, 5, 180)             // [150,160] compute, [160,175] cache, [175,180] mesh
	p.Finish(0, 200)                   // [180,200] compute

	r := p.Report()
	if len(r.Cores) != 1 {
		t.Fatalf("cores = %d", len(r.Cores))
	}
	c := r.Cores[0]
	want := [NumBuckets]sim.Duration{}
	want[Compute] = 130
	want[FaultHandling] = 50
	want[CacheStall] = 15
	want[MeshTransit] = 5
	if c.Buckets != want {
		t.Fatalf("buckets = %v, want %v", c.Buckets, want)
	}
	if c.Sum() != c.Total || c.Total != 200 {
		t.Fatalf("sum %d, total %d", c.Sum(), c.Total)
	}
}

// TestEnterIfIdle asserts both sides of the refinement: idle cores charge
// the requested bucket, busy cores keep charging the enclosing context.
func TestEnterIfIdle(t *testing.T) {
	p := New(2, Config{})
	// Core 0 is idle: the probe is mailbox wait.
	p.EnterIfIdle(0, MailboxWait, 10)
	p.Exit(0, 30)
	p.Finish(0, 40)
	// Core 1 probes from inside a barrier: the time stays barrier wait.
	p.Enter(1, BarrierWait, 0)
	p.EnterIfIdle(1, MailboxWait, 10)
	p.Exit(1, 30)
	p.Exit(1, 35)
	p.Finish(1, 40)

	r := p.Report()
	if d := r.Cores[0].Buckets[MailboxWait]; d != 20 {
		t.Errorf("idle probe charged %d to mailbox-wait, want 20", d)
	}
	if d := r.Cores[1].Buckets[BarrierWait]; d != 35 {
		t.Errorf("nested probe charged %d to barrier-wait, want 35", d)
	}
	if d := r.Cores[1].Buckets[MailboxWait]; d != 0 {
		t.Errorf("nested probe leaked %d into mailbox-wait", d)
	}
}

// TestStallInsideContext: a memory stall inside a protocol context stays
// with the context instead of splitting into cache/mesh.
func TestStallInsideContext(t *testing.T) {
	p := New(1, Config{})
	p.Enter(0, LockWait, 0)
	p.Stall(0, 40, 10, 50)
	p.Exit(0, 60)
	p.Finish(0, 100)
	c := p.Report().Cores[0]
	if c.Buckets[LockWait] != 60 || c.Buckets[CacheStall] != 0 || c.Buckets[MeshTransit] != 0 {
		t.Fatalf("buckets = %v", c.Buckets)
	}
}

// TestStallClamp: a stall whose nominal start precedes the last charge (an
// IRQ handler already accounted part of the window) is clamped; an
// over-long mesh share degrades to all-mesh rather than underflowing.
func TestStallClamp(t *testing.T) {
	p := New(1, Config{})
	p.Enter(0, FaultHandling, 10)
	p.Exit(0, 20) // last = 20
	p.Stall(0, 100, 50, 60)
	p.Finish(0, 60)
	c := p.Report().Cores[0]
	if c.Buckets[MeshTransit] != 40 || c.Buckets[CacheStall] != 0 {
		t.Fatalf("buckets = %v", c.Buckets)
	}
	if c.Sum() != 60 {
		t.Fatalf("sum = %d", c.Sum())
	}
}

// TestSpanMerging: charges that abut with the same bucket coalesce into one
// span, so one logical wait does not splinter across nested frames.
func TestSpanMerging(t *testing.T) {
	p := New(1, Config{})
	p.Enter(0, FaultHandling, 100)
	p.EnterIfIdle(0, MailboxWait, 120)
	p.Exit(0, 140)
	p.Exit(0, 150)
	p.Finish(0, 150)
	spans := p.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	s := spans[0]
	if s != (Span{Core: 0, Bucket: FaultHandling, Start: 100, End: 150}) {
		t.Fatalf("span = %+v", s)
	}
}

func TestSpanCapacity(t *testing.T) {
	p := New(1, Config{SpanCapacity: 1})
	p.Enter(0, BarrierWait, 0)
	p.Exit(0, 10)
	p.Enter(0, LockWait, 20)
	p.Exit(0, 30)
	p.Finish(0, 40)
	if len(p.Spans()) != 1 || p.Spans()[0].Bucket != BarrierWait {
		t.Fatalf("spans = %v", p.Spans())
	}
	if p.spansDropped != 1 {
		t.Fatalf("dropped = %d", p.spansDropped)
	}
	if p.Report().SpansDropped != 1 {
		t.Fatal("report does not carry the drop count")
	}

	// Negative capacity disables span recording but not the buckets.
	q := New(1, Config{SpanCapacity: -1})
	q.Enter(0, BarrierWait, 0)
	q.Exit(0, 10)
	q.Finish(0, 10)
	if len(q.Spans()) != 0 || q.spansDropped != 0 {
		t.Fatalf("spans = %v dropped = %d", q.Spans(), q.spansDropped)
	}
	if q.Report().Cores[0].Buckets[BarrierWait] != 10 {
		t.Fatal("disabling spans lost bucket time")
	}
}

// TestReportSkipsIdleCores: cores no hook ever touched do not appear.
func TestReportSkipsIdleCores(t *testing.T) {
	p := New(4, Config{})
	p.Finish(2, 100)
	r := p.Report()
	if len(r.Cores) != 1 || r.Cores[0].Core != 2 {
		t.Fatalf("cores = %+v", r.Cores)
	}
	agg := r.Aggregate()
	if agg.Total != 100 || agg.Buckets[Compute] != 100 {
		t.Fatalf("aggregate = %+v", agg)
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on backwards clock")
		}
	}()
	p := New(1, Config{})
	p.Enter(0, BarrierWait, 100)
	p.Exit(0, 50)
}

func TestExitWithoutEnterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on unbalanced Exit")
		}
	}()
	New(1, Config{}).Exit(0, 10)
}

func TestWriteText(t *testing.T) {
	p := New(2, Config{})
	p.Enter(0, BarrierWait, 1_000_000)
	p.Exit(0, 3_000_000)
	p.Finish(0, 4_000_000)
	p.Finish(1, 4_000_000)
	var sb strings.Builder
	p.Report().WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"barrier-wait", "compute", "all", "50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output lacks %q:\n%s", want, out)
		}
	}
}
