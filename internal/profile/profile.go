// Package profile attributes every simulated core's time to a small fixed
// set of buckets — compute, cache stall, mesh transit, mailbox wait, fault
// handling, barrier wait, lock wait — by observing the protocol layers'
// bucket transitions on the cores' local clocks.
//
// The profiler is passive: its methods only read clocks that the calling
// layer already advanced, never charge simulated time, and are safe on a
// nil *Profiler (one branch, like trace.Buffer). An instrumented run is
// therefore bit-identical to an uninstrumented one.
//
// Attribution model. Each core carries a stack of bucket frames and a
// "last charged" timestamp. Every hook call charges the interval since the
// last call to the bucket on top of the stack (an empty stack means
// Compute) and advances the timestamp. Because the hooks partition
// [0, finish] on a monotonic per-core clock, the buckets of a finished
// core sum exactly to its total simulated time — the invariant Report
// asserts.
//
// Two refinements keep the breakdown meaningful:
//
//   - EnterIfIdle enters a bucket only when no more specific context is
//     active: a mailbox probe during a page fault stays fault handling,
//     while the same probe from user code is mailbox wait.
//   - Stall splits a memory stall into cache-stall and mesh-transit only
//     at the top level; inside a protocol context (fault handling, barrier,
//     lock) the whole stall stays with that context, so "fault handling"
//     includes the fault path's memory traffic.
package profile

import (
	"fmt"
	"io"
	"sort"

	"metalsvm/internal/sim"
	"metalsvm/internal/stats"
)

// Bucket is one category of simulated time.
type Bucket uint8

const (
	// Compute is everything not claimed by another bucket: instruction
	// execution, cache hits, kernel bookkeeping.
	Compute Bucket = iota
	// CacheStall is the non-mesh share of a memory transaction that stalled
	// the core (miss handling, DRAM access), charged outside protocol
	// contexts.
	CacheStall
	// MeshTransit is the mesh-traversal share of a stalling memory
	// transaction, charged outside protocol contexts.
	MeshTransit
	// MailboxWait is time spent sending, probing or waiting for mail
	// outside any more specific context.
	MailboxWait
	// FaultHandling is page-fault time: trap entry, first touch, the
	// ownership protocol on both the requester and the owner side.
	FaultHandling
	// BarrierWait is time inside a barrier (including its flush and
	// invalidate consistency actions).
	BarrierWait
	// LockWait is time acquiring or releasing an SVM lock.
	LockWait
	// NumBuckets is the bucket count (for arrays indexed by Bucket).
	NumBuckets
)

var bucketNames = [NumBuckets]string{
	"compute", "cache-stall", "mesh-transit", "mailbox-wait",
	"fault-handling", "barrier-wait", "lock-wait",
}

func (b Bucket) String() string {
	if b < NumBuckets {
		return bucketNames[b]
	}
	return fmt.Sprintf("bucket(%d)", uint8(b))
}

// Config holds profiler parameters. The zero value selects the defaults.
type Config struct {
	// SpanCapacity bounds how many non-compute spans are retained for
	// timeline export. Zero selects DefaultSpanCapacity; negative disables
	// span recording entirely (the bucket totals are unaffected). When the
	// capacity is reached the earliest spans are kept and Report.SpansDropped
	// counts the rest — a timeline shows a run's beginning.
	SpanCapacity int
}

// DefaultSpanCapacity is the span bound when Config.SpanCapacity is zero.
const DefaultSpanCapacity = 1 << 16

// Span is one contiguous non-compute interval on one core. Spans of a core
// never overlap; gaps between them are compute time.
type Span struct {
	Core       int32
	Bucket     Bucket
	Start, End sim.Time
}

type coreState struct {
	last    sim.Time
	stack   []Bucket
	buckets [NumBuckets]sim.Duration
	active  bool // any hook fired on this core
	done    bool // Finish was called
	total   sim.Duration
}

// Profiler accumulates per-core bucket time. Create one per chip with New;
// all methods accept a nil receiver as a no-op.
type Profiler struct {
	cores        []coreState
	spans        []Span
	spanCap      int
	spansDropped uint64
}

// New creates a profiler for n cores.
func New(n int, cfg Config) *Profiler {
	spanCap := cfg.SpanCapacity
	if spanCap == 0 {
		spanCap = DefaultSpanCapacity
	}
	return &Profiler{cores: make([]coreState, n), spanCap: spanCap}
}

// top returns the bucket currently charged on the core.
func (cs *coreState) top() Bucket {
	if len(cs.stack) == 0 {
		return Compute
	}
	return cs.stack[len(cs.stack)-1]
}

// charge books [cs.last, now] to bucket b and advances the timestamp.
func (p *Profiler) charge(core int, cs *coreState, b Bucket, now sim.Time) {
	if now < cs.last {
		panic(fmt.Sprintf("profile: core %d clock moved backwards (%d < %d)",
			core, now, cs.last))
	}
	d := now - cs.last
	cs.buckets[b] += d
	cs.last = now
	if d == 0 || b == Compute {
		return
	}
	if p.spanCap < 0 {
		return
	}
	// Extend the previous span when it abuts with the same bucket, so one
	// logical wait does not splinter across nested same-bucket frames.
	if n := len(p.spans); n > 0 {
		if s := &p.spans[n-1]; s.Core == int32(core) && s.Bucket == b && s.End == now-d {
			s.End = now
			return
		}
	}
	if len(p.spans) >= p.spanCap {
		p.spansDropped++
		return
	}
	p.spans = append(p.spans, Span{Core: int32(core), Bucket: b, Start: now - d, End: now})
}

// Enter pushes bucket b on the core's context stack: time from now on is
// charged to b until the matching Exit.
func (p *Profiler) Enter(core int, b Bucket, now sim.Time) {
	if p == nil {
		return
	}
	cs := &p.cores[core]
	cs.active = true
	p.charge(core, cs, cs.top(), now)
	cs.stack = append(cs.stack, b)
}

// EnterIfIdle is Enter when no context is active on the core, and re-enters
// the current top bucket otherwise — a generic wait (mail probe, idle scan)
// must not steal time from a more specific protocol context enclosing it.
// Always pair with Exit.
func (p *Profiler) EnterIfIdle(core int, b Bucket, now sim.Time) {
	if p == nil {
		return
	}
	cs := &p.cores[core]
	if len(cs.stack) > 0 {
		b = cs.top()
	}
	cs.active = true
	p.charge(core, cs, cs.top(), now)
	cs.stack = append(cs.stack, b)
}

// Exit pops the current context, charging the interval since the previous
// hook to it.
func (p *Profiler) Exit(core int, now sim.Time) {
	if p == nil {
		return
	}
	cs := &p.cores[core]
	if len(cs.stack) == 0 {
		panic(fmt.Sprintf("profile: core %d Exit without Enter", core))
	}
	p.charge(core, cs, cs.top(), now)
	cs.stack = cs.stack[:len(cs.stack)-1]
}

// Stall books a memory transaction that stalled the core for total, of
// which mesh was mesh traversal, ending at now. At top level the stall
// splits into CacheStall and MeshTransit; inside a protocol context the
// whole interval stays with that context (see the package comment). The
// stall window is clamped to [last, now]: an interrupt handler that ran
// inside the stall has already accounted its share.
func (p *Profiler) Stall(core int, total, mesh sim.Duration, now sim.Time) {
	if p == nil {
		return
	}
	cs := &p.cores[core]
	cs.active = true
	if len(cs.stack) > 0 {
		p.charge(core, cs, cs.top(), now)
		return
	}
	start := now - total
	if total > now || start < cs.last {
		start = cs.last
	}
	meshStart := start
	if mesh <= now-start {
		meshStart = now - mesh
	}
	p.charge(core, cs, Compute, start)
	p.charge(core, cs, CacheStall, meshStart)
	p.charge(core, cs, MeshTransit, now)
}

// Finish closes out a core at its final local time. Remaining open contexts
// are charged and popped; afterwards the core's buckets sum exactly to now.
func (p *Profiler) Finish(core int, now sim.Time) {
	if p == nil {
		return
	}
	cs := &p.cores[core]
	for len(cs.stack) > 0 {
		p.charge(core, cs, cs.top(), now)
		cs.stack = cs.stack[:len(cs.stack)-1]
	}
	p.charge(core, cs, Compute, now)
	cs.active = true
	cs.done = true
	cs.total = now
}

// Spans returns the recorded non-compute spans in charge order (per core
// chronological).
func (p *Profiler) Spans() []Span {
	if p == nil {
		return nil
	}
	return p.spans
}

// CoreReport is one core's breakdown.
type CoreReport struct {
	Core    int
	Total   sim.Duration
	Buckets [NumBuckets]sim.Duration
}

// Sum returns the bucket total (equals Total for a finished core).
func (c CoreReport) Sum() sim.Duration {
	var s sim.Duration
	for _, d := range c.Buckets {
		s += d
	}
	return s
}

// Report is the per-core and aggregate breakdown of a finished run.
type Report struct {
	Cores        []CoreReport
	SpansDropped uint64
}

// Report builds the breakdown over every core that was ever observed,
// asserting the partition invariant: a finished core's buckets sum to its
// total simulated time.
func (p *Profiler) Report() *Report {
	if p == nil {
		return nil
	}
	r := &Report{SpansDropped: p.spansDropped}
	for id := range p.cores {
		cs := &p.cores[id]
		if !cs.active {
			continue
		}
		cr := CoreReport{Core: id, Total: cs.total, Buckets: cs.buckets}
		if cs.done && cr.Sum() != cs.total {
			panic(fmt.Sprintf("profile: core %d buckets sum to %d, total is %d",
				id, cr.Sum(), cs.total))
		}
		r.Cores = append(r.Cores, cr)
	}
	sort.Slice(r.Cores, func(i, j int) bool { return r.Cores[i].Core < r.Cores[j].Core })
	return r
}

// Aggregate sums the per-core breakdowns.
func (r *Report) Aggregate() CoreReport {
	agg := CoreReport{Core: -1}
	for _, c := range r.Cores {
		agg.Total += c.Total
		for b := range c.Buckets {
			agg.Buckets[b] += c.Buckets[b]
		}
	}
	return agg
}

// WriteText renders the per-core rows and the aggregate as a table of
// microseconds with percentage shares.
func (r *Report) WriteText(w io.Writer) {
	cols := []string{"core", "total [us]"}
	for b := Bucket(0); b < NumBuckets; b++ {
		cols = append(cols, b.String())
	}
	t := stats.NewTable(cols...)
	row := func(label string, c CoreReport) {
		cells := []string{label, fmt.Sprintf("%.1f", c.Total.Microseconds())}
		for b := Bucket(0); b < NumBuckets; b++ {
			pct := 0.0
			if c.Total > 0 {
				pct = 100 * float64(c.Buckets[b]) / float64(c.Total)
			}
			cells = append(cells, fmt.Sprintf("%.1f%%", pct))
		}
		t.AddRow(cells...)
	}
	for _, c := range r.Cores {
		row(fmt.Sprint(c.Core), c)
	}
	row("all", r.Aggregate())
	fmt.Fprint(w, t)
	if r.SpansDropped > 0 {
		fmt.Fprintf(w, "(%d timeline spans beyond the capacity bound were dropped)\n", r.SpansDropped)
	}
}
