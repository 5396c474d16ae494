package svm

import (
	"strings"
	"testing"
)

// TestDumpDiagnosticsShowsOwnerVector checks the watchdog-facing dump: with
// a handle mid-acquisition the report must name the handle's wait state and
// resolve the contested page through the owner vector. The in-fault entry is
// planted after a completed run — the dump is functional reads only, so it
// does not care whether the protocol is live.
func TestDumpDiagnosticsShowsOwnerVector(t *testing.T) {
	r := newRig(t, DefaultConfig(Strong), []int{0, 1})
	main := func(h *Handle) {
		base := h.Alloc(4096)
		if h.Kernel().ID() == 0 {
			h.Kernel().Core().Store64(base, 7) // first touch: core 0 owns page 0
		}
		h.Barrier()
	}
	r.run(t, map[int]func(*Handle){0: main, 1: main})

	r.sys.handles[1].record(0).inFault = true // as if core 1 were acquiring page 0
	var b strings.Builder
	r.sys.DumpDiagnostics(&b)
	got := b.String()
	for _, want := range []string{
		"svm (strong)",
		"svm 1: inFault=map[0:true]",
		"page 0 owner vector: core 0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("DumpDiagnostics missing %q:\n%s", want, got)
		}
	}
}

// TestDumpDiagnosticsQuietWhenIdle checks the dump stays free of owner-vector
// noise when no page is being acquired.
func TestDumpDiagnosticsQuietWhenIdle(t *testing.T) {
	r := newRig(t, DefaultConfig(Strong), []int{0, 1})
	main := func(h *Handle) {
		h.Alloc(4096)
		h.Barrier()
	}
	r.run(t, map[int]func(*Handle){0: main, 1: main})

	var b strings.Builder
	r.sys.DumpDiagnostics(&b)
	if got := b.String(); strings.Contains(got, "owner vector") {
		t.Fatalf("idle dump reports an owner vector entry:\n%s", got)
	}
}
