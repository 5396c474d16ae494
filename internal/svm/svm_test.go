package svm

import (
	"strings"
	"testing"

	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// rig boots a cluster with an SVM system and runs one main per member.
type rig struct {
	eng *sim.Engine
	cl  *kernel.Cluster
	sys *System
}

func newRig(t testing.TB, cfg Config, members []int) *rig {
	t.Helper()
	eng := sim.NewEngine()
	ccfg := scc.DefaultConfig()
	ccfg.PrivateMemPerCore = 1 << 20
	ccfg.SharedMem = 16 << 20
	chip, err := scc.New(eng, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	kcfg := kernel.DefaultConfig()
	kcfg.Mode = mailbox.ModeIPI
	cl, err := kernel.NewCluster(chip, kcfg, members)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(cl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{eng: eng, cl: cl, sys: sys}
}

func (r *rig) run(t testing.TB, mains map[int]func(h *Handle)) {
	t.Helper()
	doneCount := 0
	for _, id := range r.cl.Members() {
		main := mains[id]
		if main == nil {
			t.Fatalf("no main for member %d", id)
		}
		r.cl.Start(id, func(k *kernel.Kernel) {
			h := r.sys.Attach(k)
			main(h)
			doneCount++
		})
	}
	r.eng.Run()
	r.eng.Shutdown()
	if doneCount != len(r.cl.Members()) {
		t.Fatalf("only %d of %d kernels finished (deadlock?)", doneCount, len(r.cl.Members()))
	}
}

func TestCollectiveAllocSameBase(t *testing.T) {
	for _, model := range []Model{Strong, LazyRelease} {
		model := model
		t.Run(model.String(), func(t *testing.T) {
			r := newRig(t, DefaultConfig(model), []int{0, 30})
			bases := map[int]uint32{}
			main := func(h *Handle) {
				bases[h.Kernel().ID()] = h.Alloc(4 << 20)
			}
			r.run(t, map[int]func(*Handle){0: main, 30: main})
			if bases[0] != bases[30] || bases[0] == 0 {
				t.Fatalf("bases = %#x vs %#x", bases[0], bases[30])
			}
			if bases[0] < scc.VirtSharedBase {
				t.Fatalf("base %#x below shared virtual window", bases[0])
			}
		})
	}
}

func TestAllocMismatchPanics(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 1})
	panicked := false
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) { h.Alloc(8 * pgtable.PageSize) },
		1: func(h *Handle) {
			defer func() {
				if recover() != nil {
					panicked = true
					// Rejoin the barrier so core 0 is not stranded.
					h.Kernel().Barrier()
				}
			}()
			h.Alloc(4 * pgtable.PageSize)
		},
	})
	if !panicked {
		t.Fatal("mismatched collective alloc accepted")
	}
}

// TestAllocRefusesMoreThanDataFrames: Alloc refuses a reservation one page
// larger than the frames left for data beside the SVM's own metadata, at
// the call rather than at a later touch. The largest reservation that fits
// is backed on every page, and a freed region no longer counts.
func TestAllocRefusesMoreThanDataFrames(t *testing.T) {
	alloc := func(t *testing.T, main func(h *Handle, frames uint32)) {
		r := newRig(t, DefaultConfig(Strong), []int{0})
		frames := uint32(r.sys.FreeFrames())
		r.run(t, map[int]func(*Handle){0: func(h *Handle) { main(h, frames) }})
	}
	t.Run("one page too many", func(t *testing.T) {
		var got any
		alloc(t, func(h *Handle, frames uint32) {
			defer func() { got = recover() }()
			h.Alloc((frames + 1) * pgtable.PageSize)
		})
		if msg, _ := got.(string); !strings.HasPrefix(msg, "svm: out of shared memory") {
			t.Fatalf("Alloc of one page more than the data frames: recovered %v", got)
		}
	})
	t.Run("exactly full", func(t *testing.T) {
		alloc(t, func(h *Handle, frames uint32) {
			base := h.Alloc(frames * pgtable.PageSize)
			for i := uint32(0); i < frames; i++ {
				h.Kernel().Core().Store64(base+i*pgtable.PageSize, uint64(i))
			}
		})
	})
	t.Run("freed region", func(t *testing.T) {
		alloc(t, func(h *Handle, frames uint32) {
			h.Free(h.Alloc(100 * pgtable.PageSize))
			h.Alloc((frames - 99) * pgtable.PageSize)
		})
	})
}

func TestFirstTouchAllocatesNearToucher(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 47})
	layout := r.cl.Chip().Layout()
	var paddr0, paddr47 uint32
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(16 * pgtable.PageSize)
			h.Kernel().Core().Store64(base, 1) // touch page 0
			e, _ := h.Kernel().Core().Table.Lookup(base)
			paddr0 = e.PhysAddr(base)
			h.Kernel().Barrier()
		},
		47: func(h *Handle) {
			base := h.Alloc(16 * pgtable.PageSize)
			h.Kernel().Core().Store64(base+8*pgtable.PageSize, 1) // touch page 8
			e, _ := h.Kernel().Core().Table.Lookup(base + 8*pgtable.PageSize)
			paddr47 = e.PhysAddr(base + 8*pgtable.PageSize)
			h.Kernel().Barrier()
		},
	})
	if mc := layout.ControllerOf(paddr0); mc != layout.ControllerOfCore(0) {
		t.Errorf("core 0's page on controller %d, want %d", mc, layout.ControllerOfCore(0))
	}
	if mc := layout.ControllerOf(paddr47); mc != layout.ControllerOfCore(47) {
		t.Errorf("core 47's page on controller %d, want %d", mc, layout.ControllerOfCore(47))
	}
}

func TestFirstTouchSharedFrame(t *testing.T) {
	// Both cores touch the same page; exactly one frame must be allocated
	// and both must translate to it.
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 30})
	var pa, pb uint32
	var ft0, ft30 uint64
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 7)
			h.Barrier()
			e, _ := h.Kernel().Core().Table.Lookup(base)
			pa = e.PhysAddr(base)
			ft0 = h.Stats().FirstTouches
		},
		30: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Barrier()
			if v := h.Kernel().Core().Load64(base); v != 7 {
				t.Errorf("core 30 read %d, want 7", v)
			}
			e, _ := h.Kernel().Core().Table.Lookup(base)
			pb = e.PhysAddr(base)
			ft30 = h.Stats().FirstTouches
		},
	})
	if pa != pb {
		t.Fatalf("cores map different frames: %#x vs %#x", pa, pb)
	}
	if ft0+ft30 != 1 {
		t.Fatalf("first touches = %d + %d, want exactly 1", ft0, ft30)
	}
}

// TestStrongOwnershipMigration ping-pongs a counter between two cores under
// the strong model: no explicit flushes in the program, correctness comes
// from ownership transfers alone.
func TestStrongOwnershipMigration(t *testing.T) {
	r := newRig(t, DefaultConfig(Strong), []int{0, 30})
	const rounds = 20
	main := func(myTurn uint64) func(*Handle) {
		return func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			for {
				v := h.Kernel().Core().Load64(base)
				if v >= 2*rounds {
					break
				}
				if v%2 == myTurn {
					h.Kernel().Core().Store64(base, v+1)
				} else {
					h.Kernel().Core().Cycles(2000) // let the peer act
				}
			}
			h.Kernel().Barrier()
		}
	}
	r.run(t, map[int]func(*Handle){0: main(0), 30: main(1)})
	// Final value visible to the memory system.
	sys := r.sys
	e := sys // silence linters about unused in case of edits
	_ = e
	h0 := sys.handles[0]
	if h0.Stats().OwnerRequests == 0 {
		t.Fatal("no ownership requests recorded — strong model inactive?")
	}
}

func TestStrongSingleWriterInvariant(t *testing.T) {
	// Many cores increment a shared counter; the strong model must
	// serialize page access so that no increment is lost.
	members := []int{0, 10, 20, 30}
	r := newRig(t, DefaultConfig(Strong), members)
	const perCore = 10
	mains := map[int]func(*Handle){}
	finals := map[int]uint64{}
	for _, id := range members {
		id := id
		mains[id] = func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			for i := 0; i < perCore; i++ {
				v := h.Kernel().Core().Load64(base)
				h.Kernel().Core().Store64(base, v+1)
			}
			h.Barrier()
			finals[id] = h.Kernel().Core().Load64(base)
		}
	}
	r.run(t, mains)
	// Load+store under single-owner pages is atomic only if ownership does
	// not move between the two — which this test *cannot* assume. What the
	// strong model does guarantee: the final value every core reads after
	// the barrier is identical and at least perCore (no writes vanish into
	// stale caches).
	want := finals[0]
	if want < perCore {
		t.Fatalf("final counter %d implausibly low", want)
	}
	for id, v := range finals {
		if v != want {
			t.Fatalf("core %d sees %d, core 0 sees %d — stale read under strong model", id, v, want)
		}
	}
}

func TestStrongOwnerVectorMatchesPageTables(t *testing.T) {
	members := []int{0, 1, 30, 47}
	r := newRig(t, DefaultConfig(Strong), members)
	pages := uint32(8)
	var base uint32
	mains := map[int]func(*Handle){}
	for _, id := range members {
		id := id
		mains[id] = func(h *Handle) {
			base = h.Alloc(pages * pgtable.PageSize)
			// Touch pages in a core-dependent pattern.
			for p := uint32(0); p < pages; p++ {
				if (int(p)+id)%2 == 0 {
					h.Kernel().Core().Store64(base+p*pgtable.PageSize, uint64(id))
				}
			}
			h.Barrier()
		}
	}
	r.run(t, mains)
	// Quiescent invariant: every allocated page has exactly one owner, and
	// only the owner's page table has it Present.
	for p := uint32(0); p < pages; p++ {
		idx := r.sys.pageIndex(base + p*pgtable.PageSize)
		owner := int(r.cl.Chip().Mem().Read32(r.sys.ownerAddr(idx))) - 1
		if owner < 0 {
			continue // never touched
		}
		presentCount := 0
		for _, id := range members {
			e, ok := r.cl.Chip().Core(id).Table.Lookup(base + p*pgtable.PageSize)
			if ok && e.Flags.Has(pgtable.Present) {
				presentCount++
				if id != owner {
					t.Fatalf("page %d: core %d has it Present but owner is %d", p, id, owner)
				}
			}
		}
		if presentCount > 1 {
			t.Fatalf("page %d present on %d cores", p, presentCount)
		}
	}
}

// TestLazyStaleWithoutSyncFreshAfterBarrier is the functional proof that
// the simulator models non-coherence: under lazy release consistency a
// reader that skips the acquire sees stale data, and the SVM barrier fixes
// it.
func TestLazyStaleWithoutSyncFreshAfterBarrier(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 30})
	var staleRead, freshRead uint64
	sawWrite := make(chan struct{}) // host-side ordering is via sim time
	_ = sawWrite
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Kernel().Core().Store64(base, 1) // allocate + write v=1
			h.Barrier()                        // publish v=1
			// Phase 2: overwrite without flushing (stays in WCB).
			h.Kernel().Core().Store64(base, 2)
			h.Kernel().Barrier() // raw kernel barrier: NO SVM flush
			h.Kernel().Barrier() // let core 30 do its stale read
			h.Barrier()          // SVM barrier: flush + invalidate
			h.Kernel().Barrier()
		},
		30: func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			h.Barrier()
			if v := h.Kernel().Core().Load64(base); v != 1 {
				t.Errorf("phase 1 read %d, want 1", v)
			}
			h.Kernel().Barrier()
			staleRead = h.Kernel().Core().Load64(base) // core 0's WCB not flushed
			h.Kernel().Barrier()
			h.Barrier()
			freshRead = h.Kernel().Core().Load64(base)
			h.Kernel().Barrier()
		},
	})
	if staleRead != 1 {
		t.Fatalf("read without release/acquire = %d, want stale 1", staleRead)
	}
	if freshRead != 2 {
		t.Fatalf("read after SVM barrier = %d, want 2", freshRead)
	}
}

func TestLazyLockProtectedCounter(t *testing.T) {
	members := []int{0, 5, 30, 40}
	r := newRig(t, DefaultConfig(LazyRelease), members)
	const perCore = 8
	const lockID = 3
	mains := map[int]func(*Handle){}
	finals := map[int]uint64{}
	for _, id := range members {
		id := id
		mains[id] = func(h *Handle) {
			base := h.Alloc(pgtable.PageSize)
			for i := 0; i < perCore; i++ {
				h.Lock(lockID)
				v := h.Kernel().Core().Load64(base)
				h.Kernel().Core().Store64(base, v+1)
				h.Unlock(lockID)
			}
			h.Barrier()
			finals[id] = h.Kernel().Core().Load64(base)
		}
	}
	r.run(t, mains)
	for id, v := range finals {
		if v != uint64(len(members)*perCore) {
			t.Fatalf("core %d: counter = %d, want %d (lost update under LRC lock)",
				id, v, len(members)*perCore)
		}
	}
}

func TestReadOnlyRegionEnablesL2AndTrapsWrites(t *testing.T) {
	r := newRig(t, DefaultConfig(LazyRelease), []int{0, 30})
	var l2FillsBefore, l2FillsAfter uint64
	panicked := false
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(4 * pgtable.PageSize)
			for p := uint32(0); p < 4; p++ {
				h.Kernel().Core().Store64(base+p*pgtable.PageSize, uint64(p)+100)
			}
			h.Barrier()
			h.ProtectReadOnly(base, 4*pgtable.PageSize)
			h.Kernel().Barrier()
		},
		30: func(h *Handle) {
			base := h.Alloc(4 * pgtable.PageSize)
			h.Barrier()
			h.ProtectReadOnly(base, 4*pgtable.PageSize)
			l2FillsBefore = h.Kernel().Core().L2().Stats().Fills
			for p := uint32(0); p < 4; p++ {
				if v := h.Kernel().Core().Load64(base + p*pgtable.PageSize); v != uint64(p)+100 {
					t.Errorf("page %d: read %d", p, v)
				}
			}
			l2FillsAfter = h.Kernel().Core().L2().Stats().Fills
			func() {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				h.Kernel().Core().Store64(base, 1)
			}()
			h.Kernel().Barrier()
		},
	})
	if l2FillsAfter == l2FillsBefore {
		t.Fatal("read-only region did not engage the L2")
	}
	if !panicked {
		t.Fatal("write to read-only region did not trap")
	}
}

func TestScratchpadOffDieVariant(t *testing.T) {
	cfg := DefaultConfig(LazyRelease)
	cfg.ScratchpadOffDie = true
	r := newRig(t, cfg, []int{0, 30})
	var got uint64
	r.run(t, map[int]func(*Handle){
		0: func(h *Handle) {
			base := h.Alloc(8 * pgtable.PageSize)
			h.Kernel().Core().Store64(base+4*pgtable.PageSize, 321)
			h.Barrier()
		},
		30: func(h *Handle) {
			base := h.Alloc(8 * pgtable.PageSize)
			h.Barrier()
			got = h.Kernel().Core().Load64(base + 4*pgtable.PageSize)
		},
	})
	if got != 321 {
		t.Fatalf("off-die scratchpad read %d, want 321", got)
	}
}

func TestLazyMapCheaperThanStrongMap(t *testing.T) {
	// Table 1 row 3: mapping an already-allocated page costs much less
	// under lazy release than under the strong model (which must fetch
	// ownership).
	mapCost := func(model Model) sim.Duration {
		r := newRig(t, DefaultConfig(model), []int{0, 30})
		var cost sim.Duration
		r.run(t, map[int]func(*Handle){
			0: func(h *Handle) {
				base := h.Alloc(pgtable.PageSize)
				h.Kernel().Core().Store64(base, 1)
				h.Barrier()
				h.Kernel().Barrier() // stay alive to serve the request
			},
			30: func(h *Handle) {
				base := h.Alloc(pgtable.PageSize)
				h.Barrier()
				start := h.Kernel().Core().Now()
				h.Kernel().Core().Store64(base, 2)
				cost = h.Kernel().Core().Now() - start
				h.Kernel().Barrier()
			},
		})
		return cost
	}
	lazy := mapCost(LazyRelease)
	strong := mapCost(Strong)
	if strong <= lazy {
		t.Fatalf("strong map (%v us) not above lazy map (%v us)",
			strong.Microseconds(), lazy.Microseconds())
	}
	// The paper's ratio is ~4.2x (10.198 vs 2.418 us); demand at least 2x.
	if float64(strong) < 2*float64(lazy) {
		t.Fatalf("strong/lazy ratio too small: %v / %v", strong, lazy)
	}
}

func TestDeterministicSVM(t *testing.T) {
	run := func() sim.Time {
		r := newRig(t, DefaultConfig(Strong), []int{0, 15, 30, 47})
		mains := map[int]func(*Handle){}
		for _, id := range []int{0, 15, 30, 47} {
			id := id
			mains[id] = func(h *Handle) {
				base := h.Alloc(16 * pgtable.PageSize)
				for i := 0; i < 40; i++ {
					p := uint32((i*7 + id) % 16)
					v := h.Kernel().Core().Load64(base + p*pgtable.PageSize)
					h.Kernel().Core().Store64(base+p*pgtable.PageSize, v+1)
				}
				h.Barrier()
			}
		}
		var end sim.Time
		func() {
			defer func() { recover() }()
			r.run(t, mains)
			end = r.eng.Now()
		}()
		return end
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("nondeterministic SVM run: %d vs %d", a, b)
	}
}
