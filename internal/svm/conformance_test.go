package svm_test

import (
	"fmt"
	"testing"

	"metalsvm/internal/core"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
	"metalsvm/internal/svm/repldir"
)

// lcg is a tiny deterministic generator for workload synthesis.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 11
}

func (r *lcg) intn(n int) int { return int(r.next() % uint64(n)) }

// runConformance runs main on every member of a small machine (idx is the
// member's position in members) and fails the test unless every member
// finishes. replicated installs the replicated ownership directory, whose
// managers take the highest free cores.
func runConformance(t *testing.T, model svm.Model, members []int, replicated bool, main func(idx int, h *svm.Handle)) {
	t.Helper()
	chip := scc.DefaultConfig()
	chip.PrivateMemPerCore = 1 << 20
	chip.SharedMem = 16 << 20
	scfg := svm.DefaultConfig(model)
	opts := core.Options{Topology: &chip, SVM: &scfg, Members: members}
	if replicated {
		opts.ReplicatedDirectory = &repldir.Config{}
	}
	m, err := core.NewMachine(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	mains := make(map[int]func(*core.Env), len(members))
	for idx, id := range members {
		mains[id] = func(env *core.Env) {
			main(idx, env.SVM)
			done++
		}
	}
	m.Run(mains)
	if done != len(members) {
		t.Fatalf("only %d of %d members finished (deadlock?)", done, len(members))
	}
}

// TestRandomPhasedWorkloadConformance drives both consistency models on both
// ownership directories with randomized (but discipline-conforming)
// workloads and checks every read against a host-side sequential memory
// model:
//
//	each phase assigns every page exactly one writer; writers store random
//	values at random offsets; an SVM barrier ends the phase; afterwards
//	random cores read random locations and must see the latest write.
//
// This is the kind of pattern an application following the models'
// contracts (data races only across barriers) would produce. A bug in
// ownership transfer, WCB flushing or invalidation shows up as a stale
// read; a protocol deadlock shows up as a hang. The single-copy directory's
// cases keep their plain names; the replicated directory's carry the
// "replicated/" prefix.
func TestRandomPhasedWorkloadConformance(t *testing.T) {
	members := []int{0, 13, 30, 47}
	for _, dir := range []struct {
		prefix     string
		replicated bool
	}{{"", false}, {"replicated/", true}} {
		for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s%v/seed%d", dir.prefix, model, seed), func(t *testing.T) {
					phasedWorkload(t, model, seed, members, dir.replicated)
				})
			}
		}
	}
}

// phasedWorkload is one case of TestRandomPhasedWorkloadConformance.
func phasedWorkload(t *testing.T, model svm.Model, seed uint64, members []int, replicated bool) {
	const (
		pages          = 6
		phases         = 8
		writesPerPhase = 5
		readsPerPhase  = 6
	)
	// Pre-generate the whole schedule host-side so every kernel sees the
	// same plan.
	rng := lcg(seed)
	type write struct {
		writer int // member index
		off    uint32
		val    uint64
	}
	type read struct {
		reader int
		off    uint32
	}
	schedule := make([][]write, phases)
	checks := make([][]read, phases)
	golden := map[uint32]uint64{} // host model: offset -> value
	expect := make([]map[uint32]uint64, phases)
	for ph := 0; ph < phases; ph++ {
		pageWriter := make([]int, pages)
		for p := range pageWriter {
			pageWriter[p] = rng.intn(len(members))
		}
		for w := 0; w < writesPerPhase; w++ {
			page := rng.intn(pages)
			off := uint32(page)*pgtable.PageSize + uint32(rng.intn(pgtable.PageSize/8))*8
			val := rng.next()
			schedule[ph] = append(schedule[ph], write{writer: pageWriter[page], off: off, val: val})
			golden[off] = val
		}
		expect[ph] = make(map[uint32]uint64, len(golden))
		for k, v := range golden {
			expect[ph][k] = v
		}
		for r := 0; r < readsPerPhase; r++ {
			page := rng.intn(pages)
			off := uint32(page)*pgtable.PageSize + uint32(rng.intn(pgtable.PageSize/8))*8
			checks[ph] = append(checks[ph], read{reader: rng.intn(len(members)), off: off})
		}
	}

	runConformance(t, model, members, replicated, func(idx int, h *svm.Handle) {
		base := h.Alloc(pages * pgtable.PageSize)
		h.Barrier()
		for ph := 0; ph < phases; ph++ {
			for _, w := range schedule[ph] {
				if w.writer == idx {
					h.Kernel().Core().Store64(base+w.off, w.val)
				}
			}
			h.Barrier()
			for _, r := range checks[ph] {
				if r.reader != idx {
					continue
				}
				got := h.Kernel().Core().Load64(base + r.off)
				want := expect[ph][r.off] // zero if never written
				if got != want {
					t.Errorf("phase %d: core %d read %#x at +%#x, want %#x",
						ph, members[idx], got, r.off, want)
				}
			}
			h.Barrier()
		}
	})
}

// TestRandomLockedCountersConformance stresses the lazy-release lock path:
// random cores increment random shared counters under per-counter locks;
// the final values must equal the host-side tally exactly.
func TestRandomLockedCountersConformance(t *testing.T) {
	const (
		counters = 8
		opsPer   = 15
	)
	members := []int{0, 9, 30, 44}
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := lcg(seed * 77)
			plan := make([][]int, len(members)) // per member: counter indices
			tally := make([]uint64, counters)
			for m := range members {
				for i := 0; i < opsPer; i++ {
					c := rng.intn(counters)
					plan[m] = append(plan[m], c)
					tally[c]++
				}
			}
			finals := make([][]uint64, len(members))
			runConformance(t, svm.LazyRelease, members, false, func(idx int, h *svm.Handle) {
				base := h.Alloc(counters * 8)
				h.Barrier()
				for _, cnt := range plan[idx] {
					h.Lock(cnt)
					addr := base + uint32(cnt)*8
					h.Kernel().Core().Store64(addr, h.Kernel().Core().Load64(addr)+1)
					h.Unlock(cnt)
				}
				h.Barrier()
				out := make([]uint64, counters)
				for c := 0; c < counters; c++ {
					out[c] = h.Kernel().Core().Load64(base + uint32(c)*8)
				}
				finals[idx] = out
			})
			for m := range members {
				for c := 0; c < counters; c++ {
					if finals[m][c] != tally[c] {
						t.Errorf("member %d counter %d = %d, want %d",
							m, c, finals[m][c], tally[c])
					}
				}
			}
		})
	}
}
