package core

import (
	"fmt"

	"metalsvm/internal/kernel"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// Domains realizes the coherency-domain partitioning from the paper's
// introduction: the chip's computing resources split into several
// independent Machines, each with its own MetalSVM kernel set and its own
// SVM system over a private slice of the shared memory. Mailbox slots are
// keyed by (sender, receiver) pairs and the SVM metadata lives in each
// domain's own frame slice, so the domains share nothing but the silicon
// and its one engine. Run them together with RunAll, never one by one.
type Domains struct {
	// Machines holds domain d's machine at index d.
	Machines []*Machine

	obs *Observation
}

// Observability returns the chip-wide observation covering every domain
// (nil when NewDomains' instrumentation requested nothing). One race
// checker serves all domains: their core sets and page ranges are disjoint,
// so cross-domain conflicts cannot arise, and sync objects are keyed per
// SVM system.
func (ds *Domains) Observability() *Observation { return ds.obs }

// DomainSpec describes one coherency domain.
type DomainSpec struct {
	// Members are the domain's cores (sorted, distinct; domains must be
	// pairwise disjoint).
	Members []int
	// SVM overrides the SVM configuration. Page ranges are assigned by
	// NewDomains (an explicit PageLo/PageHi here is rejected — the split
	// must partition).
	SVM *svm.Config
}

// NewDomains builds one chip of topo (nil: the paper's chip) carrying
// len(specs) independent MetalSVM machines, observed together as inst asks.
// The shared region is split into equal contiguous page ranges, one per
// domain.
func NewDomains(topo *scc.Config, inst Instrumentation, specs []DomainSpec) (*Domains, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no domains")
	}
	owner := make(map[int]int)
	for d, spec := range specs {
		if len(spec.Members) == 0 {
			return nil, fmt.Errorf("core: domain %d has no members", d)
		}
		for _, m := range spec.Members {
			if prev, dup := owner[m]; dup {
				return nil, fmt.Errorf("core: core %d in domains %d and %d", m, prev, d)
			}
			owner[m] = d
		}
	}
	chip, err := newPlatform(topo)
	if err != nil {
		return nil, err
	}
	perDomain := chip.Layout().SharedFrames() / uint32(len(specs))
	if perDomain == 0 {
		return nil, fmt.Errorf("core: shared region too small for %d domains", len(specs))
	}
	ds := &Domains{}
	var clusters []*kernel.Cluster
	var systems []*svm.System
	for d, spec := range specs {
		scfg := svm.DefaultConfig(svm.Strong)
		if spec.SVM != nil {
			scfg = *spec.SVM
		}
		if scfg.PageLo != 0 || scfg.PageHi != 0 {
			return nil, fmt.Errorf("core: domain %d sets an explicit page range", d)
		}
		scfg.PageLo = uint32(d) * perDomain
		scfg.PageHi = uint32(d+1) * perDomain
		if scfg.PageLo == 0 {
			scfg.PageLo = 1 // frame 0 is the directory's "unallocated" mark
		}
		m, err := assemble(chip, Options{Members: spec.Members, SVM: &scfg})
		if err != nil {
			return nil, fmt.Errorf("core: domain %d: %w", d, err)
		}
		ds.Machines = append(ds.Machines, m)
		clusters = append(clusters, m.Cluster)
		systems = append(systems, m.SVM)
	}
	ds.obs = Observe(inst, chip, clusters, systems)
	for _, m := range ds.Machines {
		m.observe(ds.obs)
	}
	return ds, nil
}

// RunAll runs main on every member of every domain, passing the member's
// domain index, and drives the one shared simulation to completion.
func (ds *Domains) RunAll(main func(domain int, env *Env)) sim.Time {
	for d, m := range ds.Machines {
		m.start(m.workerMains(func(env *Env) { main(d, env) }))
	}
	return run(ds.Machines[0].Engine, ds.obs)
}
