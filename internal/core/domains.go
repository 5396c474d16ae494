package core

import (
	"fmt"

	"metalsvm/internal/kernel"
	"metalsvm/internal/racecheck"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
	"metalsvm/internal/svm"
)

// Domains realizes the coherency-domain partitioning from the paper's
// introduction: the chip's computing resources split into several
// independent clusters, each with its own MetalSVM kernel set and its own
// SVM system over a private slice of the shared memory. Mailbox slots are
// keyed by (sender, receiver) pairs and the SVM metadata lives in each
// domain's own frame slice, so the domains share nothing but the silicon.
type Domains struct {
	Engine *sim.Engine
	Chip   *scc.Chip
	// Race is the chip-wide happens-before checker, non-nil after Observe
	// with Instrumentation.Race set. One checker covers all domains: their
	// core sets and page ranges are disjoint, so cross-domain conflicts
	// cannot arise, and sync objects are keyed per SVM system.
	Race *racecheck.Checker

	clusters []*kernel.Cluster
	systems  []*svm.System

	obs     *Observation
	started bool
}

// Observe wires instrumentation covering every domain. It must be called
// before Run, at most once; the observation (also available later through
// Observability) is returned.
func (ds *Domains) Observe(cfg Instrumentation) *Observation {
	if ds.started {
		panic("core: Observe after Run")
	}
	if ds.obs != nil {
		panic("core: Observe called twice")
	}
	ds.obs = Observe(cfg, ds.Chip, ds.clusters, ds.systems)
	if r := ds.obs.Race(); r != nil {
		ds.Race = r
	}
	return ds.obs
}

// Observability returns the domains' observation (nil when Observe was not
// called or requested nothing).
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

// NewDomains builds one chip carrying len(specs) independent MetalSVM
// instances. The shared region is split into equal contiguous page ranges,
// one per domain.
func NewDomains(chipCfg *scc.Config, specs []DomainSpec) (*Domains, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no domains")
	}
	eng := sim.NewEngine()
	ccfg := scc.DefaultConfig()
	if chipCfg != nil {
		ccfg = *chipCfg
	}
	chip, err := scc.New(eng, ccfg)
	if err != nil {
		return nil, err
	}
	// Disjointness check across domains.
	owner := make(map[int]int)
	for d, spec := range specs {
		for _, m := range spec.Members {
			if prev, dup := owner[m]; dup {
				return nil, fmt.Errorf("core: core %d in domains %d and %d", m, prev, d)
			}
			owner[m] = d
		}
	}
	totalPages := chip.Layout().SharedFrames()
	perDomain := totalPages / uint32(len(specs))
	if perDomain == 0 {
		return nil, fmt.Errorf("core: shared region too small for %d domains", len(specs))
	}
	ds := &Domains{Engine: eng, Chip: chip}
	for d, spec := range specs {
		cl, err := kernel.NewCluster(chip, kernel.DefaultConfig(), spec.Members)
		if err != nil {
			return nil, fmt.Errorf("core: domain %d: %w", d, err)
		}
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
		sys, err := svm.New(cl, scfg)
		if err != nil {
			return nil, fmt.Errorf("core: domain %d: %w", d, err)
		}
		ds.clusters = append(ds.clusters, cl)
		ds.systems = append(ds.systems, sys)
	}
	return ds, nil
}

// Count returns the number of domains.
func (ds *Domains) Count() int { return len(ds.clusters) }

// Cluster returns domain d's kernel cluster.
func (ds *Domains) Cluster(d int) *kernel.Cluster { return ds.clusters[d] }

// SVM returns domain d's SVM system.
func (ds *Domains) SVM(d int) *svm.System { return ds.systems[d] }

// Run boots every domain member with mains[domain][core] and drives the
// single shared simulation to completion.
func (ds *Domains) Run(mains []map[int]func(*Env)) sim.Time {
	if ds.started {
		panic("core: domains already run")
	}
	ds.started = true
	if len(mains) != len(ds.clusters) {
		panic(fmt.Sprintf("core: %d main sets for %d domains", len(mains), len(ds.clusters)))
	}
	for d, cl := range ds.clusters {
		sys := ds.systems[d]
		for _, id := range cl.Members() {
			main := mains[d][id]
			if main == nil {
				panic(fmt.Sprintf("core: domain %d: no main for member %d", d, id))
			}
			cl.Start(id, func(k *kernel.Kernel) {
				main(&Env{K: k, SVM: sys.Attach(k)})
			})
		}
	}
	end := ds.Engine.Run()
	ds.Engine.Shutdown()
	ds.obs.Finish()
	return end
}

// RunAll runs the same main on every member of every domain.
func (ds *Domains) RunAll(main func(domain int, env *Env)) sim.Time {
	mains := make([]map[int]func(*Env), len(ds.clusters))
	for d, cl := range ds.clusters {
		d := d
		mains[d] = make(map[int]func(*Env))
		for _, id := range cl.Members() {
			mains[d][id] = func(env *Env) { main(d, env) }
		}
	}
	return ds.Run(mains)
}
