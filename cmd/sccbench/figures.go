package main

import (
	"fmt"

	"metalsvm/internal/bench"
	"metalsvm/internal/scc"
	"metalsvm/internal/stats"
	"metalsvm/internal/svm"
)

// results collects experiment outputs when -json is set; a nil *results
// selects the human-readable tables.
type results struct {
	Fig6     []bench.Fig6Point  `json:"fig6,omitempty"`
	Fig7     []bench.Fig7Point  `json:"fig7,omitempty"`
	Table1   *table1Results     `json:"table1,omitempty"`
	Fig9     *fig9Results       `json:"fig9,omitempty"`
	Scale    *bench.ScaleResult `json:"scale,omitempty"`
	Ablation *ablationResults   `json:"ablation,omitempty"`
	Comm     []bench.CommPoint  `json:"comm,omitempty"`
	KVStore  *kvstoreResults    `json:"kvstore,omitempty"`
}

type table1Results struct {
	Strong bench.Table1Result `json:"strong"`
	Lazy   bench.Table1Result `json:"lazy"`
}

type fig9Results struct {
	Iters  int               `json:"iters"`
	Points []bench.Fig9Point `json:"points"`
}

type ablationResults struct {
	WCBEnabledUS        float64 `json:"wcb_enabled_us"`
	WCBDisabledUS       float64 `json:"wcb_disabled_us"`
	ScratchpadMPBUS     float64 `json:"scratchpad_mpb_us"`
	ScratchpadOffDieUS  float64 `json:"scratchpad_offdie_us"`
	NextTouchRemoteUS   float64 `json:"nexttouch_remote_us"`
	NextTouchLocalUS    float64 `json:"nexttouch_local_us"`
	ReadOnlyWritableUS  float64 `json:"readonly_writable_us"`
	ReadOnlyProtectedUS float64 `json:"readonly_protected_us"`
}

// The command rows' harnesses: each prints its table, or collects its
// results under -json, and returns its verdict.

func fig6(o *options) bool {
	var points []bench.Fig6Point
	if o.topo != nil {
		points = bench.Fig6On(*o.topo, o.rounds)
	} else {
		points = bench.Fig6(o.rounds)
	}
	if o.res != nil {
		o.res.Fig6 = points
		return true
	}
	fmt.Println("Figure 6: average mail latency according to the distance")
	fmt.Println("(half round-trip, two active cores, " + fmt.Sprint(o.rounds) + " rounds)")
	t := stats.NewTable("hops", "peer core", "polling [us]", "IPI [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Hops), fmt.Sprint(p.Peer), stats.US(p.PollingUS), stats.US(p.IPIUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: both curves linear in hops with a shallow slope;")
	fmt.Println("the IPI curve sits a small constant (interrupt entry) above polling.")
	return true
}

func fig7(o *options) bool {
	var points []bench.Fig7Point
	if o.topo != nil {
		points = bench.Fig7On(*o.topo, o.rounds, nil)
	} else {
		points = bench.Fig7(o.rounds, nil)
	}
	if o.res != nil {
		o.res.Fig7 = points
		return true
	}
	peer, hops := 30, 5
	if o.topo != nil {
		peer, hops = bench.Fig7PeerOn(*o.topo)
	}
	fmt.Printf("Figure 7: average mail latency between core 0 and core %d (%d hops)\n", peer, hops)
	t := stats.NewTable("cores", "polling [us]", "IPI [us]", "IPI+noise [us]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Cores), stats.US(p.PollingUS), stats.US(p.IPIUS), stats.US(p.IPINoiseUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: polling grows linearly with the number of activated")
	fmt.Println("cores (every buffer is checked); both IPI curves stay flat and close.")
	return true
}

func table1(o *options) bool {
	s, l := bench.Table1Both()
	if o.res != nil {
		o.res.Table1 = &table1Results{Strong: s, Lazy: l}
		return true
	}
	fmt.Println("Table 1: average overhead by using the SVM system")
	t := stats.NewTable("operation", "strong [us]", "lazy release [us]", "paper strong", "paper lazy")
	t.AddRow("allocation of 4 MByte", stats.US(s.AllocUS), stats.US(l.AllocUS), "741.0", "741.0")
	t.AddRow("physical allocation of a page frame", stats.US(s.PhysAllocUS), stats.US(l.PhysAllocUS), "112.301", "112.296")
	t.AddRow("mapping of a page frame", stats.US(s.MapUS), stats.US(l.MapUS), "10.198", "2.418")
	t.AddRow("retrieve the access permission", stats.US(s.RetrieveUS), "-", "8.990", "-")
	fmt.Print(t)
	return true
}

func fig9(o *options) bool {
	cfg := bench.PaperFig9(o.iters)
	if o.topo != nil {
		cfg = bench.ScaledFig9(*o.topo, o.iters)
	}
	points := bench.Fig9(cfg)
	if o.res != nil {
		o.res.Fig9 = &fig9Results{Iters: o.iters, Points: points}
		return true
	}
	fmt.Printf("Figure 9: runtimes of the Laplace benchmark (1024x512 doubles, %d iterations)\n", o.iters)
	if o.iters != 5000 {
		fmt.Printf("(paper runs 5000 iterations; to compare absolute runtimes, add a run at -iters %d:\n"+
			" T(5000) = T(%d) + %.4g x (T(%d) - T(%d)); the L2-regime iRCCE cells carry a warm-up\n"+
			" that multiplying by %.4g would scale as well)\n",
			2*o.iters, o.iters, 5000/float64(o.iters)-1, 2*o.iters, o.iters, 5000/float64(o.iters))
	}
	t := stats.NewTable("cores", "iRCCE [ms]", "SVM strong [ms]", "SVM lazy [ms]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Cores), stats.MS(p.IRCCEUS), stats.MS(p.StrongUS), stats.MS(p.LazyUS))
	}
	fmt.Print(t)
	fmt.Println("expected shape: both SVM curves nearly identical; SVM below iRCCE up to")
	fmt.Println("32 cores (write-combine buffer); iRCCE superlinear past 32 cores (both")
	fmt.Println("array slices fit its L2, which the SVM variants sacrifice for the WCB).")
	return true
}

// scale runs the multi-chip completion harness: the Laplace solver and the
// task farm on every core of the topology (the stock chip when no -chips/
// -grid is given), with exact checksum verification.
func scale(o *options) bool {
	cfg := scc.PaperSCC()
	if o.topo != nil {
		cfg = *o.topo
	}
	return reportScale(bench.RunScale(cfg, bench.ScaleParams{Model: svm.LazyRelease}), o.res)
}

// reportScale prints one scale result (or collects it for -json) and returns
// its verdict: both checksums exact.
func reportScale(r bench.ScaleResult, res *results) bool {
	ok := r.LaplaceOK && r.FarmOK
	if res != nil {
		res.Scale = &r
		return ok
	}
	fmt.Printf("Scale-out: Laplace + task farm on all %d cores (%d chip(s), lazy release)\n",
		r.Cores, r.Chips)
	verdict := func(ok bool) string {
		if ok {
			return "exact"
		}
		return "WRONG"
	}
	t := stats.NewTable("workload", "loop [ms]", "result")
	t.AddRow("laplace (1024x512, 2 iters)", stats.MS(r.LaplaceUS), verdict(r.LaplaceOK))
	t.AddRow(fmt.Sprintf("task farm (%d tasks)", 2*r.Cores), stats.MS(r.FarmUS), verdict(r.FarmOK))
	fmt.Print(t)
	fmt.Printf("inter-chip link crossings: %d\n", r.LinkCrossings)
	if !ok {
		fmt.Println("scale: CHECKSUM MISMATCH")
	}
	return ok
}

func ablation(o *options) bool {
	with, without := bench.AblationWCB(bench.PaperFig9(o.iters), 8)
	mpb, offDie := bench.AblationScratchpad(256)
	remote, local := bench.AblationNextTouch(16, 8)
	writable, readonly := bench.AblationReadOnlyL2(16, 8)
	if o.res != nil {
		o.res.Ablation = &ablationResults{
			WCBEnabledUS:        with,
			WCBDisabledUS:       without,
			ScratchpadMPBUS:     mpb,
			ScratchpadOffDieUS:  offDie,
			NextTouchRemoteUS:   remote,
			NextTouchLocalUS:    local,
			ReadOnlyWritableUS:  writable,
			ReadOnlyProtectedUS: readonly,
		}
		return true
	}
	fmt.Println("Ablation: write-combine buffer (lazy release, 8 cores)")
	t := stats.NewTable("configuration", "laplace loop [ms]")
	t.AddRow("WCB enabled (MetalSVM)", stats.MS(with))
	t.AddRow("WCB disabled (plain write-through)", stats.MS(without))
	fmt.Print(t)

	fmt.Println("\nAblation: first-touch directory location (Section 6.3)")
	t = stats.NewTable("scratchpad location", "map existing page [us]")
	t.AddRow("on-die MPB (16-bit entries, 256 MiB cap)", stats.US(mpb))
	t.AddRow("off-die DDR (no cap, slower lookups)", stats.US(offDie))
	fmt.Print(t)

	fmt.Println("\nAblation: affinity-on-next-touch (Section 8 outlook)")
	t = stats.NewTable("frame placement", "cold scan of 16 pages [us]")
	t.AddRow("remote controller (as first-touched)", stats.US(remote))
	t.AddRow("local controller (after next-touch)", stats.US(local))
	fmt.Print(t)

	fmt.Println("\nAblation: read-only regions re-enable the L2 (Section 6.4)")
	t = stats.NewTable("region state", "scan of 16 pages [us]")
	t.AddRow("writable (MPBT: L1 only)", stats.US(writable))
	t.AddRow("read-only (MPBT cleared: L2 enabled)", stats.US(readonly))
	fmt.Print(t)

	fmt.Println("\nAblation: mailbox IPI vs polling -> see fig6/fig7")
	return true
}

func comm(o *options) bool {
	points := bench.CommSweep(30, nil, o.rounds/4+1)
	if o.res != nil {
		o.res.Comm = points
		return true
	}
	fmt.Println("Supplementary: RCCE transfer path, core 0 -> core 30 (5 hops)")
	t := stats.NewTable("bytes", "latency [us]", "bandwidth [MB/s]")
	for _, p := range points {
		t.AddRow(fmt.Sprint(p.Bytes), stats.US(p.LatencyUS), fmt.Sprintf("%.1f", p.MBPerSec))
	}
	fmt.Print(t)
	fmt.Println("expected shape: flat latency until the staging slot fills, then")
	fmt.Println("linear in size; bandwidth saturates at the MPB pull path's rate.")
	return true
}
