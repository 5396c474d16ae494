// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (Section 7), plus the ablation studies. Each iteration
// runs the full simulated experiment; the reported custom metrics are
// simulated microseconds (the quantity the paper plots), while ns/op is
// host time for the simulation itself.
//
//	go test -bench=. -benchmem
package metalsvm

import (
	"testing"

	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/svm"
)

// --- Figure 6: mail latency vs mesh distance -----------------------------

func benchmarkPingDistance(b *testing.B, hops int) {
	var last []bench.Fig6Point
	for i := 0; i < b.N; i++ {
		last = bench.Fig6(50)
	}
	for _, p := range last {
		if p.Hops == hops {
			b.ReportMetric(p.PollingUS, "polling_us")
			b.ReportMetric(p.IPIUS, "ipi_us")
		}
	}
}

func BenchmarkFig6PingPongHops0(b *testing.B) { benchmarkPingDistance(b, 0) }
func BenchmarkFig6PingPongHops4(b *testing.B) { benchmarkPingDistance(b, 4) }
func BenchmarkFig6PingPongHops8(b *testing.B) { benchmarkPingDistance(b, 8) }

// --- Figure 7: mail latency vs activated cores ----------------------------

func benchmarkFig7(b *testing.B, cores int) {
	var last []bench.Fig7Point
	for i := 0; i < b.N; i++ {
		last = bench.Fig7(50, []int{cores})
	}
	p := last[0]
	b.ReportMetric(p.PollingUS, "polling_us")
	b.ReportMetric(p.IPIUS, "ipi_us")
	b.ReportMetric(p.IPINoiseUS, "ipi_noise_us")
}

func BenchmarkFig7ActiveCores2(b *testing.B)  { benchmarkFig7(b, 2) }
func BenchmarkFig7ActiveCores16(b *testing.B) { benchmarkFig7(b, 16) }
func BenchmarkFig7ActiveCores48(b *testing.B) { benchmarkFig7(b, 48) }

// --- Table 1: SVM overheads ----------------------------------------------

func BenchmarkTable1Strong(b *testing.B) {
	var r bench.Table1Result
	for i := 0; i < b.N; i++ {
		r, _ = bench.Table1(svm.Strong, core.Instrumentation{})
	}
	b.ReportMetric(r.AllocUS, "alloc4MiB_us")
	b.ReportMetric(r.PhysAllocUS, "physalloc_us")
	b.ReportMetric(r.MapUS, "map_us")
	b.ReportMetric(r.RetrieveUS, "retrieve_us")
}

func BenchmarkTable1Lazy(b *testing.B) {
	var r bench.Table1Result
	for i := 0; i < b.N; i++ {
		r, _ = bench.Table1(svm.LazyRelease, core.Instrumentation{})
	}
	b.ReportMetric(r.AllocUS, "alloc4MiB_us")
	b.ReportMetric(r.PhysAllocUS, "physalloc_us")
	b.ReportMetric(r.MapUS, "map_us")
}

// --- Figure 9: Laplace runtimes -------------------------------------------

// benchIters keeps bench runs quick; past a one-time warm-up the
// per-iteration cost is constant, so the figure's crossovers are
// independent of this value.
const benchIters = 5

func benchmarkLaplace(b *testing.B, variant string, cores int) {
	cfg := bench.PaperFig9(benchIters)
	var us float64
	svmUS := func(model svm.Model) float64 {
		r, _ := bench.Fig9Cell(cfg, model, core.Options{Members: core.FirstN(cores)})
		return r.US
	}
	for i := 0; i < b.N; i++ {
		switch variant {
		case "ircce":
			us = bench.Fig9RunBaseline(cfg, cores)
		case "strong":
			us = svmUS(svm.Strong)
		case "lazy":
			us = svmUS(svm.LazyRelease)
		}
	}
	b.ReportMetric(us, "simulated_us")
	b.ReportMetric(us/float64(benchIters), "us_per_iter")
}

func BenchmarkFig9LaplaceIRCCE4(b *testing.B)   { benchmarkLaplace(b, "ircce", 4) }
func BenchmarkFig9LaplaceStrong4(b *testing.B)  { benchmarkLaplace(b, "strong", 4) }
func BenchmarkFig9LaplaceLazy4(b *testing.B)    { benchmarkLaplace(b, "lazy", 4) }
func BenchmarkFig9LaplaceIRCCE48(b *testing.B)  { benchmarkLaplace(b, "ircce", 48) }
func BenchmarkFig9LaplaceStrong48(b *testing.B) { benchmarkLaplace(b, "strong", 48) }
func BenchmarkFig9LaplaceLazy48(b *testing.B)   { benchmarkLaplace(b, "lazy", 48) }

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationWCB(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, without = bench.AblationWCB(benchIters, 8)
	}
	b.ReportMetric(with, "wcb_on_us")
	b.ReportMetric(without, "wcb_off_us")
}

func BenchmarkAblationScratchpadLocation(b *testing.B) {
	var mpb, offDie float64
	for i := 0; i < b.N; i++ {
		mpb, offDie = bench.AblationScratchpad(128)
	}
	b.ReportMetric(mpb, "mpb_us")
	b.ReportMetric(offDie, "offdie_us")
}

func BenchmarkAblationReadOnlyL2(b *testing.B) {
	var writable, readonly float64
	for i := 0; i < b.N; i++ {
		writable, readonly = bench.AblationReadOnlyL2(16, 4)
	}
	b.ReportMetric(writable, "writable_us")
	b.ReportMetric(readonly, "readonly_us")
}

func BenchmarkAblationMatmulReadOnly(b *testing.B) {
	var writable, protected float64
	for i := 0; i < b.N; i++ {
		writable, protected = bench.AblationMatmulReadOnly(48, 4)
	}
	b.ReportMetric(writable, "writable_us")
	b.ReportMetric(protected, "readonly_us")
}

func BenchmarkAblationNextTouch(b *testing.B) {
	var remote, local float64
	for i := 0; i < b.N; i++ {
		remote, local = bench.AblationNextTouch(16, 4)
	}
	b.ReportMetric(remote, "remote_us")
	b.ReportMetric(local, "local_us")
}

// BenchmarkAblationMailboxIPI quantifies the IPI-vs-polling decision at the
// paper's measuring pair with 48 active cores (the regime the event-driven
// design was built for).
func BenchmarkAblationMailboxIPI(b *testing.B) {
	var pts []bench.Fig7Point
	for i := 0; i < b.N; i++ {
		pts = bench.Fig7(50, []int{48})
	}
	b.ReportMetric(pts[0].PollingUS, "polling48_us")
	b.ReportMetric(pts[0].IPIUS, "ipi48_us")
}

// Guard: the module must expose the documented facade.
var _ = func() bool {
	var _ Model = Strong
	var _ Model = LazyRelease
	var _ = mailbox.ModeIPI
	return true
}()
