package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"metalsvm/internal/core"
	"metalsvm/internal/profile"
)

// metricDef names one metric and its unit, as BENCHMARK.json lists them.
type metricDef struct{ name, unit string }

// simCounters are the simulated counts the traced pass reports, by the
// names of the metrics snapshot. They are exact: a change in any of them
// predicts a change in sim.measured_us on the same workload.
var simCounters = []string{
	"cpu.loads", "cpu.stores", "cpu.tlb_misses",
	"cache.l1.hits", "cache.l1.misses", "cache.l2.hits", "cache.l2.misses", "wcb.flushes",
	"mesh.ddr_reads", "mesh.ddr_writes", "mesh.mpb_accesses", "mesh.tas_accesses",
	"mailbox.sends", "mailbox.checks", "mailbox.retransmits",
	"kernel.timer_ticks", "kernel.barriers", "kernel.rescues",
	"svm.faults", "svm.first_touches", "svm.owner_requests", "svm.lock_waits",
	"dir.commits", "dir.view_changes", "faults.injected", "faults.crashes",
}

// simProducts are the simulated results single workloads report beyond
// sim.measured_us (outcome.sim); they are zero on the workloads that have
// none.
var simProducts = []metricDef{
	{"mailbox.polling_us", "us"}, {"mailbox.ipi_us", "us"}, {"mailbox.ipi_noise_us", "us"},
	{"kvstore.put_p50_ns", "ns"}, {"kvstore.put_p99_ns", "ns"}, {"kvstore.get_p99_ns", "ns"},
	{"kvstore.goodput_per_sim_s", "1/s"}, {"kvstore.min_window_goodput", "count"},
	{"kvstore.issued", "count"}, {"kvstore.failed_share", "ratio"},
	{"interchip.link_crossings", "count"},
}

// perUnit are the "host cost per simulated unit" metrics; each workload
// reports the one it names (kv_crash also the per-commit one).
var perUnit = []string{
	"cpu.host_ns_per_access", "svm.host_ns_per_transfer", "mailbox.host_ns_per_mail",
	"kvstore.host_ns_per_request", "repldir.host_ns_per_commit", "core.host_ns_per_core",
}

// shareName is the metric a profiler bucket's share of simulated time is
// reported under.
func shareName(b profile.Bucket) string {
	return "profile." + strings.ReplaceAll(b.String(), "-", "_") + "_share"
}

// perLayerDefs lists every per-layer metric a traced run prints.
func perLayerDefs() []metricDef {
	defs := append([]metricDef{{"sim.measured_us", "us"}}, simProducts...)
	for _, b := range microbenches() {
		defs = append(defs, metricDef{b.metric, "ns"})
	}
	for _, l := range hostLayers {
		defs = append(defs, metricDef{"host." + l + "_s", "s"})
	}
	defs = append(defs, metricDef{"host.profile_total_s", "s"},
		metricDef{"host.trial_cpu_s", "s"}, metricDef{"host.peak_rss_mb", "MB"})
	for _, c := range simCounters {
		defs = append(defs, metricDef{c, "count"})
	}
	for b := profile.Bucket(0); b < profile.NumBuckets; b++ {
		defs = append(defs, metricDef{shareName(b), "ratio"})
	}
	defs = append(defs,
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.sim_identical", "count"},
		metricDef{"sim.intra_wall_ratio", "ratio"},
	)
	for _, u := range perUnit {
		defs = append(defs, metricDef{u, "ns"})
	}
	return defs
}

// plainTrials is how many untraced trials a traced run times for the base
// of its ratios and per-unit costs.
const plainTrials = 2

// microShare is the part of --seconds the layer microbenchmarks may use.
const microShare = 0.3

// tracedRun produces the per-layer metrics: untraced trials for the base,
// one trial under the CPU profiler (host seconds by layer), one pass with
// the simulator's metrics and cycle profiler attached (simulated counts
// and shares, and what attaching them costs), and the layer
// microbenchmarks. Every metric is present; those that do not apply to the
// workload are zero.
func tracedRun(w *workload, o options, rec *recorder, t *tally, h *header) map[string]metric {
	vals := map[string]float64{}

	for i := 0; i < plainTrials; i++ {
		end := rec.begin("timed trial")
		out, c := timeTrial(w.trial)
		end()
		t.add(out)
		h.Costs = append(h.Costs, c)
	}
	wall := medianOf(h.Costs, func(c cost) float64 { return c.WallS })
	vals["host.trial_cpu_s"] = medianOf(h.Costs, func(c cost) float64 { return c.CPUS })
	// Read before the passes below add their own memory. The mark depends
	// on when the collector happens to run (scale_256 lands on either
	// ~190 or ~270 MB), which is why it is not an end-to-end metric.
	vals["host.peak_rss_mb"] = peakRSSMB()
	vals["sim.measured_us"] = t.first.simUS
	for _, d := range simProducts {
		vals[d.name] = t.first.sim[d.name]
	}

	// Host seconds by layer: the plain trial again, sampled.
	end := rec.begin("cpu-profiled trial")
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.errors = append(t.errors, "cpu profile: "+err.Error())
	} else {
		out := w.trial()
		pprof.StopCPUProfile()
		t.add(out)
		endFold := rec.begin("fold profile")
		byLayer, total, err := foldProfile(prof.Bytes(), layerOf)
		endFold()
		if err != nil {
			t.errors = append(t.errors, err.Error())
		}
		for _, l := range hostLayers {
			vals["host."+l+"_s"] = byLayer[l]
		}
		vals["host.profile_total_s"] = total
	}
	end()

	// The simulator's own instrumentation: first detached, for the wall
	// time the attached pass is compared with.
	end = rec.begin("observed pass, instrumentation off")
	runtime.GC()
	start := time.Now()
	plainUS, _ := w.observed(core.Instrumentation{})
	plainWall := time.Since(start).Seconds()
	end()

	end = rec.begin("observed pass, metrics and cycle profiler on")
	runtime.GC()
	start = time.Now()
	obsUS, observations := w.observed(core.Instrumentation{Metrics: true, Profile: &profile.Config{SpanCapacity: -1}})
	obsWall := time.Since(start).Seconds()
	end()

	vals["trace.overhead_ratio"] = obsWall / plainWall
	want := t.first.observedUS
	t.check(plainUS == want, "observed pass with instrumentation off simulated %v µs, the plain trial %v µs", plainUS, want)
	t.check(obsUS == want, "instrumented pass simulated %v µs, the plain trial %v µs", obsUS, want)
	if obsUS == want {
		vals["trace.sim_identical"] = 1
	}

	end = rec.begin("harvest")
	count := func(name string) uint64 {
		var n uint64
		for _, obs := range observations {
			n += obs.MetricsSnapshot().Counter(name)
		}
		return n
	}
	for _, c := range simCounters {
		vals[c] = float64(count(c))
	}
	var agg profile.CoreReport
	for _, obs := range observations {
		a := obs.ProfileReport().Aggregate()
		agg.Total += a.Total
		for b := range a.Buckets {
			agg.Buckets[b] += a.Buckets[b]
		}
	}
	for b := profile.Bucket(0); b < profile.NumBuckets && agg.Total > 0; b++ {
		vals[shareName(b)] = float64(agg.Buckets[b]) / float64(agg.Total)
	}
	if n := w.units(t.first, count); n > 0 {
		vals[w.unit] = wall * 1e9 / float64(n)
	}
	if n := count("dir.commits"); n > 0 {
		vals["repldir.host_ns_per_commit"] = wall * 1e9 / float64(n)
	}
	end()

	if w.intra != nil {
		end := rec.begin("trial under wave dispatch")
		out, c := timeTrial(func() outcome { return w.intra(runtime.GOMAXPROCS(0)) })
		end()
		t.add(out)
		vals["sim.intra_wall_ratio"] = c.WallS / wall
	}

	benches := microbenches()
	perRep := time.Duration(o.seconds * microShare / float64(len(benches)*microReps) * float64(time.Second))
	for _, b := range benches {
		end := rec.begin(b.metric)
		vals[b.metric] = measureMicro(b, perRep)
		end()
	}

	if err := rec.write(filepath.Join(o.outDir, w.name+".trace.json")); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: spans not written:", err)
	}

	metrics := map[string]metric{}
	for _, d := range perLayerDefs() {
		metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return metrics
}
