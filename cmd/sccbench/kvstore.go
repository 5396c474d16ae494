package main

import (
	"fmt"
	"strings"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
)

// kvSchedules is the SLO sweep: the same seeded workload under no faults
// and under each chaos schedule the robustness machinery is built for.
var kvSchedules = []string{"none", "crash", "drops", "partition"}

// kvScheduleResult is one schedule row of the kvstore SLO report.
type kvScheduleResult struct {
	Schedule string   `json:"schedule"`
	Chips    int      `json:"chips"`
	Cores    int      `json:"cores"`
	OK       bool     `json:"ok"`
	Err      string   `json:"err,omitempty"`
	Issued   uint64   `json:"issued"`
	Applied  uint64   `json:"applied"`
	Shed     uint64   `json:"shed"`
	Expired  uint64   `json:"expired"`
	Retries  uint64   `json:"retries"`
	Failover uint64   `json:"failovers"`
	Hedged   uint64   `json:"hedged"`
	Crashes  uint64   `json:"crashes"`
	PartDrop uint64   `json:"partition_drops"`
	Injected uint64   `json:"injected"`
	EndUS    float64  `json:"end_us"`
	PutP50NS uint64   `json:"put_p50_ns"`
	PutP99NS uint64   `json:"put_p99_ns"`
	PutP999  uint64   `json:"put_p999_ns"`
	GetP50NS uint64   `json:"get_p50_ns"`
	GetP99NS uint64   `json:"get_p99_ns"`
	HotP50NS uint64   `json:"hot_p50_ns"`
	HotP99NS uint64   `json:"hot_p99_ns"`
	Goodput  []uint64 `json:"goodput_windows"`
	Faults   any      `json:"faults,omitempty"`
}

// kvstoreResults is the -json payload of the kvstore command.
type kvstoreResults struct {
	Requests  int                `json:"requests"`
	Seed      uint64             `json:"seed"`
	WindowUS  float64            `json:"window_us"`
	Schedules []kvScheduleResult `json:"schedules"`
}

// kvTopology picks the machine for a schedule: the caller's -chips/-grid
// when given, otherwise a 16-core chip — except the partition schedule,
// which needs an inter-chip link to cut and so always gets at least two
// chips.
func kvTopology(topo *scc.Config, schedule string) scc.Config {
	if topo != nil {
		t := topo.Normalized()
		if schedule != "partition" || t.Chips > 1 {
			return t
		}
	}
	if schedule == "partition" {
		return scc.MultiChip(2, scc.Grid(2, 2, 2))
	}
	return scc.Grid(4, 4, 1)
}

// kvFits checks that topo's machine has an SVM worker for each kvstore
// server plus a client: every core is a worker, except each chip's
// directory manager group when withDir runs the replicated directory.
func kvFits(topo scc.Config, withDir bool) error {
	workers := core.AllCores(topo)
	if withDir {
		var err error
		if workers, err = core.DirectoryWorkers(topo); err != nil {
			return err
		}
	}
	return kvstore.FitsWorkers(len(workers))
}

// kvPlan lays out the kvstore command's SLO report: one seeded request load
// under every schedule of kvSchedules, each row an exactly-once audit with
// live goodput, its latency quantiles and its goodput curve, between a
// header and a footer cell. A machine too small for any schedule (kvFits)
// is a usage error.
func kvPlan(o *options) ([]cell, error) {
	p := kvstore.DefaultParams()
	p.Requests, p.Seed = o.kvRequests, o.kvSeed
	out := kvstoreResults{Requests: p.Requests, Seed: p.Seed, WindowUS: kvstore.WindowUS}
	cells := []cell{{report: func() bool {
		if o.res == nil {
			fmt.Printf("kvstore: %d requests, seed %d (p50/p99/p999 in simulated ns)\n", p.Requests, p.Seed)
			fmt.Printf("  %-10s %7s %7s %7s %5s | %22s | %18s | %s\n",
				"schedule", "applied", "shed", "expired", "fails",
				"put p50/p99/p999", "get p50/p99", "min goodput/window")
		}
		return true
	}}}
	for _, schedule := range kvSchedules {
		var fc *faults.Config
		spec, preset := faults.PresetSpec(schedule) // "none" is no preset
		if preset {
			fc = &faults.Config{Seed: p.Seed, Spec: spec}
		}
		topo, withDir := kvTopology(o.topo, schedule), len(spec.Crashes) > 0
		if err := kvFits(topo, withDir); err != nil {
			return nil, fmt.Errorf("the %s schedule: %v", schedule, err)
		}
		var r bench.KVReport
		cells = append(cells, cell{
			func() { r, _ = bench.KVCell(p, topo, withDir, fc, core.Instrumentation{}) },
			func() bool {
				row := kvRow(schedule, topo, p, r)
				out.Schedules = append(out.Schedules, row)
				if o.res == nil {
					kvPrintRow(row, r)
				}
				return row.OK
			}})
	}
	return append(cells, cell{report: func() bool {
		ok := reportKVStore(out, o.res)
		return (o.res == nil || printJSON(o.res)) && ok
	}}), nil
}

// reportKVStore closes the kvstore report (or collects it for -json) and
// returns its verdict: every schedule row passed its acceptance checks.
func reportKVStore(out kvstoreResults, res *results) bool {
	ok := true
	for _, row := range out.Schedules {
		ok = ok && row.OK
	}
	if res != nil {
		res.KVStore = &out
	} else if ok {
		fmt.Println("kvstore: all schedules audited exactly-once with live goodput in every window")
	}
	return ok
}

// kvRow folds one report into a schedule row, running the acceptance
// checks: completion, exact audit, complete outcome taxonomy, and goodput
// above zero in every reporting window.
func kvRow(schedule string, t scc.Config, p kvstore.Params, r bench.KVReport) kvScheduleResult {
	norm := t.Normalized()
	row := kvScheduleResult{
		Schedule: schedule,
		Chips:    norm.Chips,
		Cores:    norm.Mesh.Width * norm.Mesh.Height * norm.Mesh.CoresPerTile * norm.Chips,
		Issued:   r.KV.Issued,
		Applied:  r.KV.Applied,
		Shed:     r.KV.Shed,
		Expired:  r.KV.Expired,
		Retries:  r.KV.Retries,
		Failover: r.KV.Failovers,
		Hedged:   r.KV.Hedged,
		Crashes:  r.Faults.Crashes,
		PartDrop: r.Faults.PartitionDrops,
		Injected: r.Faults.Injected(),
		EndUS:    r.EndUS,
		PutP50NS: r.KV.LatPut.Quantile(0.5),
		PutP99NS: r.KV.LatPut.Quantile(0.99),
		PutP999:  r.KV.LatPut.Quantile(0.999),
		GetP50NS: r.KV.LatGet.Quantile(0.5),
		GetP99NS: r.KV.LatGet.Quantile(0.99),
		HotP50NS: r.KV.LatHot.Quantile(0.5),
		HotP99NS: r.KV.LatHot.Quantile(0.99),
		Goodput:  r.KV.GoodputWindows,
	}
	if len(r.Faults.PerRoute()) > 0 {
		row.Faults = r.Faults.PerRoute()
	}
	switch {
	case !r.Completed:
		row.Err = "run froze: " + r.Watchdog
	case !r.KV.AuditOK:
		row.Err = "audit failed: " + strings.Join(r.KV.AuditErrors, "; ")
	case r.KV.Issued != r.KV.Applied+r.KV.Shed+r.KV.Expired:
		row.Err = "outcome taxonomy leak"
	case r.MinGoodput() == 0:
		row.Err = fmt.Sprintf("a goodput window stalled: %v", r.KV.GoodputWindows)
	case schedule != "none" && r.Faults.Injected() == 0:
		row.Err = "schedule injected no faults"
	case schedule == "partition" && r.Faults.PartitionDrops == 0:
		row.Err = "partition window dropped nothing"
	}
	row.OK = row.Err == ""
	return row
}

// kvPrintRow prints one schedule row plus its goodput curve.
func kvPrintRow(row kvScheduleResult, r bench.KVReport) {
	if !row.OK {
		fmt.Printf("  %-10s FAILED: %s\n", row.Schedule, row.Err)
		return
	}
	fmt.Printf("  %-10s %7d %7d %7d %5d | %6d/%6d/%7d | %6d/%9d | %d\n",
		row.Schedule, row.Applied, row.Shed, row.Expired, row.Failover,
		row.PutP50NS, row.PutP99NS, row.PutP999,
		row.GetP50NS, row.GetP99NS, r.MinGoodput())
	fmt.Printf("  %-10s goodput/window: %s\n", "", kvSeries(row.Goodput))
}

// kvSeries renders a goodput curve compactly (every window, bucketed into
// lines of 20).
func kvSeries(w []uint64) string {
	var b strings.Builder
	for i, n := range w {
		if i > 0 {
			if i%20 == 0 {
				b.WriteString("\n             ")
			} else {
				b.WriteByte(' ')
			}
		}
		fmt.Fprintf(&b, "%d", n)
	}
	return b.String()
}
