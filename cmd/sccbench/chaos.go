package main

import (
	"fmt"
	"os"
	"strings"

	"metalsvm/internal/apps/kvstore"
	"metalsvm/internal/apps/laplace"
	"metalsvm/internal/apps/matmul"
	"metalsvm/internal/bench"
	"metalsvm/internal/core"
	"metalsvm/internal/faults"
	"metalsvm/internal/scc"
	"metalsvm/internal/svm"
)

// chaosDumpFile receives the diagnostic dump when a chaos cell fails.
const chaosDumpFile = "chaos-dump.txt"

// chaosCellJSON is one cell of the -chaos -json summary. Faults carries the
// per-route injection counts (drops, dups, delays, corruptions keyed by
// route name), so a schedule's footprint is visible per cell.
type chaosCellJSON struct {
	Name           string                       `json:"name"`
	OK             bool                         `json:"ok"`
	Err            string                       `json:"err,omitempty"`
	US             float64                      `json:"us,omitempty"`
	Injected       uint64                       `json:"injected,omitempty"`
	Crashes        uint64                       `json:"crashes,omitempty"`
	PartitionDrops uint64                       `json:"partition_drops,omitempty"`
	Faults         map[string]faults.RouteStats `json:"faults,omitempty"`
}

// chaosJSON is the -chaos -json payload.
type chaosJSON struct {
	Seed     uint64          `json:"seed"`
	Schedule string          `json:"schedule"`
	OK       bool            `json:"ok"`
	Cells    []chaosCellJSON `json:"cells"`
}

// runChaos is the chaos harness: it reruns representative cells of the
// evaluation under a deterministic fault schedule and verifies that the
// hardened protocols recover — the measurements complete, the applications
// compute bit-exact results, the recovery counters show the faults were
// real, and an identical seed replays bit-identically. On failure it writes
// the diagnostic dump to chaos-dump.txt and returns a nonzero exit code.
// A -chips/-grid machine runs the application cells with a small
// chip-spanning member set (see smokeMembers), putting the inter-chip link
// under the same fault schedule; the single-chip mail cells are skipped
// there, and the crash suite uses the topology's default worker split.
// -json replaces the table with a machine-readable summary that carries
// each cell's per-route fault counts.
func runChaos(o *options) int {
	schedule := chaosSpecName(o.chaos)
	fc, err := faults.ParseConfig(o.chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v (presets: %s)\n", err, strings.Join(faults.Presets(), ", "))
		return 2
	}
	summary := chaosJSON{Seed: fc.Seed, Schedule: schedule, OK: true}
	say := func(format string, args ...any) {
		if !o.json {
			fmt.Printf(format, args...)
		}
	}
	say("chaos: seed %d, schedule %q\n", fc.Seed, schedule)
	appChip := bench.ShrunkChip(scc.PaperSCC())
	members := core.FirstN(4)
	dirWorkers := core.FirstN(4)
	if o.topo != nil {
		appChip = bench.ShrunkChip(*o.topo)
		members = smokeMembers(*o.topo)
		dirWorkers = nil // the default split: all cores minus each chip's manager trio
		say("chaos: %d chip(s), %d cores\n", appChip.Chips, len(members))
	}

	var dump strings.Builder
	ok := true
	record := func(cell chaosCellJSON) {
		summary.Cells = append(summary.Cells, cell)
		summary.OK = summary.OK && cell.OK
	}
	fail := func(name, format string, args ...any) {
		ok = false
		msg := fmt.Sprintf(format, args...)
		say("  %-16s FAILED: %s\n", name, msg)
		fmt.Fprintf(&dump, "=== %s: %s\n", name, msg)
		record(chaosCellJSON{Name: name, Err: msg})
	}
	passStats := func(name string, us float64, fs faults.Stats) {
		record(chaosCellJSON{
			Name: name, OK: true, US: us,
			Injected:       fs.Injected(),
			Crashes:        fs.Crashes,
			PartitionDrops: fs.PartitionDrops,
			Faults:         fs.PerRoute(),
		})
	}
	pass := func(name string, us float64, r bench.ChaosResult) {
		say("  %-16s %10.3f us   ok (%d injected, %d retx, %d renudge, %d corrupt, %d dup, %d rescues)\n",
			name, us, r.Faults.Injected(), r.Mailbox.Retransmits, r.Mailbox.Renudges,
			r.Mailbox.CorruptDrops, r.Mailbox.DupFrames, r.Rescues)
		passStats(name, us, r.Faults)
	}
	identical := func(name string) {
		say("  %-16s %10s      ok (bit-identical)\n", name, "")
		record(chaosCellJSON{Name: name, OK: true})
	}
	// recovered reports whether the run shows recovery activity matching the
	// schedule: a mail/IPI fault schedule must leave traces in the recovery
	// counters, otherwise the faults were not actually exercised.
	mailFaults := fc.Spec.Routes[faults.Mail]
	wantRecovery := mailFaults.DropPermille > 0 || mailFaults.CorruptPermille > 0
	recovered := func(r bench.ChaosResult) bool {
		if !wantRecovery {
			return true
		}
		return r.Mailbox.Retransmits+r.Mailbox.Renudges+r.Mailbox.CorruptDrops+
			r.Mailbox.DupFrames+r.Rescues > 0
	}
	check := func(name string, r bench.ChaosResult) {
		if !r.Completed {
			fail(name, "run froze; watchdog report follows")
			fmt.Fprintln(&dump, r.Watchdog)
			return
		}
		if r.Faults.Injected() == 0 {
			fail(name, "schedule injected no faults (%d decisions)", r.Faults.Decisions)
			return
		}
		if !recovered(r) {
			fail(name, "no recovery activity despite %d injected faults", r.Faults.Injected())
			return
		}
		pass(name, r.US, r)
	}

	if o.topo == nil {
		// Figure 6 cell (IPI at maximum distance), with a bit-identical
		// replay.
		r6 := bench.Fig6Chaos(o.rounds, &fc)
		check("fig6 ipi", r6)
		if r6b := bench.Fig6Chaos(o.rounds, &fc); r6b.US != r6.US || r6b.Faults != r6.Faults {
			fail("fig6 replay", "same seed diverged: %.6f/%v vs %.6f/%v",
				r6.US, r6.Faults.Injected(), r6b.US, r6b.Faults.Injected())
		} else {
			identical("fig6 replay")
		}

		// Figure 7 cell (polling, 8 activated cores).
		check("fig7 polling", bench.Fig7Chaos(o.rounds, 8, &fc))
	}

	// Figure 9 / Laplace under both consistency models: the result must be
	// the exact reference checksum despite the faults. The chaos sweep needs
	// shape, not the full figure.
	lp := laplace.Params{Rows: 64, Cols: 32, Iters: min(o.iters, 50), TopTemp: 100}
	lcfg := bench.Fig9Config{Params: lp, Chip: appChip}
	want := laplace.ReferenceChecksum(lp)
	for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
		name := fmt.Sprintf("laplace %v", model)
		r, sum := bench.Fig9ChaosMembers(lcfg, model, members, &fc)
		if r.Completed && sum != want {
			fail(name, "checksum %v != reference %v", sum, want)
			continue
		}
		check(name, r)
	}

	// Laplace determinism: an identical seed must replay bit-identically.
	rA, sumA := bench.Fig9ChaosMembers(lcfg, svm.Strong, members, &fc)
	rB, sumB := bench.Fig9ChaosMembers(lcfg, svm.Strong, members, &fc)
	if rA.US != rB.US || sumA != sumB || rA.Faults != rB.Faults {
		fail("laplace replay", "same seed diverged: %.3f us/%v vs %.3f us/%v",
			rA.US, sumA, rB.US, sumB)
	} else {
		identical("laplace replay")
	}

	// Matmul: a second application with cross-rank reads.
	mp := matmul.Params{N: 16}
	mres, msum := chaosMatmul(mp, appChip, members, &fc)
	if mres.Completed && msum != matmul.ReferenceChecksum(mp) {
		fail("matmul strong", "checksum %v != reference %v", msum, matmul.ReferenceChecksum(mp))
	} else {
		check("matmul strong", mres)
	}

	// Crash suite: when the schedule carries crash faults (the crash and
	// mixed presets), rerun Laplace on the replicated ownership directory
	// with the primary manager killed mid-run and a page owner killed right
	// after it finishes. The cooperative result and the post-crash audit
	// must both be the exact reference checksum, the counters must show a
	// real failover (and, under the strong model, dead-owner reclaims), and
	// the same seed must replay bit-identically.
	if len(fc.Spec.Crashes) > 0 {
		// One 4 KiB page per row is the point, not the length.
		cp := laplace.Params{Rows: 16, Cols: 512, Iters: min(o.iters, 8), TopTemp: 100}
		ccfg := bench.Fig9Config{Params: cp, Chip: appChip}
		cwant := laplace.ReferenceChecksum(cp)
		for _, model := range []svm.Model{svm.Strong, svm.LazyRelease} {
			name := fmt.Sprintf("dir %v", model)
			r := bench.Fig9CrashChaosMembers(ccfg, model, dirWorkers, &fc)
			switch {
			case !r.Completed:
				fail(name, "run froze; watchdog report follows")
				fmt.Fprintln(&dump, r.Watchdog)
			case r.Sum != cwant:
				fail(name, "checksum %v != reference %v", r.Sum, cwant)
			case r.AuditSum != cwant:
				fail(name, "audit checksum %v != reference %v", r.AuditSum, cwant)
			case r.Faults.Crashes == 0:
				fail(name, "schedule crashed nobody")
			case r.Dir.ViewChanges == 0:
				fail(name, "no failover despite primary crash: %+v", r.Dir)
			case model == svm.Strong && r.Dir.Reconstructions == 0:
				fail(name, "audit forced no dead-owner reclaims: %+v", r.Dir)
			default:
				say("  %-16s %10.3f us   ok (%d crashed, %d failovers, %d reclaims, %d commits, %d fenced)\n",
					name, r.US, r.Faults.Crashes, r.Dir.ViewChanges, r.Dir.Reconstructions,
					r.Dir.Commits, r.Dir.Fenced)
				passStats(name, r.US, r.Faults)
			}
		}
		dA := bench.Fig9CrashChaosMembers(ccfg, svm.Strong, dirWorkers, &fc)
		dB := bench.Fig9CrashChaosMembers(ccfg, svm.Strong, dirWorkers, &fc)
		if dA.EndUS != dB.EndUS || dA.Sum != dB.Sum || dA.AuditSum != dB.AuditSum ||
			dA.Dir != dB.Dir || dA.Faults != dB.Faults {
			fail("dir replay", "same seed diverged: %.3f us/%v vs %.3f us/%v",
				dA.EndUS, dA.Sum, dB.EndUS, dB.Sum)
		} else {
			identical("dir replay")
		}
	}

	// Partition suite: when the schedule carries a link-outage window (the
	// partition preset), run Laplace across two chips through the outage.
	// The marker window is calibrated against an outage-free run of the
	// same seed, then the partitioned run must complete with the exact
	// reference checksum — cross-chip results stay bit-exact after the
	// link heals — and the same seed must replay bit-identically.
	if fc.Spec.HasPartitionMarker() {
		ptopo := scc.MultiChip(2, scc.Grid(2, 2, 2))
		pchip := bench.ShrunkChip(ptopo)
		pmembers := smokeMembers(ptopo)
		plp := lp
		pcfg := bench.Fig9Config{Params: plp, Chip: pchip}
		pwant := laplace.ReferenceChecksum(plp)
		cal := fc
		cal.Spec.Partitions = nil
		calR, _ := bench.Fig9ChaosMembers(pcfg, svm.Strong, pmembers, &cal)
		if !calR.Completed {
			fail("partition heal", "calibration froze; watchdog report follows")
			fmt.Fprintln(&dump, calR.Watchdog)
		} else {
			run := fc
			run.Spec.Partitions = bench.ResolvePartitions(fc.Spec.Partitions, calR.US)
			pr, psum := bench.Fig9ChaosMembers(pcfg, svm.Strong, pmembers, &run)
			switch {
			case !pr.Completed:
				fail("partition heal", "run froze; watchdog report follows")
				fmt.Fprintln(&dump, pr.Watchdog)
			case psum != pwant:
				fail("partition heal", "checksum %v != reference %v after heal", psum, pwant)
			case pr.Faults.PartitionDrops == 0:
				fail("partition heal", "outage window dropped nothing (%d injected)", pr.Faults.Injected())
			default:
				say("  %-16s %10.3f us   ok (%d partition drops, %d injected, bit-exact after heal)\n",
					"partition heal", pr.US, pr.Faults.PartitionDrops, pr.Faults.Injected())
				passStats("partition heal", pr.US, pr.Faults)
			}
			qr, qsum := bench.Fig9ChaosMembers(pcfg, svm.Strong, pmembers, &run)
			if qr.US != pr.US || qsum != psum || qr.Faults != pr.Faults {
				fail("partition replay", "same seed diverged: %.3f us/%v vs %.3f us/%v",
					pr.US, psum, qr.US, qsum)
			} else {
				identical("partition replay")
			}
		}
	}

	// KV store cell: the serving workload under the same schedule. The run
	// must complete with an exact exactly-once audit, nonzero goodput in
	// every window, and a bit-identical replay. Crash schedules get the
	// replicated directory (dead-owner reclaim); the partition schedule
	// gets a two-chip machine so the outage actually cuts traffic.
	{
		kp := kvstore.DefaultParams()
		kp.Requests = 3000
		kp.Seed = fc.Seed
		ktopo := kvTopology(o.topo, schedule)
		withDir := len(fc.Spec.Crashes) > 0
		kr := bench.RunKV(kp, ktopo, &fc, withDir)
		// The kvstore command's acceptance checks, under this schedule.
		if row := kvRow(schedule, ktopo, kp, kr); !row.OK {
			fail("kvstore", "%s", row.Err)
		} else {
			say("  %-16s %10.3f us   ok (%d applied, %d shed, %d expired, %d failovers, %d injected)\n",
				"kvstore", kr.EndUS, kr.KV.Applied, kr.KV.Shed, kr.KV.Expired,
				kr.KV.Failovers, kr.Faults.Injected())
			passStats("kvstore", kr.EndUS, kr.Faults)
		}
		kb := bench.RunKV(kp, ktopo, &fc, withDir)
		if kb.KV.Checksum != kr.KV.Checksum || kb.EndUS != kr.EndUS || kb.Faults != kr.Faults {
			fail("kvstore replay", "same seed diverged: %#x/%.3f vs %#x/%.3f",
				kr.KV.Checksum, kr.EndUS, kb.KV.Checksum, kb.EndUS)
		} else {
			identical("kvstore replay")
		}
	}

	if o.json && !printJSON(summary) {
		return 1
	}
	if !ok {
		fmt.Fprintf(&dump, "\nchaos: seed %d schedule %q rounds %d iters %d\n",
			fc.Seed, schedule, o.rounds, o.iters)
		if err := os.WriteFile(chaosDumpFile, []byte(dump.String()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: writing %s: %v\n", chaosDumpFile, err)
		} else {
			say("chaos: diagnostic dump written to %s\n", chaosDumpFile)
		}
		return 1
	}
	say("chaos: all cells recovered; application results bit-exact\n")
	return 0
}

// chaosMatmul runs the matmul workload on a faulty machine.
func chaosMatmul(p matmul.Params, chip scc.Config, members []int, fc *faults.Config) (bench.ChaosResult, float64) {
	m, err := core.NewMachine(core.Options{
		Topology: &chip,
		Members:  members,
		Faults:   fc,
	})
	if err != nil {
		panic(err)
	}
	app := matmul.New(p)
	m.RunAll(func(env *core.Env) { app.Main(env.SVM) })
	r := bench.ChaosResult{
		Completed: !m.Cluster.WatchdogFired(),
		Watchdog:  m.Cluster.WatchdogReport(),
		Faults:    m.Chip.FaultInjector().Stats(),
		Mailbox:   m.Cluster.Mailbox().Stats(),
	}
	for _, id := range m.Cluster.Members() {
		if k := m.Cluster.Kernel(id); k != nil {
			r.Rescues += k.Stats().Rescues
		}
	}
	if !r.Completed {
		return r, 0
	}
	res := app.Result()
	r.US = res.Elapsed.Microseconds()
	return r, res.Checksum
}

// chaosSpecName extracts the schedule name from a seed[,spec] argument.
func chaosSpecName(arg string) string {
	if i := strings.IndexByte(arg, ','); i >= 0 {
		return arg[i+1:]
	}
	return "mixed"
}
