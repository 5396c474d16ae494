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

// planChaos lays out the chaos harness: representative cells of the
// evaluation rerun under a deterministic fault schedule must complete with
// bit-exact results, show real faults in their recovery counters, and
// replay bit-identically (a replay is a second cell whose row compares the
// two runs). A failure writes the diagnostic dump to chaos-dump.txt. A
// -chips/-grid machine skips the single-chip mail cells and runs the rest
// on a small chip-spanning member set (see smokeMembers). Planning fails
// when the machine cannot host the crash cells' directory managers
// (core.DirectoryWorkers) or the KV cell's servers (kvFits).
func planChaos(o *options) ([]cell, error) {
	fc, err := faults.ParseConfig(o.chaos)
	if err != nil {
		return nil, err
	}
	_, schedule := faults.SplitArg(o.chaos)
	crashes := len(fc.Spec.Crashes) > 0
	appChip := bench.ShrunkChip(scc.PaperSCC())
	members, dirWorkers := core.FirstN(4), core.FirstN(4)
	if o.topo != nil {
		appChip = bench.ShrunkChip(*o.topo)
		members = smokeMembers(*o.topo)
		if crashes {
			if dirWorkers, err = core.DirectoryWorkers(appChip); err != nil {
				return nil, fmt.Errorf("chaos: the directory cells: %v", err)
			}
		}
	}
	kp := kvstore.DefaultParams()
	kp.Requests, kp.Seed = 3000, fc.Seed
	ktopo := kvTopology(o.topo, schedule)
	if err := kvFits(ktopo, crashes); err != nil {
		return nil, fmt.Errorf("chaos: the kvstore cell: %v", err)
	}

	// The reports fill in the -json summary and the dump, in cell order.
	summary := chaosJSON{Seed: fc.Seed, Schedule: schedule, OK: true}
	var dump strings.Builder
	say := func(format string, args ...any) {
		if !o.json {
			fmt.Printf(format, args...)
		}
	}
	record := func(cell chaosCellJSON) bool {
		summary.Cells = append(summary.Cells, cell)
		summary.OK = summary.OK && cell.OK
		return cell.OK
	}
	fail := func(name, format string, args ...any) bool {
		msg := fmt.Sprintf(format, args...)
		say("  %-16s FAILED: %s\n", name, msg)
		fmt.Fprintf(&dump, "=== %s: %s\n", name, msg)
		return record(chaosCellJSON{Name: name, Err: msg})
	}
	froze := func(name, watchdog string) bool {
		fail(name, "run froze; watchdog report follows")
		fmt.Fprintln(&dump, watchdog)
		return false
	}
	pass := func(name string, us float64, fs faults.Stats, format string, args ...any) bool {
		say("  %-16s %10.3f us   ok ("+format+")\n", append([]any{name, us}, args...)...)
		return record(chaosCellJSON{Name: name, OK: true, US: us, Injected: fs.Injected(),
			Crashes: fs.Crashes, PartitionDrops: fs.PartitionDrops, Faults: fs.PerRoute()})
	}
	// replay is a replay row: a and b, the results of two same-seed runs,
	// must be equal; the dump gets both when they are not.
	replay := func(name string, a, b any) bool {
		if a != b {
			fail(name, "same seed diverged")
			fmt.Fprintf(&dump, "%+v\n%+v\n", a, b)
			return false
		}
		say("  %-16s %10s      ok (bit-identical)\n", name, "")
		return record(chaosCellJSON{Name: name, OK: true})
	}
	// check is a mail or application cell's verdict: it completed with the
	// reference checksum (0 for the mail cells), and faults were injected
	// and, under a mail/IPI fault schedule, recovered from.
	mail := fc.Spec.Routes[faults.Mail]
	check := func(name string, r bench.Run, want float64) bool {
		switch {
		case !r.Completed:
			return froze(name, r.Watchdog)
		case r.Sum != want:
			return fail(name, "checksum %v != reference %v", r.Sum, want)
		case r.Faults.Injected() == 0:
			return fail(name, "schedule injected no faults (%d decisions)", r.Faults.Decisions)
		case (mail.DropPermille > 0 || mail.CorruptPermille > 0) &&
			r.Mailbox.Retransmits+r.Mailbox.Renudges+r.Mailbox.CorruptDrops+r.Mailbox.DupFrames+r.Rescues == 0:
			return fail(name, "no recovery activity despite %d injected faults", r.Faults.Injected())
		}
		return pass(name, r.US, r.Faults, "%d injected, %d retx, %d renudge, %d corrupt, %d dup, %d rescues",
			r.Faults.Injected(), r.Mailbox.Retransmits, r.Mailbox.Renudges,
			r.Mailbox.CorruptDrops, r.Mailbox.DupFrames, r.Rescues)
	}
	// private gives each cell's run its own copy of the schedule.
	private := func() *faults.Config { c := fc; return &c }

	cells := []cell{{report: func() bool {
		say("chaos: seed %d, schedule %q\n", fc.Seed, schedule)
		if o.topo != nil {
			say("chaos: %d chip(s), %d cores\n", appChip.Chips, len(members))
		}
		return true
	}}}

	if o.topo == nil {
		// Figure 6 cell (IPI at maximum distance), with a bit-identical
		// replay, and the Figure 7 cell (polling, 8 activated cores).
		var r6, r6b, r7 bench.Run
		cells = append(cells,
			cell{func() { r6, _ = bench.Fig6Cell(o.rounds, private(), core.Instrumentation{}) },
				func() bool { return check("fig6 ipi", r6, 0) }},
			cell{func() { r6b, _ = bench.Fig6Cell(o.rounds, private(), core.Instrumentation{}) },
				func() bool { return replay("fig6 replay", r6, r6b) }},
			cell{func() { r7, _ = bench.Fig7Cell(o.rounds, 8, private(), core.Instrumentation{}) },
				func() bool { return check("fig7 polling", r7, 0) }})
	}

	// Figure 9 / Laplace under both consistency models, then a replay of
	// the strong run: the result must be the exact reference checksum
	// despite the faults. The chaos sweep needs shape, not the full figure.
	lp := laplace.Params{Rows: 64, Cols: 32, Iters: min(o.iters, 50), TopTemp: 100}
	lcfg := bench.Fig9Config{Params: lp, Chip: appChip}
	want := laplace.ReferenceChecksum(lp)
	var lap [3]bench.Run
	for i, model := range []svm.Model{svm.Strong, svm.LazyRelease, svm.Strong} {
		cells = append(cells, cell{
			func() { lap[i], _ = bench.Fig9Cell(lcfg, model, core.Options{Members: members, Faults: private()}) },
			func() bool {
				if i == 2 {
					return replay("laplace replay", lap[0], lap[2])
				}
				return check(fmt.Sprintf("laplace %v", model), lap[i], want)
			}})
	}

	// Matmul: a second application with cross-rank reads.
	mp := matmul.Params{N: 16}
	var mm bench.Run
	cells = append(cells, cell{
		func() {
			mm, _ = bench.MatmulCell(mp, core.Options{Topology: &appChip, Members: members, Faults: private()})
		},
		func() bool { return check("matmul strong", mm, matmul.ReferenceChecksum(mp)) }})

	// Crash suite (the crash and mixed presets): Laplace on the replicated
	// ownership directory, the primary manager killed mid-run and a page
	// owner right after it finishes. The result and the post-crash audit
	// must be exact, with a real failover (and, under the strong model,
	// dead-owner reclaims).
	if crashes {
		// One 4 KiB page per row is the point, not the length.
		cp := laplace.Params{Rows: 16, Cols: 512, Iters: min(o.iters, 8), TopTemp: 100}
		ccfg := bench.Fig9Config{Params: cp, Chip: appChip}
		cwant := laplace.ReferenceChecksum(cp)
		var dir [3]bench.DirChaosResult
		for i, model := range []svm.Model{svm.Strong, svm.LazyRelease, svm.Strong} {
			cells = append(cells, cell{
				func() { dir[i] = bench.Fig9CrashChaosMembers(ccfg, model, dirWorkers, private()) },
				func() bool {
					r, name := dir[i], fmt.Sprintf("dir %v", model)
					switch {
					case i == 2:
						return replay("dir replay", dir[0], r)
					case !r.Completed:
						return froze(name, r.Watchdog)
					case r.Sum != cwant:
						return fail(name, "checksum %v != reference %v", r.Sum, cwant)
					case r.AuditSum != cwant:
						return fail(name, "audit checksum %v != reference %v", r.AuditSum, cwant)
					case r.Faults.Crashes == 0:
						return fail(name, "schedule crashed nobody")
					case r.Dir.ViewChanges == 0:
						return fail(name, "no failover despite primary crash: %+v", r.Dir)
					case model == svm.Strong && r.Dir.Reconstructions == 0:
						return fail(name, "audit forced no dead-owner reclaims: %+v", r.Dir)
					}
					return pass(name, r.US, r.Faults, "%d crashed, %d failovers, %d reclaims, %d commits, %d fenced",
						r.Faults.Crashes, r.Dir.ViewChanges, r.Dir.Reconstructions, r.Dir.Commits, r.Dir.Fenced)
				}})
		}
	}

	// Partition suite (the partition preset): Laplace across two chips
	// through a link outage, which Fig9Cell calibrates; cross-chip
	// results must stay bit-exact after the link heals.
	if fc.Spec.HasPartitionMarker() {
		ptopo := scc.MultiChip(2, scc.Grid(2, 2, 2))
		pcfg := bench.Fig9Config{Params: lp, Chip: bench.ShrunkChip(ptopo)}
		pmembers := smokeMembers(ptopo)
		var part [2]bench.Run
		for i := range part {
			cells = append(cells, cell{
				func() {
					part[i], _ = bench.Fig9Cell(pcfg, svm.Strong, core.Options{Members: pmembers, Faults: private()})
				},
				func() bool {
					const name = "partition heal"
					r := part[0]
					switch {
					case i == 1:
						return replay("partition replay", r, part[1])
					case !r.Completed:
						return froze(name, r.Watchdog)
					case r.Sum != want:
						return fail(name, "checksum %v != reference %v after heal", r.Sum, want)
					case r.Faults.PartitionDrops == 0:
						return fail(name, "outage window dropped nothing (%d injected)", r.Faults.Injected())
					}
					return pass(name, r.US, r.Faults, "%d partition drops, %d injected, bit-exact after heal",
						r.Faults.PartitionDrops, r.Faults.Injected())
				}})
		}
	}

	// KV store cell: the serving workload must pass the kvstore command's
	// row checks. Crash schedules get the replicated directory (dead-owner
	// reclaim), the partition schedule a two-chip machine (kvTopology).
	var kv [2]bench.KVReport
	for i := range kv {
		cells = append(cells, cell{
			func() { kv[i], _ = bench.KVCell(kp, ktopo, crashes, private(), core.Instrumentation{}) },
			func() bool {
				r := kv[0]
				if i == 1 {
					b := kv[1]
					return replay("kvstore replay", [3]any{r.KV.Checksum, r.EndUS, r.Faults}, [3]any{b.KV.Checksum, b.EndUS, b.Faults})
				}
				if row := kvRow(schedule, ktopo, kp, r); !row.OK {
					return fail("kvstore", "%s", row.Err)
				}
				return pass("kvstore", r.EndUS, r.Faults, "%d applied, %d shed, %d expired, %d failovers, %d injected",
					r.KV.Applied, r.KV.Shed, r.KV.Expired, r.KV.Failovers, r.Faults.Injected())
			}})
	}

	return append(cells, cell{report: func() bool {
		if o.json && !printJSON(summary) {
			return false
		}
		if !summary.OK {
			fmt.Fprintf(&dump, "\nchaos: seed %d schedule %q rounds %d iters %d\n", fc.Seed, schedule, o.rounds, o.iters)
			if err := os.WriteFile(chaosDumpFile, []byte(dump.String()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: writing %s: %v\n", chaosDumpFile, err)
			} else {
				say("chaos: diagnostic dump written to %s\n", chaosDumpFile)
			}
			return false
		}
		say("chaos: all cells recovered; application results bit-exact\n")
		return true
	}}), nil
}
