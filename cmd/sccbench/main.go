// Command sccbench regenerates the tables and figures of the paper's
// evaluation (Section 7) on the simulated SCC platform, plus the ablation
// studies DESIGN.md calls out.
//
// Each mode is one row of the table in modes: a command word (fig6, fig7,
// table1, fig9, scale, ablation, kvstore, comm, all, info) or a selecting
// flag (-check, -sanitize, -chaos, -metrics/-profile/-perfetto),
// the flags it reads, and whether it runs on a -chips/-grid machine.
// `sccbench -h` prints the table. A flag the selected mode does not read
// is a usage error, not silently ignored.
//
// Flags tune the measurement sizes; the defaults give the paper's shapes
// in well under a coffee break. All times are simulated (533 MHz cores,
// 800 MHz mesh and memory, as in the paper's test platform).
//
// -chips and -grid select a different machine through the validated
// topology API: -grid WxHxC reshapes each chip's tile grid and -chips N
// couples N such chips over the inter-chip link. The topology-aware
// modes then run on that machine — e.g. `sccbench -chips 4 -grid 8x8x2
// scale` boots 512 cores.
//
// Independent simulations (one per sweep point) fan out across host CPUs
// by default; -parallel 1 forces serial execution. The results are
// bit-identical either way — each simulation is a pure function of its
// configuration and runs on one serial engine. -json emits machine-readable
// results instead of tables, at full float64 precision. -cpuprofile and
// -memprofile write standard pprof profiles of the host process.
//
// The exit code is 0 on success, 1 when a run's own verdict fails (a race,
// a sanitizer finding, a wrong checksum, a failed audit) whatever the
// output format, and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"metalsvm/internal/bench"
	"metalsvm/internal/bench/runner"
	"metalsvm/internal/core"
	"metalsvm/internal/scc"
)

func main() { os.Exit(run(os.Args[1:])) }

// options holds the parsed flags plus what run derives from them: the
// -chips/-grid machine (nil for the paper chip), the command word, and the
// results collected for -json (nil for tables).
type options struct {
	rounds, chips, iters, kvRequests, parallel    int
	kvSeed                                        uint64
	grid, chaos, cpuprofile, memprofile, perfetto string
	json, metrics, profile                        bool

	topo *scc.Config
	cmd  string
	res  *results
}

// mode is one row of the mode table.
type mode struct {
	name  string // the command word, or "-flag" (alternatives joined by '|') for a mode a flag selects
	arg   string // the command word a flag-selected mode takes; empty: none
	flags string // the flags the mode reads besides -parallel, -cpuprofile and -memprofile
	topo  bool   // the mode runs on a -chips/-grid machine
	help  string
	run   func(o *options) int // returns the exit code
}

// reads lists the mode's flags, -chips and -grid included where it runs on
// them.
func (m *mode) reads() []string {
	f := strings.Fields(m.flags)
	if m.topo {
		f = append(f, "chips", "grid")
	}
	return f
}

// modes is the mode table: run selects the first row whose flag is set,
// else the row the command word names, and rejects every flag that row
// does not read.
var modes = []mode{
	{name: "fig6", flags: "rounds json", topo: true, help: "mail latency vs mesh distance (Figure 6)", run: harnesses(fig6)},
	{name: "fig7", flags: "rounds json", topo: true, help: "mail latency vs activated cores (Figure 7)", run: harnesses(fig7)},
	{name: "table1", flags: "json", help: "SVM overheads (Table 1)", run: harnesses(table1)},
	{name: "fig9", flags: "iters json", topo: true, help: "Laplace runtimes (Figure 9)", run: harnesses(fig9)},
	{name: "scale", flags: "json", topo: true, help: "Laplace + task farm completion on every core", run: harnesses(scale)},
	{name: "ablation", flags: "iters json", help: "WCB / scratchpad / next-touch / read-only-L2 studies", run: harnesses(ablation)},
	{name: "kvstore", flags: "kv-requests kv-seed json", topo: true, help: "KV store SLO report under chaos", run: cellMode(kvPlan)},
	{name: "comm", flags: "rounds json", help: "RCCE transfer latency and bandwidth", run: harnesses(comm)},
	{name: "all", flags: "rounds iters json", help: "fig6 fig7 table1 fig9 scale ablation comm",
		run: harnesses(fig6, fig7, table1, fig9, scale, ablation, comm)},
	{name: "info", help: "platform geometry and latency reference", run: harnesses(info)},
	{name: "-check", flags: "check", topo: true, help: "race checker and zero-perturbation cells over every workload",
		run: harnesses(raceSuite.run)},
	{name: "-sanitize", flags: "sanitize", help: "sanitizer suite over every workload", run: harnesses(sanSuite.run)},
	{name: "-chaos", flags: "chaos rounds iters json", topo: true, help: "representative cells under deterministic fault injection",
		run: cellMode(planChaos)},
	{name: "-metrics|-profile|-perfetto", arg: observeArgs(), flags: "metrics profile perfetto rounds iters",
		help: "one instrumented cell per harness", run: runObserve},
}

// harnesses runs the harnesses in order (a blank line between their
// tables), prints the collected -json results, if any, and turns the
// verdicts into the exit code. The verdict does not depend on the output
// format: a failed checksum or audit exits 1 after its JSON as after its
// tables.
func harnesses(hs ...func(o *options) bool) func(o *options) int {
	return func(o *options) int {
		ok := true
		for i, h := range hs {
			if i > 0 && o.res == nil {
				fmt.Println()
			}
			ok = h(o) && ok
		}
		if o.res != nil && !printJSON(o.res) || !ok {
			return 1
		}
		return 0
	}
}

// cell is one independent simulation of a multi-cell mode (-check,
// -sanitize, -chaos, kvstore). run writes only the cell's own result
// variables; report, called after every run has finished, prints the cell's
// row (or records it for -json) and returns its verdict. A cell with no run
// only reports: a header or a footer.
type cell struct {
	run    func()
	report func() bool
}

// runCells runs every cell through the host pool, then reports them in list
// order, so the output is identical at any parallelism. It returns whether
// every verdict held.
func runCells(parallel int, cells []cell) bool {
	runner.New(parallel).Run(len(cells), func(i int) {
		if run := cells[i].run; run != nil {
			run()
		}
	})
	ok := true
	for _, c := range cells {
		ok = c.report() && ok
	}
	return ok
}

// cellMode runs a multi-cell mode: a plan error exits 2 before anything
// prints, else the cells run (runCells) and any failed verdict exits 1.
func cellMode(plan func(o *options) ([]cell, error)) func(o *options) int {
	return func(o *options) int {
		cells, err := plan(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
			return 2
		}
		if !runCells(o.parallel, cells) {
			return 1
		}
		return 0
	}
}

// run holds the real main so profile teardown runs before the process
// exits (os.Exit skips deferred calls) and tests can drive the flag handling.
func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("sccbench", flag.ExitOnError)
	fs.IntVar(&o.rounds, "rounds", 200, "ping-pong rounds per mailbox measurement")
	fs.IntVar(&o.chips, "chips", 1, "number of chips coupled by the inter-chip link (1 = the paper's single chip)")
	fs.StringVar(&o.grid, "grid", "", "per-chip tile grid as `WxHxC` (width x height x cores per tile; empty = the paper's 6x4x2)")
	fs.IntVar(&o.iters, "iters", 50, "Laplace iterations (paper: 5000; a one-time warm-up plus a constant per-iteration cost, so crossovers are preserved)")
	fs.Bool("check", false, "run the happens-before race checker over every workload and exit non-zero on races")
	fs.Bool("sanitize", false, "run the sanitizer suite (shadow memory, locksets, lock-order graph) over every workload and exit non-zero on findings")
	fs.StringVar(&o.chaos, "chaos", "", "run the chaos harness with `seed[,spec]`: representative cells under deterministic fault injection (specs: corrupt, crash, delays, drops, light, mixed, partition; crash and mixed also run the replicated-directory failover cells; partition adds the link-outage cells)")
	fs.IntVar(&o.kvRequests, "kv-requests", 20000, "with the kvstore command: total requests across all client cores")
	fs.Uint64Var(&o.kvSeed, "kv-seed", 1, "with the kvstore command: workload seed (same seed replays bit-identically)")
	fs.IntVar(&o.parallel, "parallel", 0, "max simulations in flight (0 = one per host CPU, 1 = serial)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a host CPU profile to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a host heap profile to `file` at exit")
	fs.BoolVar(&o.json, "json", false, "emit results as JSON instead of tables")
	fs.BoolVar(&o.metrics, "metrics", false, "run one representative instrumented cell of the chosen harness and print the metrics snapshot")
	fs.BoolVar(&o.profile, "profile", false, "run one representative instrumented cell of the chosen harness and print the simulated-time profile")
	fs.StringVar(&o.perfetto, "perfetto", "", "write the instrumented run as Chrome trace-event JSON to this `file` (Perfetto-loadable; 'all' adds a per-harness suffix)")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sccbench [flags] mode\nmodes, and the flags each reads besides -parallel, -cpuprofile and -memprofile:\n")
		for _, m := range modes {
			fmt.Fprintf(os.Stderr, "  sccbench %s\n      %s; reads: %s\n", strings.TrimSpace(m.name+" "+m.arg), m.help, strings.Join(m.reads(), " "))
		}
		fs.PrintDefaults()
	}
	fs.Parse(args) // ExitOnError: a bad flag prints the usage and exits 2

	m := selectMode(fs)
	if m == nil {
		fs.Usage()
		return 2
	}
	accepts := append(m.reads(), "parallel", "cpuprofile", "memprofile")
	unread := ""
	fs.Visit(func(f *flag.Flag) {
		if unread == "" && !slices.Contains(accepts, f.Name) {
			unread = f.Name
		}
	})
	if unread != "" {
		fmt.Fprintf(os.Stderr, "sccbench: %s does not read -%s\n", m.name, unread)
		return 2
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"chips", o.chips}, {"rounds", o.rounds}, {"iters", o.iters}, {"kv-requests", o.kvRequests}} {
		if f.v < 1 {
			fmt.Fprintf(os.Stderr, "sccbench: -%s %d: want at least 1\n", f.name, f.v)
			return 2
		}
	}
	// A command row's word is its argument; a flag-selected row takes one of
	// the words in its arg, or none.
	wantArg := m.name[0] != '-' || m.arg != ""
	if fs.NArg() > 1 || (fs.NArg() == 1) != wantArg ||
		m.arg != "" && !slices.Contains(strings.Split(m.arg, "|"), fs.Arg(0)) {
		fs.Usage()
		return 2
	}
	o.cmd = fs.Arg(0)
	var err error
	if o.topo, err = parseTopology(o.chips, o.grid); err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return 2
	}
	if o.json {
		o.res = &results{}
	}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sccbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if o.memprofile != "" {
		defer func() {
			f, err := os.Create(o.memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "sccbench: -memprofile: %v\n", err)
			}
		}()
	}
	bench.SetParallelism(o.parallel)
	return m.run(&o)
}

// selectMode returns the first row one of whose selecting flags is on (not
// false or empty), else the row named by the command word, else nil.
func selectMode(fs *flag.FlagSet) *mode {
	for i, m := range modes {
		for _, sel := range strings.Split(m.name, "|") {
			if name, isFlag := strings.CutPrefix(sel, "-"); isFlag {
				if v := fs.Lookup(name).Value.String(); v != "false" && v != "" {
					return &modes[i]
				}
			}
		}
	}
	for i, m := range modes {
		if m.name == fs.Arg(0) {
			return &modes[i]
		}
	}
	return nil
}

// printJSON prints v as indented JSON; it reports a marshalling failure on
// stderr and returns false.
func printJSON(v any) bool {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sccbench: %v\n", err)
		return false
	}
	fmt.Println(string(out))
	return true
}

// parseTopology builds the machine configuration from the -chips and -grid
// flags and rejects one with fewer than two cores. Both at their defaults
// returns nil — the stock paper chip, leaving every legacy code path
// untouched.
func parseTopology(chips int, grid string) (*scc.Config, error) {
	if chips <= 1 && grid == "" {
		return nil, nil
	}
	base := scc.PaperSCC()
	if grid != "" {
		// Sscanf stops after the third number; the round trip rejects
		// whatever follows it (2x2x1junk, 8x8x2x4).
		var w, h, c int
		if n, err := fmt.Sscanf(grid, "%dx%dx%d", &w, &h, &c); n != 3 || err != nil ||
			fmt.Sprintf("%dx%dx%d", w, h, c) != grid {
			return nil, fmt.Errorf("-grid %q: want WxHxC, e.g. 8x8x2", grid)
		}
		base = scc.Grid(w, h, c)
	}
	if chips > 1 {
		base = scc.MultiChip(chips, base)
	}
	cfg := base.Normalized()
	if err := scc.Validate(cfg); err != nil {
		return nil, err
	}
	// Every harness measures between at least two cores.
	if n := cfg.Chips * cfg.Mesh.Width * cfg.Mesh.Height * cfg.Mesh.CoresPerTile; n < 2 {
		return nil, fmt.Errorf("a %d-core machine: the harnesses need at least 2 cores", n)
	}
	return &cfg, nil
}

// smokeMembers picks a small member set that still spans every chip of the
// topology. The racecheck and chaos application cells deliberately share
// pages between ranks, so their cost under the strong model grows
// superlinearly with the worker count (the matmul cell falls off a cliff
// past four sharers of its hot page); booting all cores of a 512-core
// machine would melt the smoke runs without exercising any new protocol
// path. Four cores spread over the chips (at least one per chip) keep the
// inter-chip link in play while every cell stays within the page-ownership
// regime the single-chip smoke runs in.
func smokeMembers(topo scc.Config) []int {
	cfg := topo.Normalized()
	per := min(max(4/cfg.Chips, 1), cfg.Mesh.Width*cfg.Mesh.Height*cfg.Mesh.CoresPerTile)
	var members []int
	for ch := 0; ch < cfg.Chips; ch++ {
		members = append(members, core.ChipCores(cfg, ch)[:per]...)
	}
	return members
}
