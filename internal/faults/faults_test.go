package faults

import (
	"reflect"
	"testing"

	"metalsvm/internal/sim"
)

// TestNilInjectorSafe: every decision method must be a no-op on nil.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if in.Drop(Mail) || in.Dup(Mail) {
		t.Fatal("nil injector injected")
	}
	if in.DelayCycles(DDR) != 0 || in.StallCyclesOn(0) != 0 || in.DupDelayCycles() != 0 {
		t.Fatal("nil injector returned nonzero delay")
	}
	buf := []byte{1, 2, 3}
	if in.Corrupt(Mail, buf) {
		t.Fatal("nil injector corrupted")
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatal("nil injector modified buffer")
	}
	if s := in.Stats(); s != (Stats{}) {
		t.Fatalf("nil injector stats nonzero: %+v", s)
	}
	in.NoteCrash()
	if s := in.Stats(); s.Crashes != 0 {
		t.Fatalf("nil injector counted a crash: %+v", s)
	}
}

// TestSeedDeterminism: the same seed and call sequence must replay the same
// decisions and stats.
func TestSeedDeterminism(t *testing.T) {
	spec, ok := PresetSpec("mixed")
	if !ok {
		t.Fatal("mixed preset missing")
	}
	run := func(seed uint64) ([]bool, Stats) {
		in := NewInjector(Config{Seed: seed, Spec: spec})
		in.BindCores(1)
		var out []bool
		for i := 0; i < 2000; i++ {
			out = append(out, in.Drop(Mail), in.Dup(Mail), in.Drop(IPI),
				in.DelayCycles(DDR) != 0, in.StallCyclesOn(0) != 0)
		}
		return out, in.Stats()
	}
	a, sa := run(42)
	b, sb := run(42)
	if sa != sb {
		t.Fatalf("same seed, different stats: %+v vs %+v", sa, sb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at decision %d", i)
		}
	}
	_, sc := run(43)
	if sa == sc {
		t.Fatal("different seeds produced identical stats (suspicious)")
	}
	if sa.Injected() == 0 {
		t.Fatal("mixed preset injected nothing over 2000 rounds")
	}
}

// TestCorruptFlips: a corruption must flip exactly one bit and be counted.
func TestCorruptFlips(t *testing.T) {
	var spec Spec
	spec.Routes[Mail] = RouteSpec{CorruptPermille: 1000}
	in := NewInjector(Config{Seed: 7, Spec: spec})
	buf := make([]byte, 32)
	if !in.Corrupt(Mail, buf) {
		t.Fatal("permille=1000 did not corrupt")
	}
	flipped := 0
	for _, b := range buf {
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("corruption flipped %d bits, want 1", flipped)
	}
	if in.Stats().Corruptions[Mail] != 1 {
		t.Fatalf("corruption not counted: %+v", in.Stats())
	}
}

// TestZeroProbabilityDrawsNothing: disabled fault classes must not advance
// the stream, so enabling one class never perturbs another's schedule.
func TestZeroProbabilityDrawsNothing(t *testing.T) {
	in := NewInjector(Config{Seed: 9})
	in.BindCores(1)
	for i := 0; i < 100; i++ {
		in.Drop(Mail)
		in.DelayCycles(DDR)
		in.StallCyclesOn(0)
	}
	if d := in.Stats().Decisions; d != 0 {
		t.Fatalf("zero spec consumed %d draws", d)
	}
}

// TestPresetsAndParse: preset lookup and the seed[,spec] syntax.
func TestPresetsAndParse(t *testing.T) {
	for _, name := range Presets() {
		sp, ok := PresetSpec(name)
		if !ok {
			t.Fatalf("Presets lists %q but PresetSpec misses it", name)
		}
		if !sp.Enabled() {
			t.Fatalf("preset %q injects nothing", name)
		}
	}
	if _, ok := PresetSpec("nope"); ok {
		t.Fatal("unknown preset resolved")
	}

	cfg, err := ParseConfig("42")
	if err != nil || cfg.Seed != 42 {
		t.Fatalf("ParseConfig(42): %+v, %v", cfg, err)
	}
	mixed, _ := PresetSpec("mixed")
	if !reflect.DeepEqual(cfg.Spec, mixed) {
		t.Fatal("default spec is not mixed")
	}
	cfg, err = ParseConfig("7,drops")
	if err != nil || cfg.Seed != 7 {
		t.Fatalf("ParseConfig(7,drops): %+v, %v", cfg, err)
	}
	drops, _ := PresetSpec("drops")
	if !reflect.DeepEqual(cfg.Spec, drops) {
		t.Fatal("named spec not honoured")
	}
	if _, err := ParseConfig("x"); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, err := ParseConfig("1,zzz"); err == nil {
		t.Fatal("bad spec accepted")
	}
}

// TestParseConfigErrors walks the malformed-argument space: empty strings,
// junk seeds (also ones with a numeric prefix, which a scanf-style parse
// would accept), trailing commas, unknown preset names.
func TestParseConfigErrors(t *testing.T) {
	bad := []string{"", ",", ",mixed", "x", "-", "1,", "1,nope", "1,MIXED", "seed,mixed",
		"0x10", "1e3,light", "12abc,drops", " 5"}
	for _, arg := range bad {
		if cfg, err := ParseConfig(arg); err == nil {
			t.Errorf("ParseConfig(%q) accepted: %+v", arg, cfg)
		}
	}
	// The unknown-spec error must list the available presets so the CLI
	// message is self-documenting.
	_, err := ParseConfig("1,zzz")
	if err == nil {
		t.Fatal("unknown spec accepted")
	}
	for _, name := range Presets() {
		if !contains(err.Error(), name) {
			t.Errorf("unknown-spec error %q does not mention preset %q", err, name)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPresetRoundTrips: every listed preset must parse back through the
// seed,spec syntax to the exact same schedule.
func TestPresetRoundTrips(t *testing.T) {
	for _, name := range Presets() {
		want, ok := PresetSpec(name)
		if !ok {
			t.Fatalf("Presets lists %q but PresetSpec misses it", name)
		}
		cfg, err := ParseConfig("123," + name)
		if err != nil {
			t.Fatalf("ParseConfig(123,%s): %v", name, err)
		}
		if cfg.Seed != 123 {
			t.Fatalf("preset %q round-trip lost the seed: %d", name, cfg.Seed)
		}
		if !reflect.DeepEqual(cfg.Spec, want) {
			t.Fatalf("preset %q round-trip changed the schedule:\n%+v\nvs\n%+v", name, cfg.Spec, want)
		}
	}
}

// TestSeedOnlyConfig: a bare seed selects the mixed preset, which must be
// enabled and carry the sentinel crash markers.
func TestSeedOnlyConfig(t *testing.T) {
	cfg, err := ParseConfig("99")
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Spec.Enabled() {
		t.Fatal("seed-only config disabled")
	}
	if len(cfg.Spec.Crashes) == 0 {
		t.Fatal("mixed preset carries no crash markers")
	}
}

// TestCrashSchedules covers the crash fault model at the spec level: the
// crash preset, spec enablement from crashes alone, and the no-randomness
// discipline of NoteCrash.
func TestCrashSchedules(t *testing.T) {
	crash, ok := PresetSpec("crash")
	if !ok {
		t.Fatal("crash preset missing")
	}
	if len(crash.Crashes) == 0 {
		t.Fatal("crash preset schedules no crashes")
	}
	foundPrimary, foundWorker := false, false
	for _, cr := range crash.Crashes {
		switch cr.Core {
		case CrashPrimaryManager:
			foundPrimary = true
		case CrashLastWorker:
			foundWorker = true
		}
	}
	if !foundPrimary || !foundWorker {
		t.Fatalf("crash preset misses sentinels: %+v", crash.Crashes)
	}

	// A crash-only spec is enabled even with all probabilistic routes zero.
	sp := Spec{Crashes: []Crash{{Core: 3, AtUS: 100}}}
	if !sp.Enabled() {
		t.Fatal("crash-only spec reports disabled")
	}

	// NoteCrash counts into Injected but draws no randomness.
	in := NewInjector(Config{Seed: 1, Spec: sp})
	in.NoteCrash()
	s := in.Stats()
	if s.Crashes != 1 || s.Injected() != 1 {
		t.Fatalf("crash not counted: %+v", s)
	}
	if s.Decisions != 0 {
		t.Fatalf("NoteCrash consumed %d random draws", s.Decisions)
	}
}

// TestPartitionWindow: LinkPartitioned honors [FromUS, ToUS) windows, skips
// markers, and the partition preset parses with a marker in place.
func TestPartitionWindow(t *testing.T) {
	var nilIn *Injector
	if nilIn.LinkPartitioned(sim.Microseconds(1)) {
		t.Fatal("nil injector partitioned")
	}
	nilIn.NotePartitionDrop() // must not panic

	sp := Spec{}
	sp.Partitions = []Partition{{FromUS: 100, ToUS: 200}}
	if !sp.Enabled() {
		t.Fatal("spec with a partition reports disabled")
	}
	if sp.HasPartitionMarker() {
		t.Fatal("concrete window reported as marker")
	}
	in := NewInjector(Config{Seed: 1, Spec: sp})
	for _, tc := range []struct {
		us   float64
		want bool
	}{
		{0, false}, {99.9, false}, {100, true}, {150, true},
		{199.9, true}, {200, false}, {1000, false},
	} {
		if got := in.LinkPartitioned(sim.Microseconds(tc.us)); got != tc.want {
			t.Errorf("LinkPartitioned(%vus) = %v, want %v", tc.us, got, tc.want)
		}
	}
	in.NotePartitionDrop()
	in.NotePartitionDrop()
	if s := in.Stats(); s.PartitionDrops != 2 || s.Drops[Link] != 2 {
		t.Fatalf("partition drops not counted: %+v", s)
	}
	if in.Stats().Injected() == 0 {
		t.Fatal("partition drops invisible to Injected()")
	}

	// A marker window ({0,0}) never matches any time, even t=0.
	mk := Spec{}
	mk.Partitions = []Partition{{}}
	if !mk.HasPartitionMarker() {
		t.Fatal("marker not detected")
	}
	mkIn := NewInjector(Config{Seed: 1, Spec: mk})
	if mkIn.LinkPartitioned(0) || mkIn.LinkPartitioned(sim.Microseconds(5)) {
		t.Fatal("marker window matched a time")
	}

	// The preset ships a marker plus a mail trickle and must parse.
	cfg, err := ParseConfig("7,partition")
	if err != nil {
		t.Fatalf("partition preset parse: %v", err)
	}
	if !cfg.Spec.HasPartitionMarker() {
		t.Fatal("partition preset lacks marker window")
	}
	if cfg.Spec.Routes[Mail].DropPermille == 0 {
		t.Fatal("partition preset lacks mail trickle")
	}
}

// TestPerRouteStats: Stats.PerRoute exposes only routes with activity, keyed
// by route name.
func TestPerRouteStats(t *testing.T) {
	var s Stats
	s.Drops[Mail] = 3
	s.Dups[Mail] = 1
	s.Delays[Link] = 5
	s.Corruptions[DDR] = 2
	per := s.PerRoute()
	if len(per) != 3 {
		t.Fatalf("PerRoute has %d routes, want 3: %+v", len(per), per)
	}
	if r := per[Mail.String()]; r.Drops != 3 || r.Dups != 1 {
		t.Fatalf("mail route stats wrong: %+v", r)
	}
	if r := per[Link.String()]; r.Delays != 5 {
		t.Fatalf("link route stats wrong: %+v", r)
	}
	if r := per[DDR.String()]; r.Corruptions != 2 {
		t.Fatalf("ddr route stats wrong: %+v", r)
	}
	if _, ok := per[IPI.String()]; ok {
		t.Fatal("idle route present in PerRoute")
	}
}
