package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"metalsvm/internal/bench"
)

// constExperiment is a stand-in for a quick experiment: it simulates nothing
// and reports us simulated microseconds in every configuration.
func constExperiment(name string, us float64) benchExperiment {
	return benchExperiment{
		name:  name,
		run:   func() any { return us },
		simUS: func(v any) float64 { return v.(float64) },
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDiffBaseline(t *testing.T) {
	dir := t.TempDir()
	committed := filepath.Join(dir, "committed.json")
	writeFile(t, committed, `{"simulated": [
		{"experiment": "fig6", "simulated_us": 642.288},
		{"experiment": "table1", "simulated_us": 253995.23575999998}]}`)
	garbled := filepath.Join(dir, "garbled.json")
	writeFile(t, garbled, `{"simulated": [`)

	for _, tc := range []struct {
		name    string
		path    string
		fresh   []benchSimRecord
		wantErr string // substring; empty means the diff is clean
	}{
		{"match", committed, []benchSimRecord{{"fig6", 642.288}, {"table1", 253995.23575999998}}, ""},
		{"subset matches", committed, []benchSimRecord{{"table1", 253995.23575999998}}, ""},
		{"drifted by one ulp", committed, []benchSimRecord{{"fig6", 642.288}, {"table1", 253995.23576}}, `"table1": simulated_us = 253995.23576`},
		{"missing from baseline", committed, []benchSimRecord{{"fig6", 642.288}, {"fig9-quick", 1}}, `"fig9-quick" missing from baseline`},
		{"unreadable file", filepath.Join(dir, "absent.json"), []benchSimRecord{{"fig6", 642.288}}, "read baseline"},
		{"unparsable file", garbled, []benchSimRecord{{"fig6", 642.288}}, "parse baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := diffBaseline(benchReport{Simulated: tc.fresh}, tc.path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("clean diff reported %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestBenchRejectsTopologyFlags: -bench measures the committed paper-chip
// baseline and -sanitize checks the paper chip, so combining either with
// -chips or -grid is a usage error (exit code 2) caught before anything runs
// or is written.
func TestBenchRejectsTopologyFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-bench", "-chips", "2"},
		{"-bench", "-grid", "2x2x2"},
		{"-bench", "-baseline", "-chips", "2", "-grid", "2x2x1"},
		{"-sanitize", "-chips", "2"},
		{"-sanitize", "-grid", "2x2x2"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("sccbench %s: exit code %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestBenchReportHoldsOnlyBitExactFields runs -bench's loop over stand-in
// experiments and checks the written file key by key: experiment names and
// simulated microseconds, nothing that depends on the host.
func TestBenchReportHoldsOnlyBitExactFields(t *testing.T) {
	defer bench.SetParallelism(0)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	exps := []benchExperiment{constExperiment("a", 1.5), constExperiment("b", 642.288)}
	if code := runBench(exps, path, 2, false); code != 0 {
		t.Fatalf("exit code %d, want 0", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]any{"simulated": []any{
		map[string]any{"experiment": "a", "simulated_us": 1.5},
		map[string]any{"experiment": "b", "simulated_us": 642.288},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s holds %v, want exactly %v", path, got, want)
	}
	// The file just written is its own baseline.
	if code := runBench(exps, path, 2, true); code != 0 {
		t.Fatalf("-baseline against the file just written: exit code %d, want 0", code)
	}
}

// TestBenchFailsOnDivergenceAndDrift: a run that differs between the two
// configurations, and a simulated result that differs from the baseline,
// both exit non-zero; the drifted run leaves the baseline file untouched.
func TestBenchFailsOnDivergenceAndDrift(t *testing.T) {
	defer bench.SetParallelism(0)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")

	calls := 0.0
	unstable := constExperiment("unstable", 0)
	unstable.run = func() any { calls++; return calls }
	if code := runBench([]benchExperiment{unstable}, path, 2, false); code != 1 {
		t.Errorf("diverging configurations: exit code %d, want 1", code)
	}

	const committed = `{"simulated": [{"experiment": "a", "simulated_us": 1.5}]}`
	writeFile(t, path, committed)
	if code := runBench([]benchExperiment{constExperiment("a", 1.25)}, path, 2, true); code != 1 {
		t.Errorf("drift from the baseline: exit code %d, want 1", code)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != committed {
		t.Errorf("the drifted run rewrote the baseline: %q, %v", data, err)
	}
}

// TestFailedVerdictExitsNonZeroInEveryFormat feeds scale and kvstore results
// through the functions run reports them with: a wrong checksum or a failed
// audit must exit 1 after its JSON exactly as after its tables.
func TestFailedVerdictExitsNonZeroInEveryFormat(t *testing.T) {
	goodScale := bench.ScaleResult{Chips: 1, Cores: 48, LaplaceOK: true, FarmOK: true}
	badScale := goodScale
	badScale.FarmOK = false
	goodKV := kvstoreResults{Schedules: []kvScheduleResult{{Schedule: "none", OK: true}, {Schedule: "crash", OK: true}}}
	badKV := kvstoreResults{Schedules: []kvScheduleResult{{Schedule: "none", OK: true}, {Schedule: "crash", Err: "audit failed"}}}

	for _, jsonOut := range []bool{false, true} {
		for _, tc := range []struct {
			name   string
			report func(res *results) bool
			want   int
		}{
			{"scale exact", func(res *results) bool { return reportScale(goodScale, res) }, 0},
			{"scale wrong checksum", func(res *results) bool { return reportScale(badScale, res) }, 1},
			{"kvstore audited", func(res *results) bool { return reportKVStore(goodKV, res) }, 0},
			{"kvstore failed audit", func(res *results) bool { return reportKVStore(badKV, res) }, 1},
		} {
			var res *results
			if jsonOut {
				res = &results{}
			}
			if code := finish(res, tc.report(res)); code != tc.want {
				t.Errorf("%s, -json=%v: exit code %d, want %d", tc.name, jsonOut, code, tc.want)
			}
		}
	}
}
