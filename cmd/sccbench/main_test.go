package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"metalsvm/internal/bench"
)

// captureStdout returns what f prints to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	f()
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
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
			var o options
			if jsonOut {
				o.res = &results{}
			}
			report := func(o *options) bool { return tc.report(o.res) }
			var code int
			out := captureStdout(t, func() { code = harnesses(report)(&o) })
			if code != tc.want {
				t.Errorf("%s, -json=%v: exit code %d, want %d", tc.name, jsonOut, code, tc.want)
			}
			if jsonOut && !strings.HasPrefix(out, "{") {
				t.Errorf("%s, -json: printed %q, want the JSON results", tc.name, out)
			}
		}
	}
}
