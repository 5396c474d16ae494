package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden stdout files")

// goldenEnv, when set, makes the test binary act as sccbench itself: TestMain
// hands the arguments to run, so every golden row goes through the real flag
// handling and prints to a real stdout.
const goldenEnv = "SCCBENCH_GOLDEN_RUN"

func TestMain(m *testing.M) {
	if os.Getenv(goldenEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// goldenRows are the invocations whose stdout and exit code are pinned in
// testdata/<name>.golden. Simulated time is bit-deterministic, so any
// difference is a real change; -json prints full float64 values, so a
// one-ulp change to a latency shows even where the tables round it. -bench
// prints host seconds and stays out; the full-chip -check and the 2-chip
// -chaos 5,crash are CI steps of their own.
var goldenRows = []struct {
	name string
	args []string
}{
	{"fig6", []string{"-rounds", "50", "fig6"}},
	{"fig7", []string{"-rounds", "50", "fig7"}},
	{"table1", []string{"table1"}},
	{"ablation", []string{"-iters", "1", "ablation"}},
	{"fig7-json", []string{"-json", "-rounds", "20", "fig7"}},
	{"fig6-2chips", []string{"-chips", "2", "-grid", "2x2x2", "-rounds", "20", "fig6"}},
	{"scale-2chips", []string{"-chips", "2", "-grid", "2x2x2", "scale"}},
	{"fig9-2chips", []string{"-chips", "2", "-grid", "1x1x2", "-iters", "1", "fig9"}},
	{"check-2chips", []string{"-chips", "2", "-grid", "2x2x2", "-check"}},
	{"sanitize", []string{"-sanitize"}},
	{"chaos-drops", []string{"-rounds", "50", "-iters", "8", "-chaos", "2,drops"}},
	{"chaos-crash", []string{"-rounds", "50", "-iters", "20", "-chaos", "4,crash"}},
	{"chaos-crash-json", []string{"-rounds", "50", "-iters", "8", "-chaos", "4,crash", "-json"}},
	{"metrics-fig6", []string{"-rounds", "50", "-metrics", "fig6"}},
	{"metrics-all", []string{"-rounds", "50", "-iters", "1", "-metrics", "all"}},
	{"fig7-paper", []string{"-rounds", "400", "fig7"}},
	{"profile-table1", []string{"-profile", "table1"}},
	{"comm", []string{"-rounds", "20", "comm"}},
	{"kvstore", []string{"-kv-requests", "500", "kvstore"}},
	{"kvstore-json", []string{"-json", "-kv-requests", "500", "kvstore"}},
	{"info", []string{"info"}},

	// Usage errors: exit 2 before anything runs, nothing on stdout. A flag
	// the selected mode does not read is one, -chips/-grid included.
	{"reject-table1-chips", []string{"-chips", "2", "table1"}},
	{"reject-bench-chips", []string{"-bench", "-chips", "2"}},
	{"reject-bench-grid", []string{"-bench", "-grid", "2x2x2"}},
	{"reject-bench-baseline-topology", []string{"-bench", "-baseline", "-chips", "2", "-grid", "2x2x1"}},
	{"reject-sanitize-chips", []string{"-sanitize", "-chips", "2"}},
	{"reject-sanitize-grid", []string{"-sanitize", "-grid", "2x2x2"}},
	{"reject-metrics-chips", []string{"-metrics", "-chips", "2", "fig6"}},
	{"reject-unknown-command", []string{"nosuch"}},
	{"reject-check-sanitize", []string{"-check", "-sanitize"}},
	{"reject-sanitize-json", []string{"-json", "-sanitize"}},
	{"reject-fig6-baseline", []string{"-baseline", "-rounds", "20", "fig6"}},
	{"reject-fig6-kv-seed", []string{"-kv-seed", "3", "fig6"}},
	{"reject-chaos-bad-seed", []string{"-chaos", "0x10"}},
	// A size below 1, or a machine with fewer than two cores, is one too.
	{"reject-grid-zero", []string{"-grid", "0x0x0", "fig6"}},
	{"reject-chips-zero", []string{"-chips", "0", "fig6"}},
	{"reject-grid-one-core", []string{"-grid", "1x1x1", "fig7"}},
	{"reject-rounds-zero", []string{"-rounds", "0", "fig6"}},
	{"reject-iters-zero", []string{"-iters", "0", "fig9"}},
	{"reject-kv-requests-zero", []string{"-kv-requests", "0", "kvstore"}},
	// So is a kvstore machine without a worker for each server plus a
	// client; on the crash schedule each chip's directory managers are not
	// workers (six cores leave three).
	{"reject-kv-small-grid", []string{"-grid", "1x2x1", "kvstore"}},
	{"reject-kv-crash-managers", []string{"-grid", "2x3x1", "kvstore"}},
	// -chaos applies the same rules to its KV cell, and rejects a machine
	// whose chips leave no SVM worker beside the directory managers the
	// crash cells reserve.
	{"reject-chaos-small-grid", []string{"-grid", "1x2x1", "-chaos", "4,crash"}},
	{"reject-chaos-drops-small-grid", []string{"-grid", "1x2x1", "-chaos", "2,drops"}},
	{"reject-chaos-three-core", []string{"-grid", "1x3x1", "-chaos", "4,crash"}},
	{"reject-chaos-crash-managers", []string{"-grid", "2x3x1", "-chaos", "4,crash"}},
}

// TestGolden runs each row in a fresh working directory (the chaos harness
// writes its dump file there on failure) and compares the exit code and the
// stdout bytes with the golden file. go test ./cmd/sccbench -run Golden
// -update rewrites the files.
func TestGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(exe, row.args...)
			cmd.Dir = t.TempDir()
			cmd.Env = append(os.Environ(), goldenEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				code = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("exit %d\n%s", code, stdout.Bytes())

			path := filepath.Join("testdata", row.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("sccbench %s differs from %s at %s\nstderr:\n%s",
					strings.Join(row.args, " "), path, firstDiff(got, string(want)), stderr.Bytes())
			}
		})
	}
}

// firstDiff names the first line where got and want part.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		switch {
		case i >= len(g) || i >= len(w):
			return fmt.Sprintf("line %d: got %d lines, want %d", i+1, len(g), len(w))
		case g[i] != w[i]:
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
}
