package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden stdout files")

// goldenEnv, when set, makes the test binary act as laplace itself: TestMain
// hands over to main, so every row goes through the real flag handling and
// prints to a real stdout.
const goldenEnv = "LAPLACE_GOLDEN_RUN"

// crash matches what a Go panic leaves on stderr: the panic line or a
// goroutine header of its stack dump.
var crash = regexp.MustCompile(`panic: |goroutine \d+ \[`)

func TestMain(m *testing.M) {
	if os.Getenv(goldenEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// goldenRows are the invocations whose stdout and exit code are pinned in
// testdata/<name>.golden; simulated time is bit-deterministic, so any
// difference is a real change.
var goldenRows = []struct {
	name string
	args []string
}{
	{"strong", []string{"-rows", "32", "-cols", "32", "-iters", "5", "-cores", "4", "-model", "strong"}},
	{"lazy", []string{"-rows", "32", "-cols", "32", "-iters", "5", "-cores", "4", "-model", "lazy"}},
	{"ircce", []string{"-rows", "32", "-cols", "32", "-iters", "5", "-cores", "4", "-model", "ircce"}},
	{"strong-trace-stats", []string{"-rows", "32", "-cols", "32", "-iters", "5", "-cores", "4", "-model", "strong", "-trace", "-stats"}},

	// Usage errors: exit 2 before anything runs, nothing on stdout. The
	// misfit rows' grid overflows the SVM's shared pages and an iRCCE
	// rank's private memory.
	{"reject-cores-zero", []string{"-cores", "0"}},
	{"reject-unknown-model", []string{"-model", "nosuch"}},
	{"reject-svm-misfit", []string{"-rows", "2048", "-cols", "2048", "-cores", "2"}},
	{"reject-ircce-misfit", []string{"-rows", "2048", "-cols", "2048", "-cores", "2", "-model", "ircce"}},
}

// TestGolden compares each row's exit code and stdout bytes with its golden
// file. go test ./cmd/laplace -update rewrites the files.
func TestGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(exe, row.args...)
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
			// A Go panic exits 2 as a usage error does: the stack tells them apart.
			if crash.Match(stderr.Bytes()) {
				t.Fatalf("laplace %s crashed:\n%s", strings.Join(row.args, " "), stderr.Bytes())
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
				t.Errorf("laplace %s differs from %s\ngot:\n%s\nwant:\n%s\nstderr:\n%s",
					strings.Join(row.args, " "), path, got, want, stderr.Bytes())
			}
		})
	}
}
