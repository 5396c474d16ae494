package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// vetRunEnv, when set, makes the test binary act as metalsvm-vet itself, so
// go vet can take it as its -vettool. Its value names a file to which each
// analyzed package's import path is appended: the tree test reads it to see
// which packages the run reached.
const vetRunEnv = "METALSVM_VET_RUN"

func TestMain(m *testing.M) {
	if log := os.Getenv(vetRunEnv); log != "" {
		if args := os.Args[1:]; len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
			recordPackage(log, args[0])
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// recordPackage appends the import path of the package a vet config
// describes to log, unless cmd/go asks only for its facts.
func recordPackage(log, cfgPath string) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return // unitcheck reports it
	}
	var cfg vetConfig
	if json.Unmarshal(data, &cfg) != nil || cfg.VetxOnly {
		return
	}
	f, err := os.OpenFile(log, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	// One short O_APPEND write: concurrent tool runs do not interleave. A
	// lost line fails the tree test as a package never analyzed.
	_, _ = f.WriteString(cfg.ImportPath + "\n")
	_ = f.Close()
}

// run runs name with args in dir, with the test binary standing in for
// metalsvm-vet, and returns the exit code, the combined output and the
// packages the tool analyzed.
func run(t *testing.T, dir, name string, args ...string) (int, string, []string) {
	t.Helper()
	log := filepath.Join(t.TempDir(), "packages")
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), vetRunEnv+"="+log)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	code := 0
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(log)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	return code, out.String(), strings.Fields(string(data))
}

// vet runs go vet ./... in dir with the test binary as its vet tool.
func vet(t *testing.T, dir string) (int, string, []string) {
	t.Helper()
	return run(t, dir, "go", "vet", "-vettool="+tool(t), "./...")
}

// tool is the test binary's path, which TestMain turns into metalsvm-vet.
func tool(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// TestTreeIsClean runs the suite through go vet over the root module and
// over benchmark/, a module of its own that the root's ./... does not reach:
// the repo must stay free of determinism and tracing violations.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("vets both modules")
	}
	for _, tc := range []struct{ dir, reaches string }{
		{"../..", "metalsvm/internal/sim"},
		{"../../benchmark", "metalsvm/benchmark"},
	} {
		trackTree(t, tc.dir)
		code, out, pkgs := vet(t, tc.dir)
		if code != 0 {
			t.Errorf("go vet in %s exited %d:\n%s", tc.dir, code, out)
		}
		if !slices.Contains(pkgs, tc.reaches) {
			t.Errorf("go vet in %s never analyzed %s; analyzed %q", tc.dir, tc.reaches, pkgs)
		}
	}
}

// trackTree lists every directory under root from the test process. go vet
// reads the sources in child processes, which go test's result cache does
// not see; a listing it does see records each entry's size and mtime, so an
// edit anywhere in the tree reruns the test instead of reusing a pass.
func trackTree(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestViolationFailsVet vets testdata/violation, a module whose engine
// package reads the host clock: go vet must fail and name the analyzer.
func TestViolationFailsVet(t *testing.T) {
	code, out, _ := vet(t, filepath.Join("testdata", "violation"))
	if code == 0 || !strings.Contains(out, "time.Now") || !strings.Contains(out, "[simtime]") {
		t.Fatalf("go vet exited %d, want a [simtime] finding on time.Now:\n%s", code, out)
	}
}

// TestDirectRunIsUsageError: the tool runs only under go vet; given package
// patterns directly, it prints the usage and exits 2.
func TestDirectRunIsUsageError(t *testing.T) {
	code, out, _ := run(t, ".", tool(t), "./...")
	if code != 2 || !strings.HasPrefix(out, "usage: go vet -vettool=") || strings.Count(out, "\n") != 1 {
		t.Fatalf("metalsvm-vet ./... exited %d with %q, want 2 and a one-line usage", code, out)
	}
}
