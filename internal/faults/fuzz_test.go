package faults

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzParseConfig checks the chaos-argument parser on arbitrary input: it
// never panics, and an accepted argument has an all-digit seed and a spec
// that Presets lists, parsed to that preset's schedule. The seed corpus in
// testdata/fuzz holds every preset, TestParseConfigErrors' malformed
// arguments and a bare seed.
func FuzzParseConfig(f *testing.F) {
	f.Fuzz(func(t *testing.T, arg string) {
		cfg, err := ParseConfig(arg)
		if err != nil {
			return
		}
		seed, spec := SplitArg(arg)
		if seed == "" || strings.Trim(seed, "0123456789") != "" {
			t.Fatalf("ParseConfig(%q) accepted seed %q", arg, seed)
		}
		if !slices.Contains(Presets(), spec) {
			t.Fatalf("ParseConfig(%q) accepted spec %q", arg, spec)
		}
		if want, _ := PresetSpec(spec); !reflect.DeepEqual(cfg.Spec, want) {
			t.Fatalf("ParseConfig(%q) parsed spec %q to another schedule", arg, spec)
		}
	})
}
