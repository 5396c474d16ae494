package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// busy spins for d on arithmetic the compiler cannot remove.
//
//go:noinline
func busy(d time.Duration) uint64 {
	var x uint64 = 1
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldProfileAttributesLeafFrames(t *testing.T) {
	const spin = 500 * time.Millisecond
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	sink += busy(spin)
	pprof.StopCPUProfile()

	byFunc, total, err := foldProfile(prof.Bytes(), func(fn string) string { return fn })
	if err != nil {
		t.Fatal(err)
	}
	var sum, inBusy float64
	for fn, s := range byFunc {
		sum += s
		if strings.HasPrefix(fn, "metalsvm/benchmark.busy") {
			inBusy += s
		}
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %v s, total is %v s", sum, total)
	}
	if total < 0.5*spin.Seconds() || total > 1.5*spin.Seconds() {
		t.Errorf("profile total %v s for a %v busy loop", total, spin)
	}
	if inBusy < 0.9*total {
		t.Errorf("%v of %v s folded to the busy loop, want at least 90 %%: %v", inBusy, total, byFunc)
	}

	// The same profile by layer: the test package is not a simulator layer.
	byLayer, _, err := foldProfile(prof.Bytes(), layerOf)
	if err != nil {
		t.Fatal(err)
	}
	if byLayer["other"] < 0.9*total {
		t.Errorf("by layer: %v, want the busy loop under other", byLayer)
	}
}

func TestFoldProfileRejectsGarbage(t *testing.T) {
	if _, _, err := foldProfile([]byte("not a profile"), layerOf); err == nil {
		t.Error("no error for input that is not gzip")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                                 "runtime",
		"runtime/internal/atomic.Load":                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":           "runtime",
		"metalsvm/internal/cache.(*Cache).Load":            "cache",
		"metalsvm/internal/sim.(*Engine).RunUntil":         "sim",
		"metalsvm/internal/svm.(*Handle).handleFault":      "svm",
		"metalsvm/internal/svm/repldir.(*System).commit":   "repldir",
		"metalsvm/internal/apps/laplace.(*SVMApp).sweep":   "apps",
		"metalsvm/internal/bench.runPingPongFull.func1":    "other",
		"metalsvm/internal/cpu.(*Core).Load64":             "cpu",
		"sync.(*Mutex).Lock":                               "other",
		"metalsvm/benchmark.main":                          "other",
		"":                                                 "other",
		"metalsvm/internal/interchip.(*Fabric).Cross":      "interchip",
		"metalsvm/internal/apps/kvstore.(*App).Main.func1": "apps",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
