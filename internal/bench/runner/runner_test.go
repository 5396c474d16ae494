package runner

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		p := New(workers)
		const n = 257
		var hits [n]atomic.Int32
		p.Run(n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestRunZeroAndNegative(t *testing.T) {
	p := New(4)
	called := false
	p.Run(0, func(int) { called = true })
	p.Run(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

func TestNewDefaultsToHostParallelism(t *testing.T) {
	if got, want := New(0).workers, runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default pool has %d workers, want GOMAXPROCS = %d", got, want)
	}
	if got := New(3).workers; got != 3 {
		t.Fatalf("New(3) has %d workers, want 3", got)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				if s, ok := r.(string); !ok || s != "boom" {
					t.Fatalf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			p.Run(8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

func TestRunSerialOrder(t *testing.T) {
	// A one-worker pool must preserve index order exactly (it is the
	// serial fallback the equivalence tests compare against).
	p := New(1)
	var order []int
	p.Run(5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}
