package cache

import "fmt"

// WCBStats counts write-combine buffer events.
type WCBStats struct {
	Writes     uint64 // stores merged into the buffer
	Flushes    uint64 // buffer drains (each one memory transaction)
	FullLines  uint64 // flushes whose line was completely written
	ReadStalls uint64 // reads that forced a flush to see fresh data
}

// Flushed is a drained WCB line the caller must write to memory: Data's
// bytes are valid where Mask has a 1 bit (bit i covers byte i).
type Flushed struct {
	LineAddr uint32
	Mask     uint32
	Data     [LineSize]byte
}

// Full reports whether every byte of the line was written.
func (f Flushed) Full() bool { return f.Mask == 0xffffffff }

// WCB is the SCC's one-line write-combine buffer. Stores to MPBT-typed
// memory are gathered here and forwarded to memory one line at a time: when
// a store touches a different line, or on an explicit flush (which is how
// the SVM system publishes modifications at release points).
type WCB struct {
	valid    bool
	lineAddr uint32
	mask     uint32
	data     [LineSize]byte
	stats    WCBStats
}

// NewWCB returns an empty buffer.
func NewWCB() *WCB { return &WCB{} }

// Stats returns a snapshot of the counters.
func (w *WCB) Stats() WCBStats { return w.stats }

// Write merges a store into the buffer. If the store touches a different
// line than the one currently buffered, the old line is returned for the
// caller to write to memory (one transaction). The store must not cross a
// line boundary.
func (w *WCB) Write(paddr uint32, src []byte) (drain Flushed, drained bool) {
	checkWithinLine(paddr, len(src))
	la := LineAddr(paddr)
	if w.valid && w.lineAddr != la {
		drain, drained = w.take(), true
	}
	if !w.valid {
		w.valid = true
		w.lineAddr = la
		w.mask = 0
	}
	off := paddr & lineMask
	CopySmall(w.data[off:], src)
	w.mask |= uint32((uint64(1)<<uint(len(src)) - 1) << off)
	w.stats.Writes++
	return drain, drained
}

// Flush drains the buffer if it holds data.
func (w *WCB) Flush() (Flushed, bool) {
	if !w.valid {
		return Flushed{}, false
	}
	return w.take(), true
}

func (w *WCB) take() Flushed {
	f := Flushed{LineAddr: w.lineAddr, Mask: w.mask, Data: w.data}
	w.valid = false
	w.stats.Flushes++
	if f.Full() {
		w.stats.FullLines++
	}
	return f
}

// CoversRead reports whether a read of [paddr, paddr+n) overlaps the
// buffered line. The CPU must flush before reading such bytes from memory,
// or it would miss its own most recent stores; the model counts these as
// read stalls.
func (w *WCB) CoversRead(paddr uint32, n int) bool {
	if !w.valid {
		return false
	}
	lo, hi := uint64(paddr), uint64(paddr)+uint64(n)
	blo, bhi := uint64(w.lineAddr), uint64(w.lineAddr)+LineSize
	overlap := lo < bhi && blo < hi
	if overlap {
		w.stats.ReadStalls++
	}
	return overlap
}

// Apply writes the flushed bytes into a 32-byte line buffer (helper for the
// memory system: read-modify-write of the masked bytes).
func (f Flushed) Apply(lineData []byte) {
	if len(lineData) != LineSize {
		panic(fmt.Sprintf("cache: Apply to %d bytes", len(lineData)))
	}
	for i := 0; i < LineSize; i++ {
		if f.Mask&(1<<uint(i)) != 0 {
			lineData[i] = f.Data[i]
		}
	}
}
