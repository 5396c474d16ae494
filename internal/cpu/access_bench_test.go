package cpu_test

import (
	"testing"

	"metalsvm/internal/cpu"
	"metalsvm/internal/pgtable"
	"metalsvm/internal/scc"
	"metalsvm/internal/sim"
)

// benchPages is how many shared pages benchOnChip maps MPBT for body.
const benchPages = 64

// benchOnChip runs body as core 0 of a booted paper chip. Besides the
// private memory Boot maps, benchPages shared frames are mapped MPBT at
// scc.VirtSharedBase, as the SVM layer maps them under lazy release, so
// stores there take the write-combine buffer.
func benchOnChip(b *testing.B, body func(c *cpu.Core, shared uint32)) {
	eng := sim.NewEngine()
	ch, err := scc.New(eng, scc.PaperSCC())
	if err != nil {
		b.Fatal(err)
	}
	ch.Boot(0, func(c *cpu.Core) {
		frame := ch.Layout().SharedBase() >> pgtable.PageShift
		for p := uint32(0); p < benchPages; p++ {
			c.Table.Map(scc.VirtSharedBase+p*pgtable.PageSize, frame+p,
				pgtable.Present|pgtable.Writable|pgtable.MPBT)
		}
		body(c, scc.VirtSharedBase)
	})
	eng.Run()
	eng.Shutdown()
}

// BenchmarkLoadL1Hit prices one 8-byte load that hits the L1: translation,
// the trace nil-check, the tag match, the copy and the cycle charge.
func BenchmarkLoadL1Hit(b *testing.B) {
	var sink uint64
	benchOnChip(b, func(c *cpu.Core, _ uint32) {
		const base = 0x1000 // private, write-through
		sink += c.Load64(base)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += c.Load64(base + uint32(i&3)*8)
		}
		b.StopTimer()
	})
	if sink == 1 {
		b.Log(sink)
	}
}

// BenchmarkStoreWCB prices one 8-byte store to MPBT memory: it merges into
// the write-combine buffer, and every fourth store moves to a new line and
// drains the full old one to memory as one DDR transaction.
func BenchmarkStoreWCB(b *testing.B) {
	benchOnChip(b, func(c *cpu.Core, shared uint32) {
		const words = benchPages * pgtable.PageSize / 8
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Store64(shared+uint32(i%words)*8, uint64(i))
		}
		b.StopTimer()
	})
}
