// Package kvstore implements a sharded key-value service on MetalSVM — the
// serving-workload counterpart to the paper's HPC kernels. Values live in
// shared virtual memory: each shard's slots are owned by a server core and
// mutated through the strong consistency model's ownership protocol, while a
// read-only replica of the hot keys sits in an L2-re-enabling protected
// region (Section 6.4) that any client can read without ownership traffic.
// Requests travel over the hardened mailbox.
//
// The point of the application is not throughput but *graceful degradation*:
// every request carries a deadline and resolves to exactly one of three
// audited outcomes —
//
//	applied — acknowledged by a server (or satisfied from the replica);
//	          puts are applied to the store exactly once.
//	shed    — refused by a server's admission control before any state
//	          change (load shedding under overload).
//	expired — the deadline passed with no acknowledgement; a put may or
//	          may not have reached the store (the in-flight frames are
//	          unobservable), which the end-of-run audit accounts for as a
//	          "maybe applied" sequence.
//
// Robustness mechanics, all seeded-deterministic in simulated time:
// per-attempt timeouts with jittered exponential backoff, bounded retries
// under an overall request deadline, hedged hot reads that fall back to the
// read-only replica when a server is slow, queue-bound admission control on
// each server (plus server-side drops of queued requests whose deadline
// already passed), and per-shard failover along a static server chain when a
// liveness probe says the owner core crashed (the SVM dead-owner reclaim
// then migrates the shard's pages to the surviving server on first touch).
//
// Exactly-once writes need no consensus here because the workload is
// single-writer per key (each mutable key belongs to one client) and a
// put's store word encodes its sequence number: servers apply a put only if
// its sequence exceeds the stored one, so retries, duplicates and late
// frames are idempotent. The audit in Result() replays the per-key ledger
// against the final memory image and flags anything lost or double-applied.
package kvstore

import (
	"fmt"
	"math"

	"metalsvm/internal/kernel"
	"metalsvm/internal/mailbox"
	"metalsvm/internal/metrics"
	"metalsvm/internal/svm"
)

// Mail types (above SVM's MsgUser+0..2, the benchmarks' +8..11 and the
// replicated directory's +32..40).
const (
	msgKVRequest = kernel.MsgUser + 16 // client → server: [op, key, seq, token, deadlineLo, deadlineHi]
	msgKVReply   = kernel.MsgUser + 17 // server → client: [token, status, wordLo, wordHi]
	msgKVStop    = kernel.MsgUser + 18 // client → server: this client is done issuing
)

// Request ops and reply statuses.
const (
	opGet    = 0
	opPut    = 1
	opHotGet = 2 // read of the hot replica region through a server

	statusOK   = 0
	statusShed = 1
)

// The service's shape and its robustness policy. Every run uses these
// values; Params holds what callers vary.
const (
	// shards is the number of mutable shards; shard i's slots are owned by
	// server i mod servers.
	shards = 8
	// slotsPerShard is the number of 8-byte key slots per shard.
	slotsPerShard = 64
	// keyCount is the mutable key space size.
	keyCount = shards * slotsPerShard
	// servers is the number of server ranks. Servers occupy the *highest*
	// ranks of the worker group, so a "crash the last worker" schedule
	// kills a server and exercises failover.
	servers = 4

	// thinkCycles bounds a closed-loop client's uniform think time after
	// each resolution.
	thinkCycles uint64 = 400

	// putPermille and hotPermille split the op mix: puts to the mutable
	// store, reads of the hot read-only replica region, remainder are gets
	// through a server. hedgePermille of hot reads go to the server first
	// and hedge to the replica on timeout.
	putPermille   = 300
	hotPermille   = 300
	hedgePermille = 500

	// deadlineUS is the overall per-request deadline; attemptUS the
	// per-attempt timeout; retries the attempt bound. backoffCycles is the
	// base of the jittered exponential backoff between attempts.
	deadlineUS           = 400.0
	attemptUS            = 120.0
	retries              = 4
	backoffCycles uint64 = 2000
)

// WindowUS is the goodput reporting window in simulated microseconds.
const WindowUS = 200.0

// Params describes one kvstore run.
type Params struct {
	// Requests is the total request count across all clients.
	Requests int
	// Seed drives every client's operation mix, key choice, arrival
	// process and backoff jitter (per-client streams split from it).
	Seed uint64

	// OpenLoop, when true, issues requests on a precomputed exponential
	// arrival schedule (mean ArrivalUS between requests per client),
	// regardless of completion times — the overload-generating mode.
	// False is closed-loop: the next request follows the previous
	// resolution, after a uniform think time in [0, thinkCycles).
	OpenLoop  bool
	ArrivalUS float64

	// ServiceCycles is a server's compute cost per applied request.
	// QueueBound is the admission-control bound: a request arriving at a
	// server whose queue already holds QueueBound admitted requests is shed
	// with a cheap refusal before any state change.
	ServiceCycles uint64
	QueueBound    int
}

// DefaultParams returns a small but fully-featured configuration (tests and
// smoke runs scale Requests up or down).
func DefaultParams() Params {
	return Params{
		Requests:      20000,
		Seed:          1,
		ArrivalUS:     3,
		ServiceCycles: 600,
		QueueBound:    16,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Requests < 1 {
		return fmt.Errorf("kvstore: %d requests", p.Requests)
	}
	if p.QueueBound < 1 {
		return fmt.Errorf("kvstore: queue bound %d", p.QueueBound)
	}
	if p.OpenLoop && p.ArrivalUS <= 0 {
		return fmt.Errorf("kvstore: open loop needs a positive mean arrival interval")
	}
	return nil
}

// FitsWorkers checks that n SVM workers host the servers plus at least one
// client.
func FitsWorkers(n int) error {
	if n < servers+1 {
		return fmt.Errorf("kvstore: %d workers cannot host %d servers plus a client", n, servers)
	}
	return nil
}

// --- Deterministic value encoding ----------------------------------------

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// seqShift splits a store word into a 24-bit sequence number and a 40-bit
// value hash. One word per slot means one Store64 per apply and one Load64
// per audit read — the slot can never tear across a value and a separate
// sequence field.
const seqShift = 40

// encode builds the store word for put #seq (seq ≥ 1) of a key.
func encode(key uint32, seq uint64) uint64 {
	h := mix64(uint64(key)*0x9e3779b97f4a7c15 + seq*0xd1342543de82ef95)
	return seq<<seqShift | h&(1<<seqShift-1)
}

// wordSeq extracts the sequence number from a store word (0 = never
// written).
func wordSeq(w uint64) uint64 { return w >> seqShift }

// hotValue is the immutable content of hot replica slot i, written before
// the region is protected read-only.
func hotValue(i uint32) uint64 { return mix64(0xc0ffee ^ uint64(i)*0x9e3779b97f4a7c15) }

// rng is a per-client splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// permille draws a 0..999 roll.
func (r *rng) permille() int { return int(r.next() % 1000) }

// expUS draws an exponential interval with the given mean in microseconds.
func (r *rng) expUS(mean float64) float64 {
	// 53-bit uniform in (0,1]; the log of it is finite.
	u := (float64(r.next()>>11) + 1) / (1 << 53)
	return -mean * math.Log(u)
}

// --- The application ------------------------------------------------------

// App is one kvstore run over an SVM worker group.
type App struct {
	p Params

	ranks   int
	clients int   // ranks [0, clients) are clients, [clients, ranks) servers
	workers []int // worker core ids, indexed by rank

	// Per-rank state, indexed by rank and disjoint between ranks.
	cl []clientState
	sv []serverState

	// arrived marks ranks whose Main ran to completion (a crashed server
	// never arrives).
	arrived []bool

	// Audit snapshot read by rank 0 inside the simulation after the drain
	// barrier (forcing dead-owner reclaims under a crash schedule).
	auditWords []uint64
	auditSum   uint64
	endUS      float64
}

// New prepares a run.
func New(p Params) *App {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &App{p: p}
}

// auditDelayCycles keeps rank 0 busy (~375 µs at 533 MHz) between the drain
// barrier and the audit reads, so late retransmissions and an after-done
// crash schedule land first.
const auditDelayCycles = 200_000

// Main is the per-kernel body. Rank layout: the highest ranks are the
// servers; everyone else is a client. All ranks participate in the
// collective allocations, the read-only protection and the barriers.
func (a *App) Main(h *svm.Handle) {
	k := h.Kernel()
	c := k.Core()
	rank := h.Rank()
	if a.cl == nil {
		a.ranks = len(h.Workers())
		if err := FitsWorkers(a.ranks); err != nil {
			panic(err)
		}
		a.workers = append([]int(nil), h.Workers()...)
		a.clients = a.ranks - servers
		a.cl = make([]clientState, a.clients)
		a.sv = make([]serverState, servers)
		a.arrived = make([]bool, a.ranks)
	}

	// Register the role handlers before any collective: dissemination
	// barriers release members at different times, so a freshly released
	// client can fire its first request at a server still parked in the
	// same barrier — the handler must already be there to receive it.
	if rank >= a.clients {
		st := &a.sv[rank-a.clients]
		k.RegisterHandler(msgKVRequest, func(k *kernel.Kernel, m mailbox.Msg) {
			a.handleRequest(st, k, m)
		})
		k.RegisterHandler(msgKVStop, func(*kernel.Kernel, mailbox.Msg) {
			a.handleStop(st)
		})
	} else {
		st := &a.cl[rank]
		k.RegisterHandler(msgKVReply, func(_ *kernel.Kernel, m mailbox.Msg) {
			if m.U32(0) != st.reply.token || st.reply.got {
				return // stale reply from a resolved request
			}
			st.reply.got = true
			st.reply.status = m.U32(1)
			st.reply.word = uint64(m.U32(2)) | uint64(m.U32(3))<<32
		})
	}

	// Shared layout: one collective allocation per region. Mutable slots
	// start zeroed (sequence 0 = never written).
	mutBytes := uint32(keyCount) * 8
	hotBytes := uint32(keyCount) * 8
	mutBase := h.Alloc(mutBytes)
	hotBase := h.Alloc(hotBytes)
	if rank == 0 {
		for i := 0; i < keyCount; i++ {
			c.Store64(hotBase+uint32(i)*8, hotValue(uint32(i)))
		}
	}
	h.Barrier()
	h.ProtectReadOnly(hotBase, hotBytes)

	if rank >= a.clients {
		a.runServer(h, rank-a.clients, mutBase, hotBase)
	} else {
		a.runClient(h, rank, mutBase, hotBase)
	}

	// Drain barrier: servers leave their serve loops once every client has
	// sent its stop notice; clients join as their workloads resolve. After
	// it, every client-side outcome is final.
	h.Barrier()

	if rank == 0 {
		// In-simulation audit: read every mutable slot through the SVM.
		// Under a crash schedule this forces dead-owner reclaims of the
		// dead server's pages — the same access path a recovering service
		// would use.
		c.Cycles(auditDelayCycles)
		words := make([]uint64, keyCount)
		var sum uint64
		for i := range words {
			w := c.Load64(mutBase + uint32(i)*8)
			words[i] = w
			sum += mix64(w + uint64(i))
		}
		a.auditWords = words
		a.auditSum = sum
		a.endUS = c.Now().Microseconds()
	}
	h.KernelBarrier()
	a.arrived[rank] = true
}

// shardOf maps a key to its shard; primaryOf maps a shard to the server
// *index* (0-based within the server group) at the head of its chain.
func shardOf(key uint32) int  { return int(key) / slotsPerShard }
func primaryOf(shard int) int { return shard % servers }

// slotAddr is the mutable slot address of a key.
func slotAddr(base, key uint32) uint32 { return base + key*8 }

// mergedHistograms folds the per-client latency histograms into one per
// class.
func (a *App) mergedHistograms() (get, put, hot metrics.Histogram) {
	for i := range a.cl {
		get.Merge(&a.cl[i].latGet)
		put.Merge(&a.cl[i].latPut)
		hot.Merge(&a.cl[i].latHot)
	}
	return
}
