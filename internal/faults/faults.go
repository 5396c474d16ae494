// Package faults implements deterministic, seeded fault injection for the
// simulated SCC platform. The injector follows the same discipline as the
// event stream: every decision method is safe on a nil *Injector and
// costs one branch, so a run without fault injection draws no random
// numbers, charges no simulated time, and stays bit-identical to a plain
// run.
//
// Faults are drawn from a splitmix64 stream seeded by Config.Seed. The
// simulator executes exactly one process at a time in (time, sequence)
// order, so the injector's decisions are consumed in a deterministic order:
// the same seed and the same fault schedule replay bit-identically.
//
// Injectable faults, per mesh route:
//
//   - DDR:  transaction delay (synchronous reads cannot be meaningfully
//     dropped — a lost DDR packet is retried by the memory controller, which
//     degenerates to a delay).
//   - MPB:  access delay on the message-passing buffers.
//   - TAS:  lost test-and-set requests (the lock attempt fails) and lost
//     releases (the register stays set — a stuck lock).
//   - Mail: dropped, duplicated, delayed or corrupted mailbox deposits.
//   - IPI:  dropped or delayed inter-processor interrupts through the GIC.
//   - Link: delays on transactions crossing the inter-chip interconnect
//     (multi-chip topologies only; single-chip runs never roll this route).
//
// Plus transient core stalls charged on synchronous operations.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"metalsvm/internal/sim"
)

// Route names a fault-injection site in the platform.
type Route uint8

const (
	// DDR is the off-die memory path (reads, word and line writes).
	DDR Route = iota
	// MPB is the on-die message-passing buffer path.
	MPB
	// TAS is the test-and-set register path.
	TAS
	// Mail is the mailbox deposit path (a protocol-level route: drops,
	// duplicates and corruption apply to whole mail frames).
	Mail
	// IPI is the interrupt path through the GIC.
	IPI
	// Link is the inter-chip interconnect path: every transaction that
	// crosses a chip boundary (remote DDR, MPB, TAS, mail, IPI delivery)
	// additionally rolls on this route, modeling the serial link's own
	// loss and congestion independently of the on-die mesh routes.
	Link
	// NumRoutes bounds the Route enum.
	NumRoutes
)

var routeNames = [NumRoutes]string{"ddr", "mpb", "tas", "mail", "ipi", "link"}

func (r Route) String() string {
	if int(r) < len(routeNames) {
		return routeNames[r]
	}
	return fmt.Sprintf("route(%d)", uint8(r))
}

// Kind classifies an injected fault (trace Arg2, stats).
type Kind uint8

const (
	// Drop: the packet vanished.
	Drop Kind = iota
	// Dup: a stale duplicate will be redelivered.
	Dup
	// Delay: extra latency on the transaction.
	Delay
	// Corrupt: payload bytes were flipped.
	Corrupt
	// Stall: a transient core stall.
	Stall
	// NumKinds bounds the Kind enum.
	NumKinds
)

var kindNames = [NumKinds]string{"drop", "dup", "delay", "corrupt", "stall"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// RouteSpec sets the fault probabilities for one route. Probabilities are
// in permille (1/1000); a zero spec injects nothing.
type RouteSpec struct {
	// DropPermille: probability a packet on this route is lost.
	DropPermille uint32
	// DupPermille: probability a delivered mail frame is redelivered later
	// as a stale duplicate (Mail route only).
	DupPermille uint32
	// DelayPermille: probability a transaction is delayed by DelayCycles.
	DelayPermille uint32
	// DelayCycles: extra core cycles charged when a delay fires.
	DelayCycles uint64
	// CorruptPermille: probability a delivered mail frame has a byte
	// flipped (Mail route only).
	CorruptPermille uint32
}

func (rs RouteSpec) enabled() bool {
	return rs.DropPermille != 0 || rs.DupPermille != 0 ||
		rs.DelayPermille != 0 || rs.CorruptPermille != 0
}

// Crash schedules a permanent core crash: the core halts and never executes
// again — distinct from a transient Stall. Crashes are schedule-driven, not
// probabilistic: they consume no randomness, so adding one to a spec never
// perturbs the random stream of the probabilistic fault classes.
type Crash struct {
	// Core is the core to kill, or one of the Crash* sentinels below, which
	// the machine resolves against its replicated-directory role assignment
	// (sentinels are inert on machines without a replicated directory).
	Core int
	// AtUS, when nonzero, crashes the core at this absolute simulated time
	// (microseconds).
	AtUS float64
	// AfterDoneUS, when nonzero, crashes the core this many simulated
	// microseconds after its kernel main returns — the "owner dies right
	// after producing data others still need" schedule.
	AfterDoneUS float64
}

// Partition is a timed full outage of the inter-chip link: every message
// crossing a chip boundary inside [FromUS, ToUS) is dropped — mailbox
// deposits, their retransmissions, and cross-chip interrupt deliveries.
// At ToUS the link heals and the hardened protocols' retransmission timers
// redeliver everything that was lost. Like crashes, partitions are
// schedule-driven: the window check consumes no randomness, so adding one
// never perturbs the probabilistic fault streams. A zero window (FromUS ==
// ToUS == 0) is a marker for the chaos harness, which computes concrete
// times from a calibration run; it never fires by itself.
type Partition struct {
	// FromUS is the start of the outage in absolute simulated microseconds.
	FromUS float64
	// ToUS is the heal time; the window is [FromUS, ToUS).
	ToUS float64
}

// marker reports whether the partition is an unresolved harness marker.
func (p Partition) marker() bool { return p.FromUS == 0 && p.ToUS == 0 }

// Sentinel values for Crash.Core, resolved by the machine against its
// replicated-directory role assignment. A sentinel crash with zero AtUS and
// AfterDoneUS is a marker for the chaos harness (which computes concrete
// times from a calibration run) and schedules nothing by itself.
const (
	// CrashPrimaryManager kills the initial primary directory manager.
	CrashPrimaryManager = -2
	// CrashBackupManager kills the first backup directory manager.
	CrashBackupManager = -3
	// CrashLastWorker kills the highest-numbered SVM worker core.
	CrashLastWorker = -4
)

// Spec is a complete fault schedule.
type Spec struct {
	// Routes holds the per-route fault probabilities, indexed by Route.
	Routes [NumRoutes]RouteSpec
	// StallPermille: probability a synchronous operation additionally
	// stalls the issuing core for StallCycles.
	StallPermille uint32
	// StallCycles: length of an injected transient core stall.
	StallCycles uint64
	// Crashes is the permanent-crash schedule.
	Crashes []Crash
	// Partitions is the inter-chip link outage schedule.
	Partitions []Partition
}

// HasPartitionMarker reports whether the spec carries unresolved partition
// markers the chaos harness must replace with concrete windows.
func (sp Spec) HasPartitionMarker() bool {
	for _, p := range sp.Partitions {
		if p.marker() {
			return true
		}
	}
	return false
}

// Enabled reports whether the spec can inject anything at all.
func (sp Spec) Enabled() bool {
	if sp.StallPermille != 0 || len(sp.Crashes) != 0 || len(sp.Partitions) != 0 {
		return true
	}
	for _, rs := range sp.Routes {
		if rs.enabled() {
			return true
		}
	}
	return false
}

// Config seeds and selects a fault schedule. The zero Spec injects nothing
// (useful to exercise the hardened protocols without faults).
type Config struct {
	// Seed selects the deterministic fault stream.
	Seed uint64
	// Spec is the fault schedule.
	Spec Spec
	// NoHarden disables the protocol hardening (mailbox retransmission,
	// retry backoff, rescue scans) while keeping injection active — the
	// configuration that demonstrates why hardening is needed: drops and
	// stuck locks then hang until the watchdog reports them.
	NoHarden bool
}

// Stats counts the injector's decisions. Host-side counters; they charge no
// simulated time.
type Stats struct {
	// Decisions is the number of random draws consumed.
	Decisions uint64
	// Per-route injection counts, indexed by Route.
	Drops       [NumRoutes]uint64
	Dups        [NumRoutes]uint64
	Delays      [NumRoutes]uint64
	Corruptions [NumRoutes]uint64
	// Stalls counts injected transient core stalls.
	Stalls uint64
	// Crashes counts permanent core crashes that actually fired.
	Crashes uint64
	// PartitionDrops counts messages suppressed by a link partition window
	// (also counted in Drops[Link], which is where they inject).
	PartitionDrops uint64
}

// Injected returns the total number of injected faults of any kind.
// PartitionDrops are not added separately — they already inject as
// Drops[Link].
func (s Stats) Injected() uint64 {
	total := s.Stalls + s.Crashes
	for r := 0; r < int(NumRoutes); r++ {
		total += s.Drops[r] + s.Dups[r] + s.Delays[r] + s.Corruptions[r]
	}
	return total
}

// RouteStats is one route's injection record — the per-route breakdown the
// chaos harness's JSON summary carries so CI can assert that a schedule
// actually injected on every route it configures.
type RouteStats struct {
	Drops       uint64 `json:"drops"`
	Dups        uint64 `json:"dups"`
	Delays      uint64 `json:"delays"`
	Corruptions uint64 `json:"corruptions"`
}

// PerRoute returns the per-route injection counts keyed by route name.
func (s Stats) PerRoute() map[string]RouteStats {
	m := make(map[string]RouteStats, NumRoutes)
	for r := Route(0); r < NumRoutes; r++ {
		rs := RouteStats{
			Drops:       s.Drops[r],
			Dups:        s.Dups[r],
			Delays:      s.Delays[r],
			Corruptions: s.Corruptions[r],
		}
		if rs == (RouteStats{}) {
			continue // keep the JSON summary to routes that saw activity
		}
		m[r.String()] = rs
	}
	return m
}

// Injector draws fault decisions from a seeded deterministic stream. All
// methods are nil-safe: a nil injector never injects and consumes no
// randomness.
//
// Two stream families coexist. Protocol-level faults (TAS, Mail, IPI drops,
// duplicates, corruption) draw from one global stream: they fire from
// globally ordered effect contexts, so their draw order is the engine's
// event order. The compute-path faults — DDR delay, MPB delay, transient
// stalls — fire from inside a core's compute segments, between sync points;
// they draw from per-core streams (see BindCores) so each core's sequence
// depends only on its own operation order, never on cross-core interleaving.
// The split defines every chaos schedule: merging the streams would change
// which operation each fault hits.
type Injector struct {
	cfg   Config
	stats Stats
	// streams[0] is the global stream and streams[1+c] core c's.
	streams []stream
}

// Global selects the global stream where a draw takes a core.
const Global = -1

// stream is one splitmix64 fault stream plus its stats shard.
type stream struct {
	state     uint64
	decisions uint64
	delays    [NumRoutes]uint64
	stalls    uint64
}

// NewInjector builds an injector for the configuration.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, streams: []stream{{state: cfg.Seed}}}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw advances the splitmix64 stream and counts the decision.
func (st *stream) draw() uint64 {
	st.decisions++
	st.state += 0x9e3779b97f4a7c15
	return mix64(st.state)
}

// roll draws one decision with probability permille/1000. A zero
// probability consumes no randomness, so disabled fault classes perturb
// nothing — not even the stream position of enabled ones on other sites.
func (st *stream) roll(permille uint32) bool {
	return permille != 0 && st.draw()%1000 < uint64(permille)
}

// BindCores sizes the per-core fault streams. The platform calls it once at
// machine build, before any core-parameterized draw; each core's stream is
// seeded with mix64 independently of the others and of the global stream.
// Nil-safe.
func (in *Injector) BindCores(n int) {
	if in == nil {
		return
	}
	in.streams = in.streams[:1]
	for c := 0; c < n; c++ {
		in.streams = append(in.streams, stream{state: mix64(in.cfg.Seed ^ 0x9e3779b97f4a7c15*uint64(c+1))})
	}
}

// Enabled reports whether the injector can fire at all. Nil-safe.
func (in *Injector) Enabled() bool {
	return in != nil && in.cfg.Spec.Enabled()
}

// Stats returns a snapshot of the decision counters, summing the streams'
// shards into the totals. Nil-safe.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	s := in.stats
	for i := range in.streams {
		st := &in.streams[i]
		s.Decisions += st.decisions
		s.Stalls += st.stalls
		for r := 0; r < int(NumRoutes); r++ {
			s.Delays[r] += st.delays[r]
		}
	}
	return s
}

// DelayCycles returns the extra latency (in core cycles) to charge on a
// transaction over the route, or zero, drawn from core's private stream or,
// for Global, the global one. Compute-path call sites (DDR and MPB latency
// models) draw from their core's stream so the draw sequence is a function
// of the core's own operation order only. A core's stream requires
// BindCores; nil-safe.
func (in *Injector) DelayCycles(core int, r Route) uint64 {
	if in == nil {
		return 0
	}
	rs, st := &in.cfg.Spec.Routes[r], &in.streams[1+core]
	if !st.roll(rs.DelayPermille) {
		return 0
	}
	st.delays[r]++
	return rs.DelayCycles
}

// StallCycles returns the length of an injected transient core stall (in
// core cycles), or zero, drawn from the given core's private stream.
// Requires BindCores; nil-safe.
func (in *Injector) StallCycles(core int) uint64 {
	if in == nil {
		return 0
	}
	st := &in.streams[1+core]
	if !st.roll(in.cfg.Spec.StallPermille) {
		return 0
	}
	st.stalls++
	return in.cfg.Spec.StallCycles
}

// Drop reports whether a packet on the route is lost. Nil-safe.
func (in *Injector) Drop(r Route) bool {
	if in == nil {
		return false
	}
	if !in.streams[0].roll(in.cfg.Spec.Routes[r].DropPermille) {
		return false
	}
	in.stats.Drops[r]++
	return true
}

// Dup reports whether a delivered frame on the route will be redelivered
// later as a stale duplicate. Nil-safe.
func (in *Injector) Dup(r Route) bool {
	if in == nil {
		return false
	}
	if !in.streams[0].roll(in.cfg.Spec.Routes[r].DupPermille) {
		return false
	}
	in.stats.Dups[r]++
	return true
}

// DupDelayCycles returns the deterministic redelivery delay for a duplicate
// frame, in core cycles. Nil-safe (zero).
func (in *Injector) DupDelayCycles() uint64 {
	if in == nil {
		return 0
	}
	return 8192 + in.streams[0].draw()%8192
}

// Corrupt decides whether to corrupt the frame and, if so, flips one
// deterministic bit in buf. Nil-safe; a nil injector or empty buf never
// corrupts.
func (in *Injector) Corrupt(r Route, buf []byte) bool {
	if in == nil || len(buf) == 0 {
		return false
	}
	g := &in.streams[0]
	if !g.roll(in.cfg.Spec.Routes[r].CorruptPermille) {
		return false
	}
	in.stats.Corruptions[r]++
	idx := g.draw() % uint64(len(buf))
	bit := g.draw() % 8
	buf[idx] ^= 1 << bit
	return true
}

// NoteCrash records a permanent core crash that fired. Crashes are
// schedule-driven — this only bumps the counter and draws no randomness.
// Nil-safe.
func (in *Injector) NoteCrash() {
	if in == nil {
		return
	}
	in.stats.Crashes++
}

// LinkPartitioned reports whether the inter-chip link is inside a scheduled
// partition outage at the given simulated time. Schedule-driven like
// crashes: the window check consumes no randomness, so a spec without
// partitions stays bit-identical whether or not the check runs. Nil-safe.
func (in *Injector) LinkPartitioned(now sim.Time) bool {
	if in == nil || len(in.cfg.Spec.Partitions) == 0 {
		return false
	}
	us := now.Microseconds()
	for _, p := range in.cfg.Spec.Partitions {
		if !p.marker() && us >= p.FromUS && us < p.ToUS {
			return true
		}
	}
	return false
}

// NotePartitionDrop records a message suppressed by a link partition. The
// drop injects on the Link route (so aggregate counters see it) and is
// additionally tallied separately for the partition-specific reporting.
// Nil-safe.
func (in *Injector) NotePartitionDrop() {
	if in == nil {
		return
	}
	in.stats.Drops[Link]++
	in.stats.PartitionDrops++
}

// --- Named presets --------------------------------------------------------

// presets maps schedule names to builders (values are functions so each
// caller gets a fresh Spec).
func presetSpecs() map[string]Spec {
	light := Spec{}
	light.Routes[Mail] = RouteSpec{DropPermille: 5, DelayPermille: 10, DelayCycles: 2000}
	light.Routes[IPI] = RouteSpec{DropPermille: 5}

	drops := Spec{}
	drops.Routes[Mail] = RouteSpec{DropPermille: 30, DupPermille: 5}
	drops.Routes[IPI] = RouteSpec{DropPermille: 30}
	drops.Routes[TAS] = RouteSpec{DropPermille: 10}

	corrupt := Spec{}
	corrupt.Routes[Mail] = RouteSpec{CorruptPermille: 30, DupPermille: 15, DropPermille: 5}

	delays := Spec{}
	delays.Routes[DDR] = RouteSpec{DelayPermille: 20, DelayCycles: 500}
	delays.Routes[MPB] = RouteSpec{DelayPermille: 20, DelayCycles: 300}
	delays.StallPermille = 5
	delays.StallCycles = 1000

	mixed := Spec{}
	mixed.Routes[DDR] = RouteSpec{DelayPermille: 5, DelayCycles: 300}
	mixed.Routes[MPB] = RouteSpec{DelayPermille: 5, DelayCycles: 200}
	mixed.Routes[TAS] = RouteSpec{DropPermille: 5}
	mixed.Routes[Mail] = RouteSpec{DropPermille: 15, DupPermille: 10, DelayPermille: 10,
		DelayCycles: 1500, CorruptPermille: 10}
	mixed.Routes[IPI] = RouteSpec{DropPermille: 15}
	mixed.StallPermille = 2
	mixed.StallCycles = 500

	// Sentinel crash markers: kill the primary directory manager mid-run
	// and a page owner right after it finishes. The chaos harness resolves
	// them to concrete cores and times (from a calibration run); outside
	// the harness, on a machine without a replicated directory, they are
	// inert.
	crashes := []Crash{
		{Core: CrashPrimaryManager},
		{Core: CrashLastWorker},
	}

	// The rates are high enough that even the small ping-pong cells (a few
	// hundred injector decisions) reliably see injected faults.
	crash := Spec{}
	crash.Routes[Mail] = RouteSpec{DropPermille: 20, DelayPermille: 10, DelayCycles: 2000}
	crash.Routes[IPI] = RouteSpec{DropPermille: 15}
	crash.Crashes = crashes

	mixed.Crashes = append([]Crash(nil), crashes...)

	// Inter-chip link congestion: long delays on cross-chip transactions
	// plus a trickle of mail drops to exercise the retransmission path over
	// the link. On a single chip nothing crosses the link, so only the mail
	// component fires.
	link := Spec{}
	link.Routes[Link] = RouteSpec{DelayPermille: 40, DelayCycles: 4000}
	link.Routes[Mail] = RouteSpec{DropPermille: 10, DelayPermille: 10, DelayCycles: 2000}

	// Inter-chip partition: a timed window of 100% loss on everything that
	// crosses the link, healing afterwards. The marker window is resolved to
	// concrete times by the chaos harness (from a calibration run); the mail
	// trickle keeps the schedule observable on a single chip, where nothing
	// ever crosses the link.
	partition := Spec{}
	partition.Partitions = []Partition{{}}
	partition.Routes[Mail] = RouteSpec{DropPermille: 10, DelayPermille: 10, DelayCycles: 2000}

	return map[string]Spec{
		"light":     light,
		"drops":     drops,
		"corrupt":   corrupt,
		"delays":    delays,
		"mixed":     mixed,
		"crash":     crash,
		"link":      link,
		"partition": partition,
	}
}

// PresetSpec returns the named fault schedule. Names: light, drops,
// corrupt, delays, mixed, crash, link, partition.
func PresetSpec(name string) (Spec, bool) {
	sp, ok := presetSpecs()[name]
	return sp, ok
}

// Presets lists the available schedule names, sorted.
func Presets() []string {
	specs := presetSpecs()
	names := make([]string, 0, len(specs))
	//metalsvm:deterministic — keys are collected, then sorted below
	for name := range specs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SplitArg splits a "seed[,spec]" chaos argument into the seed text and the
// spec name, validating neither. The spec defaults to "mixed".
func SplitArg(arg string) (seed, spec string) {
	if i := strings.IndexByte(arg, ','); i >= 0 {
		return arg[:i], arg[i+1:]
	}
	return arg, "mixed"
}

// ParseConfig parses a "seed[,spec]" chaos argument into a Config. The seed
// is a decimal number (digits only) and the spec one of Presets.
func ParseConfig(arg string) (Config, error) {
	seedStr, specName := SplitArg(arg)
	seed, err := strconv.ParseUint(seedStr, 10, 64)
	if err != nil {
		return Config{}, fmt.Errorf("faults: bad seed %q (want seed[,spec])", seedStr)
	}
	sp, ok := PresetSpec(specName)
	if !ok {
		return Config{}, fmt.Errorf("faults: unknown spec %q (have %s)",
			specName, strings.Join(Presets(), ", "))
	}
	return Config{Seed: seed, Spec: sp}, nil
}
