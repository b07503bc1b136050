// Borrow-guard tests: traffic sources lend their bursts (see
// traffic.Source) — a replay serves the recorded slot itself, the MMPP
// generator reuses one buffer — so every consumer on the arrival path
// must read a burst without writing to it and without keeping it past
// the slot. These tests lend every burst through a guard that
// checksums it while it is out and poisons its storage once it is
// returned, then drive the real consumers (every roster policy in all
// three models through core.Switch, the three SPQ proxies, the fault
// injector under a dense amplification mix, and the sharded runtime's
// ingest) and require results bit-identical to an unguarded run. A
// consumer that writes a burst trips the checksum; one that retains it
// reads poison, which diverges or panics.
package sim_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"smbm/internal/core"
	"smbm/internal/faults"
	"smbm/internal/obs"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/shard"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// poison overwrites a returned burst's storage: a port no switch has,
// negative labels. A consumer still reading the burst trips the
// engine's validation, indexes out of range or diverges.
var poison = pkt.Packet{Port: -1 << 20, Work: -7, Value: -7}

// guardProvider opens a borrowGuard over every cursor of the wrapped
// provider; violations go to report, which must be safe for
// concurrent use.
type guardProvider struct {
	traffic.Provider
	report func(format string, args ...any)
}

// Open implements traffic.Provider.
func (g guardProvider) Open() (traffic.Cursor, error) {
	cur, err := g.Provider.Open()
	if err != nil {
		return nil, err
	}
	return &borrowGuard{cur: cur, report: g.report}, nil
}

// borrowGuard lends each burst of the wrapped cursor from fresh
// storage. When the burst's loan ends — at the next Next, or at Close
// — it checks the burst is unchanged and overwrites it with poison.
// Loaned storage is never reused, so a retained burst stays poisoned.
type borrowGuard struct {
	cur    traffic.Cursor
	report func(format string, args ...any)
	lent   []pkt.Packet
	sum    uint64
	slot   int
}

// Next implements traffic.Cursor.
func (g *borrowGuard) Next() []pkt.Packet {
	g.reclaim()
	g.slot++
	burst := g.cur.Next()
	if len(burst) == 0 {
		return burst
	}
	g.lent = append(make([]pkt.Packet, 0, len(burst)), burst...)
	g.sum = burstSum(g.lent)
	return g.lent
}

// Err implements traffic.Cursor.
func (g *borrowGuard) Err() error { return g.cur.Err() }

// Close implements traffic.Cursor: the last loan ends here.
func (g *borrowGuard) Close() error {
	g.reclaim()
	return g.cur.Close()
}

// reclaim ends the current loan: verify, then poison.
func (g *borrowGuard) reclaim() {
	if g.lent == nil {
		return
	}
	if burstSum(g.lent) != g.sum {
		g.report("slot %d: a consumer modified its borrowed burst", g.slot-1)
	}
	for i := range g.lent {
		g.lent[i] = poison
	}
	g.lent = nil
}

// burstSum is an order-sensitive FNV-64a digest of a burst.
func burstSum(b []pkt.Packet) uint64 {
	h := fnv.New64a()
	var buf [24]byte
	for _, p := range b {
		for i, v := range [3]int{p.Port, p.Work, p.Value} {
			for j := 0; j < 8; j++ {
				buf[8*i+j] = byte(uint64(v) >> (8 * j))
			}
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// guardCell is one model's guarded configuration: switch, traffic and
// the full roster.
type guardCell struct {
	name     string
	cfg      core.Config
	mcfg     traffic.MMPPConfig
	policies []core.Policy
}

// guardCells covers every roster policy in all three models; the value
// cell labels by port so NHSTV runs on the traffic it is defined for.
func guardCells() []guardCell {
	proc := core.Config{Model: core.ModelProcessing, Ports: 5, Buffer: 16, MaxLabel: 5, Speedup: 1, PortWork: core.ContiguousWorks(5)}
	val := core.Config{Model: core.ModelValue, Ports: 6, Buffer: 16, MaxLabel: 6, Speedup: 1}
	comb := core.Config{Model: core.ModelCombined, Ports: 5, Buffer: 16, MaxLabel: 5, Speedup: 2, PortWork: core.ContiguousWorks(5)}
	mmpp := func(cfg core.Config, label traffic.LabelMode, seed int64) traffic.MMPPConfig {
		return traffic.MMPPConfig{
			Sources:      30,
			LambdaOn:     0.4,
			POnOff:       0.2,
			POffOn:       0.3,
			Label:        label,
			Ports:        cfg.Ports,
			MaxLabel:     cfg.MaxLabel,
			PortWork:     cfg.PortWork,
			PortAffinity: true,
			Seed:         seed,
		}
	}
	return []guardCell{
		{"processing", proc, mmpp(proc, traffic.LabelWorkByPort, 21),
			append(policy.ForProcessing(), policy.Experimental()...)},
		{"value", val, mmpp(val, traffic.LabelValueByPort, 22),
			append(policy.ForValueByPort(), policy.ValueExperimental()...)},
		{"combined", comb, mmpp(comb, traffic.LabelWorkValue, 23), policy.ForCombined()},
	}
}

// guardFaults is a dense fault mix dominated by burst amplification, so
// most slots reach the wrapped system through the injector's reused
// amplification storage.
func guardFaults(slots int) faults.Spec {
	return faults.Spec{
		Horizon: int64(slots),
		Faults: []faults.Fault{
			{Kind: faults.BurstAmplify, Value: 3, Period: 9, Duration: 6},
			{Kind: faults.BurstAmplify, Value: 2, Period: 13, Duration: 8},
			{Kind: faults.CoreSlowdown, Port: -1, Value: 1, Period: 40, Duration: 15},
			{Kind: faults.PortBlackout, Port: -1, Period: 70, Duration: 10},
			{Kind: faults.BufferSqueeze, Value: 6, Period: 50, Duration: 20},
		},
	}
}

// reportTo adapts t.Errorf into a guard report.
func reportTo(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) {
		t.Helper()
		t.Errorf(format, args...)
	}
}

// TestBorrowGuardInstances lends every burst of every replay through
// the guard — the OPT proxy and every roster policy, replayed in
// parallel from one memoized stream, nominal and fault-wrapped — and
// requires the results of an unguarded sequential run.
func TestBorrowGuardInstances(t *testing.T) {
	const slots = 600
	for _, c := range guardCells() {
		for _, faulted := range []bool{false, true} {
			c, faulted := c, faulted
			name := c.name
			if faulted {
				name += "/faults"
			}
			t.Run(name, func(t *testing.T) {
				src, err := traffic.NewMMPPProvider(c.mcfg, slots)
				if err != nil {
					t.Fatal(err)
				}
				inst := sim.Instance{Cfg: c.cfg, Policies: c.policies, Provider: src, FlushEvery: 200}
				if faulted {
					inst.Wrap = faults.Wrapper(guardFaults(slots), c.cfg.Ports, 5)
				}
				want, err := inst.Run()
				if err != nil {
					t.Fatal(err)
				}

				// The guard sits between the memoized stream and the
				// consumers, so it watches recording, pass-through and
				// replay cursors alike; the second run replays only.
				guarded := inst
				guarded.Provider = guardProvider{traffic.Memoize(src, 1<<24), reportTo(t)}
				guarded.MemoBytes = -1
				guarded.Parallelism = 3
				for pass := 0; pass < 2; pass++ {
					got, err := guarded.Run()
					if err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("pass %d: guarded results diverge from the unguarded run", pass)
					}
				}
			})
		}
	}
}

// TestBorrowGuardShardIngest streams guarded bursts into the sharded
// runtime the way the daemon's stream loop does (Ingest per packet,
// Advance per slot) and requires every shard bit-identical to a
// single-threaded replay of its port partition.
func TestBorrowGuardShardIngest(t *testing.T) {
	const slots = 600
	c := guardCells()[0]
	factory := func() core.Policy { return policy.LWD{} }
	src, err := traffic.NewMMPPProvider(c.mcfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	memo := traffic.Memoize(src, 1<<24)
	tr := traffic.Record(traffic.AsCursor(mustOpen(t, src)), slots)

	rt, err := shard.NewRuntime(c.cfg, 2, factory, shard.Options{RingCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	defer rt.Stop()
	for pass := 0; pass < 2; pass++ { // record, then replay
		cur := mustOpen(t, guardProvider{memo, reportTo(t)})
		if err := rt.BeginStream(); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			for _, p := range cur.Next() {
				if err := rt.Ingest(int64(s), p); err != nil {
					t.Fatal(err)
				}
			}
			rt.Advance(int64(s) + 1)
		}
		if err := cur.Err(); err != nil {
			t.Fatal(err)
		}
		results, err := rt.Finish(int64(slots))
		if err != nil {
			t.Fatal(err)
		}
		rt.EndStream()
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			local := shard.FilterTrace(tr, rt.Partition(i))
			scfg := rt.ShardConfig(i)
			sw := core.MustNew(scfg, factory())
			rec := obs.NewRecorder(scfg.Ports, 0)
			sw.SetRecorder(rec)
			stats, err := sim.RunTrace(sw, local, 0)
			if err != nil {
				t.Fatal(err)
			}
			if diff := shard.DiffResult(res, stats, sw.PortCounters(), rec.SaveCounts(nil)); diff != "" {
				t.Fatalf("pass %d shard %d: %s", pass, i, diff)
			}
		}
	}
}

// mustOpen opens a cursor or fails the test.
func mustOpen(t *testing.T, p traffic.Provider) traffic.Cursor {
	t.Helper()
	cur, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	return cur
}

// misbehaver is a System that breaks the borrowed-burst rule on
// purpose: it writes into its arrivals, or keeps them and reads them
// back a slot later.
type misbehaver struct {
	write bool
	kept  []pkt.Packet
	stale bool // a kept burst was found poisoned
}

func (m *misbehaver) Name() string { return "misbehaver" }

func (m *misbehaver) Step(arrivals []pkt.Packet) error {
	if m.write && len(arrivals) > 0 {
		arrivals[0].Value++
	}
	for _, p := range m.kept {
		if p == poison {
			m.stale = true
		}
	}
	m.kept = arrivals
	return nil
}

func (m *misbehaver) Drain() int        { return 0 }
func (m *misbehaver) Stats() core.Stats { return core.Stats{} }
func (m *misbehaver) Reset()            {}

// TestBorrowGuardCatchesMisuse proves the guard has teeth: a consumer
// that writes a burst is reported, and one that retains a burst reads
// poison on its next slot.
func TestBorrowGuardCatchesMisuse(t *testing.T) {
	c := guardCells()[0]
	src, err := traffic.NewMMPPProvider(c.mcfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var reports []string
	g := guardProvider{src, func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		reports = append(reports, fmt.Sprintf(format, args...))
	}}

	writer := &misbehaver{write: true}
	if _, err := sim.RunTrace(writer, g, 0); err != nil {
		t.Fatal(err)
	}
	if len(reports) == 0 {
		t.Error("a consumer writing its bursts went unreported")
	}

	reports = nil
	keeper := &misbehaver{}
	if _, err := sim.RunTrace(keeper, g, 0); err != nil {
		t.Fatal(err)
	}
	if !keeper.stale {
		t.Error("a consumer retaining its bursts never read poison")
	}
	if len(reports) != 0 {
		t.Errorf("a read-only consumer was reported: %v", reports)
	}
}
