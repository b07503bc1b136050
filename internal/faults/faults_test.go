package faults

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smbm/internal/core"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

func testCfg() core.Config {
	return core.Config{
		Model:    core.ModelProcessing,
		Ports:    4,
		Buffer:   16,
		MaxLabel: 4,
		Speedup:  2,
		PortWork: []int{1, 2, 3, 4},
	}
}

// testTrace builds a deterministic bursty trace for the testCfg switch.
func testTrace(slots int, seed int64) traffic.Trace {
	rng := rand.New(rand.NewSource(seed))
	works := []int{1, 2, 3, 4}
	tr := make(traffic.Trace, slots)
	for t := range tr {
		n := rng.Intn(8)
		burst := make([]pkt.Packet, 0, n)
		for j := 0; j < n; j++ {
			p := rng.Intn(len(works))
			burst = append(burst, pkt.NewWork(p, works[p]))
		}
		tr[t] = burst
	}
	return tr
}

// bareSystem implements sim.System without any fault capability.
type bareSystem struct{}

func (bareSystem) Name() string            { return "bare" }
func (bareSystem) Step([]pkt.Packet) error { return nil }
func (bareSystem) Drain() int              { return 0 }
func (bareSystem) Stats() core.Stats       { return core.Stats{} }
func (bareSystem) Reset()                  {}

func TestScheduleDeterministic(t *testing.T) {
	spec := CanonicalMix(4, 16, 2, 2_000)
	s1 := spec.Schedule(4, 7)
	s2 := spec.Schedule(4, 7)
	if len(s1) == 0 {
		t.Fatal("canonical mix produced an empty schedule")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Error("identical (spec, ports, seed) produced different schedules")
	}
	if s3 := spec.Schedule(4, 8); reflect.DeepEqual(s1, s3) {
		t.Error("different seeds produced identical schedules")
	}
	for i, e := range s1 {
		if e.Start < 0 || e.Start >= 2_000 || e.End <= e.Start {
			t.Errorf("event %d has bad window: %v", i, e)
		}
		if i > 0 && e.Start < s1[i-1].Start {
			t.Errorf("schedule not sorted at %d: %v after %v", i, e, s1[i-1])
		}
		switch e.Kind {
		case CoreSlowdown, PortBlackout:
			if e.Port < 0 || e.Port >= 4 {
				t.Errorf("event %d port %d out of range", i, e.Port)
			}
		default:
			if e.Port != -1 {
				t.Errorf("switch-wide event %d has port %d", i, e.Port)
			}
		}
		if got := e.String(); !strings.Contains(got, e.Kind.String()) {
			t.Errorf("event string %q missing kind", got)
		}
	}
}

func TestInjectorDeterministicRuns(t *testing.T) {
	cfg := testCfg()
	spec := CanonicalMix(cfg.Ports, cfg.Buffer, cfg.Speedup, 600)
	tr := testTrace(600, 9)
	run := func() core.Stats {
		sw := core.MustNew(cfg, policy.LWD{})
		in, err := New(sw, spec, cfg.Ports, 42)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.RunTrace(in, tr, 100)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	s1, s2 := run(), run()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("two identically faulted runs diverged:\n%+v\n%+v", s1, s2)
	}

	// Reset replays the identical schedule.
	sw := core.MustNew(cfg, policy.LWD{})
	in, err := New(sw, spec, cfg.Ports, 42)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sim.RunTrace(in, tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	in.Reset()
	second, err := sim.RunTrace(in, tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("a reset injector did not replay the identical run")
	}

	// Two injectors with the same parameters expose the same schedule.
	other, err := New(core.MustNew(cfg, policy.Greedy{}), spec, cfg.Ports, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Schedule(), other.Schedule()) {
		t.Error("schedule depends on the wrapped system")
	}
}

func TestZeroSpecIsPassThrough(t *testing.T) {
	cfg := testCfg()
	tr := testTrace(400, 3)

	plain, err := sim.RunTrace(core.MustNew(cfg, policy.LWD{}), tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(core.MustNew(cfg, policy.LWD{}), Spec{}, cfg.Ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := sim.RunTrace(in, tr, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Errorf("zero-spec injector changed the run:\nplain   %+v\nwrapped %+v", plain, wrapped)
	}

	// Wrapper short-circuits entirely on an empty spec.
	sys := core.MustNew(cfg, policy.LWD{})
	got, err := Wrapper(Spec{}, cfg.Ports, 1)(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got != sim.System(sys) {
		t.Error("empty-spec Wrapper did not return the system unchanged")
	}
}

func TestInjectorDegradesThroughput(t *testing.T) {
	cfg := testCfg()
	cfg.Buffer = 8
	spec := Spec{
		Horizon: 500,
		Faults: []Fault{
			{Kind: PortBlackout, Port: -1, Period: 100, Duration: 80},
			{Kind: BufferSqueeze, Value: 4, Period: 120, Duration: 90},
		},
	}
	tr := testTrace(500, 11)
	nominal, err := sim.RunTrace(core.MustNew(cfg, policy.Greedy{}), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(core.MustNew(cfg, policy.Greedy{}), spec, cfg.Ports, 5)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := sim.RunTrace(in, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Transmitted >= nominal.Transmitted {
		t.Errorf("faults did not degrade throughput: faulted %d >= nominal %d",
			faulted.Transmitted, nominal.Transmitted)
	}
	if faulted.Arrived != nominal.Arrived {
		t.Errorf("arrivals changed without amplification: %d vs %d",
			faulted.Arrived, nominal.Arrived)
	}
}

func TestInjectorCapabilityErrors(t *testing.T) {
	throttling := Spec{Horizon: 100, Faults: []Fault{{Kind: PortBlackout, Port: 0, Period: 10, Duration: 5}}}
	if _, err := New(bareSystem{}, throttling, 4, 1); err == nil ||
		!strings.Contains(err.Error(), "Throttled") {
		t.Errorf("blackout on bare system: got %v", err)
	}
	squeezing := Spec{Horizon: 100, Faults: []Fault{{Kind: BufferSqueeze, Value: 4, Period: 10, Duration: 5}}}
	if _, err := New(bareSystem{}, squeezing, 4, 1); err == nil ||
		!strings.Contains(err.Error(), "Squeezed") {
		t.Errorf("squeeze on bare system: got %v", err)
	}
	// Amplification needs no capability.
	amplifying := Spec{Horizon: 100, Faults: []Fault{{Kind: BurstAmplify, Value: 2, Period: 10, Duration: 5}}}
	if _, err := New(bareSystem{}, amplifying, 4, 1); err != nil {
		t.Errorf("amplify on bare system: %v", err)
	}
	// Invalid specs and port counts fail fast.
	bad := Spec{Horizon: 0, Faults: []Fault{{Kind: PortBlackout, Period: 10, Duration: 5}}}
	if _, err := New(bareSystem{}, bad, 4, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := New(bareSystem{}, amplifying, 0, 1); err == nil {
		t.Error("zero ports accepted")
	}
}

func TestAmplifyDuplicatesWithoutMutating(t *testing.T) {
	cfg := testCfg()
	spec := Spec{Horizon: 10, Faults: []Fault{{Kind: BurstAmplify, Value: 3, Period: 10, Duration: 10}}}
	in, err := New(core.MustNew(cfg, policy.Greedy{}), spec, cfg.Ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	burst := []pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2)}
	orig := append([]pkt.Packet(nil), burst...)
	if err := in.Step(burst); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(burst, orig) {
		t.Errorf("Step mutated the caller's burst: %v", burst)
	}
	if got := in.Stats().Arrived; got != 6 {
		t.Errorf("amplified arrivals %d, want 6 (= 2 packets x factor 3)", got)
	}
}

// TestAmplifyReusedStateMatchesFreshGenerator pins the amplification
// stream: the injector's reused, reseeded generator and burst storage
// must reorder every slot exactly as a generator built afresh from the
// slot's seed (the construction the fault schedule is specified by),
// and a warm amplified slot must not allocate.
func TestAmplifyReusedStateMatchesFreshGenerator(t *testing.T) {
	cfg := testCfg()
	spec := Spec{Horizon: 400, Faults: []Fault{{Kind: BurstAmplify, Value: 3, Period: 7, Duration: 5}}}
	const seed = 11
	in, err := New(core.MustNew(cfg, policy.Greedy{}), spec, cfg.Ports, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(400, 3)
	amplifiedSlots := 0
	for s, burst := range tr {
		slot := int64(s)
		in.advance(slot)
		got := in.amplified(slot, burst)
		want := burst
		if len(in.active) > 0 && len(burst) > 0 { // the spec's only windows amplify by 3
			amplifiedSlots++
			want = nil
			for i := 0; i < 3; i++ {
				want = append(want, burst...)
			}
			rng := rand.New(rand.NewSource(mix(mix(seed, amplifySalt), slot)))
			rng.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: amplified %v, want %v", s, got, want)
		}
	}
	if amplifiedSlots == 0 {
		t.Fatal("no slot was amplified; the comparison is vacuous")
	}

	burst := []pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(1, 2), pkt.NewWork(2, 3)}
	in.active = []Event{{Kind: BurstAmplify, Value: 4}}
	slot := int64(0)
	if got := testing.AllocsPerRun(200, func() {
		in.amplified(slot, burst)
		slot++
	}); got != 0 {
		t.Errorf("warm amplified slot: %v allocs, want 0", got)
	}
}

func TestDrainClearsOverridesWithoutAdvancingClock(t *testing.T) {
	cfg := testCfg()
	// Port 0 is permanently dark within the horizon.
	spec := Spec{Horizon: 100, Faults: []Fault{{Kind: PortBlackout, Port: 0, Period: 100, Duration: 100}}}
	in, err := New(core.MustNew(cfg, policy.Greedy{}), spec, cfg.Ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := in.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if tx := in.Stats().Transmitted; tx != 0 {
		t.Fatalf("blacked-out port transmitted %d packets", tx)
	}
	before := in.slot
	if _, drained := in.DrainMax(100); !drained {
		t.Error("drain under blackout did not clear the override")
	}
	if in.slot != before {
		t.Errorf("drain advanced the fault clock from %d to %d", before, in.slot)
	}
	if tx := in.Stats().Transmitted; tx != 3 {
		t.Errorf("drain transmitted %d packets, want 3", tx)
	}
	// The override is re-applied on the next Step.
	if err := in.Step([]pkt.Packet{pkt.NewWork(0, 1)}); err != nil {
		t.Fatal(err)
	}
	if tx := in.Stats().Transmitted; tx != 3 {
		t.Errorf("blackout not re-applied after drain: transmitted %d", tx)
	}
}

func TestParseSpec(t *testing.T) {
	sp, err := ParseSpec("blackout;squeeze:b=32:period=500:dur=100")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Faults) != 2 {
		t.Fatalf("%d faults, want 2", len(sp.Faults))
	}
	if f := sp.Faults[0]; f.Kind != PortBlackout || f.Port != -1 || f.Period != 1000 || f.Duration != 250 {
		t.Errorf("blackout defaults: %+v", f)
	}
	if f := sp.Faults[1]; f.Kind != BufferSqueeze || f.Value != 32 || f.Period != 500 || f.Duration != 100 {
		t.Errorf("squeeze fields: %+v", f)
	}
	sp, err = ParseSpec("slowdown:port=2:c=0:period=50:dur=10; amplify:factor=4")
	if err != nil {
		t.Fatal(err)
	}
	if f := sp.Faults[0]; f.Kind != CoreSlowdown || f.Port != 2 || f.Value != 0 {
		t.Errorf("slowdown fields: %+v", f)
	}
	if f := sp.Faults[1]; f.Kind != BurstAmplify || f.Value != 4 {
		t.Errorf("amplify fields: %+v", f)
	}

	for _, bad := range []string{
		"",
		";;",
		"bogus",
		"blackout:port",
		"blackout:port=abc",
		"blackout:nope=1",
		"squeeze:c=1",  // c is slowdown-only
		"slowdown:b=2", // b is squeeze-only
		"blackout:factor=2",
		"amplify:factor=0", // fails Fault.validate
		"squeeze:b=0",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
