package traffic

import (
	"testing"

	"smbm/internal/pkt"
)

// allocCfg is a Fig. 5-shaped generator: 100 sources at about 8.6
// packets per slot, the density of the processing-model panels.
func allocCfg() MMPPConfig {
	c := MMPPConfig{
		Sources:  100,
		POnOff:   0.1,
		POffOn:   0.05,
		Label:    LabelWorkValue,
		Ports:    16,
		MaxLabel: 16,
		Seed:     5,
	}
	c.LambdaOn = c.LambdaForRate(8.6)
	return c
}

// TestArrivalPathAllocFree pins the borrowed-burst contract's payoff:
// once warm, every source on the simulation arrival path serves a slot
// without allocating — the MMPP generator reuses its burst buffer, and
// trace, memoized, repeated and constant replays serve stored slots.
func TestArrivalPathAllocFree(t *testing.T) {
	const slots = 4000
	cfg := allocCfg()
	g, err := NewMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < slots; i++ { // grow the burst buffer to its steady size
		g.Next()
	}
	rec, err := NewMMPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := Record(rec, slots)

	prov, err := NewMMPPProvider(cfg, slots)
	if err != nil {
		t.Fatal(err)
	}
	memo := Memoize(prov, 1<<24)
	memoDrain(t, memo) // records and installs
	if memo.(*memoProvider).trace == nil {
		t.Fatal("memo recording was not installed")
	}
	memoCur, err := memo.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer memoCur.Close()

	repCur, err := Repeat{Round: tr[:50], Rounds: slots / 50}.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer repCur.Close()

	burst := []pkt.Packet{pkt.NewWork(0, 1), pkt.NewWork(3, 2)}
	cases := []struct {
		name string
		src  Source
	}{
		{"MMPP", g},
		{"Trace.Replay", tr.Replay()},
		{"Memoize replay", memoCur},
		{"Repeat", repCur},
		{"Constant", &Constant{Burst: burst}},
		{"Periodic", &Periodic{Burst: burst, Period: 3}},
	}
	var pkts int
	for _, c := range cases {
		if got := testing.AllocsPerRun(slots/2, func() { pkts += len(c.src.Next()) }); got != 0 {
			t.Errorf("%s: %v allocs per slot, want 0", c.name, got)
		}
	}
	if pkts == 0 {
		t.Fatal("sources served no packets; the measurement is vacuous")
	}
}
