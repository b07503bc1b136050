package traffic

import (
	"strings"
	"testing"

	"smbm/internal/pkt"
)

func TestConstant(t *testing.T) {
	c := &Constant{Burst: pkt.Burst(pkt.NewWork(0, 1), 3)}
	for i := 0; i < 5; i++ {
		got := c.Next()
		if len(got) != 3 {
			t.Fatalf("slot %d: %d packets", i, len(got))
		}
	}
	// The burst is served borrowed, without a per-slot copy, and
	// capped so a caller's append cannot write into Burst's spare
	// capacity.
	b := c.Next()
	if &b[0] != &c.Burst[0] || cap(b) != len(b) {
		t.Error("Constant did not serve its own burst capped at its length")
	}
}

func TestPeriodic(t *testing.T) {
	p := &Periodic{Burst: []pkt.Packet{pkt.NewWork(0, 1)}, Period: 3, Offset: 1}
	var pattern []int
	for i := 0; i < 8; i++ {
		pattern = append(pattern, len(p.Next()))
	}
	want := []int{0, 1, 0, 0, 1, 0, 0, 1}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("pattern %v, want %v", pattern, want)
		}
	}
	// Period < 1 is clamped to 1.
	every := &Periodic{Burst: []pkt.Packet{pkt.NewWork(0, 1)}, Period: 0}
	if len(every.Next()) != 1 || len(every.Next()) != 1 {
		t.Error("clamped period did not fire every slot")
	}
}

func TestMixOrdering(t *testing.T) {
	m := &Mix{Sources: []Source{
		&Constant{Burst: []pkt.Packet{pkt.NewWork(0, 1)}},
		&Constant{Burst: []pkt.Packet{pkt.NewWork(1, 2)}},
	}}
	got := m.Next()
	if len(got) != 2 || got[0].Port != 0 || got[1].Port != 1 {
		t.Errorf("mix order broken: %v", got)
	}
}

func TestLimit(t *testing.T) {
	l := &Limit{Source: &Constant{Burst: []pkt.Packet{pkt.New(0)}}, N: 2}
	counts := []int{len(l.Next()), len(l.Next()), len(l.Next())}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 0 {
		t.Errorf("limit pattern %v", counts)
	}
}

func TestOnOff(t *testing.T) {
	o := &OnOff{Source: &Constant{Burst: []pkt.Packet{pkt.New(0)}}, On: 2, Off: 3}
	var pattern []int
	for i := 0; i < 10; i++ {
		pattern = append(pattern, len(o.Next()))
	}
	want := []int{1, 1, 0, 0, 0, 1, 1, 0, 0, 0}
	for i := range want {
		if pattern[i] != want[i] {
			t.Fatalf("duty cycle %v, want %v", pattern, want)
		}
	}
}

func TestDescribe(t *testing.T) {
	tr := Slots(
		pkt.Burst(pkt.New(0), 4),
		nil,
	)
	got := Describe(tr)
	for _, want := range []string{"2 slots", "4 packets", "2.00 pkts/slot", "4 peak"} {
		if !strings.Contains(got, want) {
			t.Errorf("Describe = %q missing %q", got, want)
		}
	}
	if got := Describe(nil); !strings.Contains(got, "0 slots") {
		t.Errorf("Describe(nil) = %q", got)
	}
}

// TestTrickleMatchesTheoremScripts: a Mix of Periodic sources reproduces
// the "every i-th slot, another [i]" adversarial trickle.
func TestTrickleMatchesTheoremScripts(t *testing.T) {
	trickle := &Mix{Sources: []Source{
		&Periodic{Burst: []pkt.Packet{pkt.NewWork(1, 2)}, Period: 2, Offset: 2},
		&Periodic{Burst: []pkt.Packet{pkt.NewWork(2, 3)}, Period: 3, Offset: 3},
	}}
	tr := Record(trickle, 7)
	wantCounts := []int{0, 0, 1, 1, 1, 0, 2}
	for s, want := range wantCounts {
		if len(tr[s]) != want {
			t.Fatalf("slot %d: %d packets, want %d (trace %v)", s, len(tr[s]), want, tr)
		}
	}
}
