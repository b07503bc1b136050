package shard

import (
	"testing"

	"smbm/internal/pkt"
	"smbm/internal/policy"
)

// TestShardSteadyStateAllocsZero pins the shard's allocation freedom:
// once the retained staging batch has grown past the widest slot, a
// slot of staging, stepping and publishing allocates nothing. Each
// slot stages more arrivals than the batch's initial capacity, so the
// warm-up must have grown it.
func TestShardSteadyStateAllocsZero(t *testing.T) {
	const perSlot = 200
	cfg := testConfig()
	sh, err := newShard(0, cfg, policy.LQD{}, 64)
	if err != nil {
		t.Fatalf("newShard: %v", err)
	}
	if perSlot <= cap(sh.batch) {
		t.Fatalf("initial batch cap %d already holds a %d-arrival slot; the test would not exercise growth", cap(sh.batch), perSlot)
	}
	burst := make([]pkt.Packet, perSlot)
	for i := range burst {
		port := i % cfg.Ports
		burst[i] = pkt.NewWork(port, cfg.PortWork[port])
	}
	var slot int64
	oneSlot := func() {
		for _, p := range burst {
			sh.stage(Arrival(slot, p))
		}
		sh.advanceTo(slot + 1)
		sh.publish()
		slot++
	}
	for range 8 {
		oneSlot()
	}
	if got := testing.AllocsPerRun(100, oneSlot); got != 0 {
		t.Fatalf("%v allocs per slot in steady state, want 0", got)
	}
	if sh.err != nil {
		t.Fatalf("shard error: %v", sh.err)
	}
	if st := sh.sw.Stats(); st.Arrived != slot*perSlot || st.Accepted == 0 {
		t.Fatalf("stats %+v after %d slots of %d arrivals: the measurement is vacuous", st, slot, perSlot)
	}
}
