package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/shard"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// sharedPolicies are the roster policies every workload runs (the
// processing and value rosters share them), so their arrival cost is a
// per-layer metric on every workload. The rest of each roster is
// printed but left out of the result line.
var sharedPolicies = []string{"Greedy", "NEST", "NHDT", "LQD"}

// profiler is the traced run's state. Every op profiles every layer
// on that op's input: the cell as the untraced run times it, the same
// cell decomposed into per-layer calls, and the live path (decode,
// obs, ring, shard runtime, smbsimd) over the same trace.
type profiler struct {
	seed    int64
	sw      *sim.Sweep
	probe   *cellProbe
	cfg     core.Config
	factory func() core.Policy
	rt      *shard.Runtime
	d       *daemon
	tr      *tracer

	cells []simOp // checked after the window
	// Units the layer totals are normalized by.
	pkts, transmitSlots, publishes, entries int64
	decodeAlloc                             uint64
	// Exact decision counts of the decomposed replays, per policy.
	arrived, accepted, pushedOut map[string]int64
}

// runProfile is the traced run of any workload.
func runProfile(w workload, c config, rep *report) error {
	sw, err := w.newSweep()
	if err != nil {
		return err
	}
	p := &profiler{
		seed: c.seed, sw: sw, probe: hookCell(sw), tr: newTracer(),
		arrived: map[string]int64{}, accepted: map[string]int64{}, pushedOut: map[string]int64{},
	}
	inst, err := sw.Build(sw.Xs[0], setupSeed(c.seed, 0))
	if err != nil {
		return err
	}
	p.cfg = inst.Cfg
	if p.factory, err = policyFactory(p.cfg.Model, daemonPolicy); err != nil {
		return err
	}
	if p.d, err = startDaemon(c.daemon, c.workdir, 0, p.cfg); err != nil {
		return err
	}
	defer p.d.kill()
	if p.rt, err = shard.NewRuntime(p.cfg, 1, p.factory, shard.Options{}); err != nil {
		return err
	}
	p.rt.Start()
	defer p.rt.Stop()

	var opErrs []error
	deadline := time.Now().Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		opErrs = append(opErrs, p.op(i))
	}
	for i, err := range checkAll(p.cells, func(o simOp) error { return checkCell(o.inst, o.results) }) {
		if opErrs[i] == nil {
			opErrs[i] = err
		}
	}
	for _, err := range opErrs {
		rep.attempt()
		if err != nil {
			rep.fail(err)
		}
	}
	rep.attempt()
	if err := p.d.stop(); err != nil {
		rep.fail(err)
	}
	rep.diag.Ops = len(opErrs)

	rep.diag.Spans = filepath.Join(c.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", c.workload, c.seed))
	if err := p.tr.write(rep.diag.Spans); err != nil {
		return err
	}
	return p.report(rep, inst.Policies)
}

// op profiles op i. Every op appends one cell to p.cells, so op i's
// cell check lines up with op i.
func (p *profiler) op(i int) error {
	t := p.tr
	root := t.begin("op", -1, i)
	defer t.end(root)

	// The op exactly as the untraced run times it.
	sr := t.begin("sim.sweep_run", root, i)
	inst, results, err := runCell(p.sw, p.probe, opSeed(p.seed, i))
	t.end(sr)
	p.cells = append(p.cells, simOp{inst: inst, results: results, err: err})
	if err != nil {
		return err
	}
	t.spans = append(t.spans, Span{
		Name: "sim.cell", Start: int64(p.probe.start.Sub(t.t0)), End: int64(p.probe.end.Sub(t.t0)), Parent: sr, Op: i,
	})

	if err := p.tracedCell(root, i, inst, results); err != nil {
		return err
	}
	tr, err := materialize(inst.Provider)
	if err != nil {
		return err
	}
	want, err := newOracle(p.cfg, p.factory, tr)
	if err != nil {
		return err
	}
	enc, err := encode(tr)
	if err != nil {
		return err
	}
	p.pkts += int64(tr.Packets())
	return errors.Join(
		p.decode(root, i, enc, tr),
		p.record(root, i, tr, want),
		p.ring(root, i, tr),
		p.ingest(root, i, tr, want),
		p.stream(root, i, enc, len(tr), want),
	)
}

// tracedCell replays the cell the way sim.Instance.RunScratch does —
// the OPT proxy first, streaming from a traffic.Memoize'd provider
// that records the trace, then every roster policy replaying the
// recording — with every call into traffic, opt and core timed on its
// own. Each replay's Stats must equal the cell's.
func (p *profiler) tracedCell(root, op int, inst sim.Instance, results []sim.Result) error {
	t := p.tr
	cell := t.begin("trace.cell", root, op)
	defer t.end(cell)
	src := traffic.Memoize(inst.Provider, sim.DefaultMemoBytes)
	bound := sim.DrainBound(inst.Cfg)
	slots, flush := src.Slots(), inst.FlushEvery
	flushAt := func(t int) bool { return flush > 0 && (t+1)%flush == 0 }

	optSys, err := sim.NewOptProxy(inst.Cfg)
	if err != nil {
		return err
	}
	drainer, ok := optSys.(sim.BoundedDrainer)
	if !ok {
		return fmt.Errorf("%s has no bounded drain", optSys.Name())
	}
	optSpan := t.begin("opt.replay", cell, op)
	cur, err := src.Open()
	if err != nil {
		return err
	}
	var gen, spq time.Duration
	for s := 0; s < slots; s++ {
		t0 := time.Now()
		burst := cur.Next()
		t1 := time.Now()
		err := optSys.Step(burst)
		t2 := time.Now()
		gen, spq = gen+t1.Sub(t0), spq+t2.Sub(t1)
		if err != nil {
			cur.Close()
			return err
		}
		if flushAt(s) || s == slots-1 {
			if _, ok := drainer.DrainMax(bound); !ok {
				cur.Close()
				return errors.New("OPT drain did not empty")
			}
			spq += time.Since(t2)
		}
	}
	if err := errors.Join(cur.Err(), cur.Close()); err != nil {
		return err
	}
	t.end(optSpan)
	at := t.aggregate("traffic.gen", optSpan, op, t.spans[optSpan].Start, gen)
	t.aggregate("opt.spq", optSpan, op, at, spq)
	if got, want := optSys.Stats().Throughput(inst.Cfg.Model), results[0].OptThroughput; got != want {
		return fmt.Errorf("traced OPT objective %d, cell %d", got, want)
	}

	for pi, pol := range inst.Policies {
		sw, err := core.New(inst.Cfg, pol)
		if err != nil {
			return err
		}
		name := pol.Name()
		rs := t.begin("core.replay."+name, cell, op)
		cur, err := src.Open()
		if err != nil {
			return err
		}
		var memo, arrive, transmit time.Duration
		drained := 0
		for s := 0; s < slots; s++ {
			t0 := time.Now()
			burst := cur.Next()
			t1 := time.Now()
			err := sw.ArriveBatch(burst)
			t2 := time.Now()
			sw.Transmit()
			t3 := time.Now()
			memo, arrive, transmit = memo+t1.Sub(t0), arrive+t2.Sub(t1), transmit+t3.Sub(t2)
			if err != nil {
				cur.Close()
				return fmt.Errorf("%s: %w", name, err)
			}
			if flushAt(s) || s == slots-1 {
				n, ok := sw.DrainMax(bound)
				transmit += time.Since(t3)
				if !ok {
					cur.Close()
					return fmt.Errorf("%s: drain did not empty", name)
				}
				drained += n
			}
		}
		if err := errors.Join(cur.Err(), cur.Close()); err != nil {
			return err
		}
		t.end(rs)
		at := t.aggregate("traffic.memo_replay", rs, op, t.spans[rs].Start, memo)
		at = t.aggregate("core.arrive."+name, rs, op, at, arrive)
		t.aggregate("core.transmit", rs, op, at, transmit)
		p.transmitSlots += int64(slots + drained)

		st := sw.Stats()
		if st != results[pi].Stats {
			return fmt.Errorf("traced %s stats %+v, cell %+v", name, st, results[pi].Stats)
		}
		p.arrived[name] += st.Arrived
		p.accepted[name] += st.Accepted
		p.pushedOut[name] += st.PushedOut
	}
	return nil
}

// decode times traffic.StreamBinary over the encoded trace, read
// through a bufio.Reader as smbsimd reads its socket, and counts the
// heap bytes it allocates.
func (p *profiler) decode(root, op int, enc []byte, tr traffic.Trace) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := p.tr.begin("traffic.decode", root, op)
	cur, slots, err := traffic.StreamBinary(bufio.NewReader(bytes.NewReader(enc)))
	if err != nil {
		return err
	}
	n := 0
	for i := 0; i < slots; i++ {
		n += len(cur.Next())
	}
	p.tr.end(s)
	runtime.ReadMemStats(&m1)
	p.decodeAlloc += m1.TotalAlloc - m0.TotalAlloc
	if err := errors.Join(cur.Err(), cur.Close()); err != nil {
		return err
	}
	if slots != len(tr) || n != tr.Packets() {
		return fmt.Errorf("decoded %d slots, %d packets; encoded %d, %d", slots, n, len(tr), tr.Packets())
	}
	return nil
}

// record times a Step loop over the trace with the switch detached
// from observability and, on a fresh switch, with a counters-only
// recorder attached; the difference is what recording costs. The
// passes run detached, recorded, recorded, detached, so a drift during
// the op lands on both sides. It then times one mirror publish per
// slot, the rate at which a shard publishes.
func (p *profiler) record(root, op int, tr traffic.Trace, want oracle) error {
	var rec *obs.Recorder
	for _, recorded := range []bool{false, true, true, false} {
		sw, err := core.New(p.cfg, p.factory())
		if err != nil {
			return err
		}
		name := "obs.step_detached"
		if recorded {
			name = "obs.step_recorded"
			rec = obs.NewRecorder(p.cfg.Ports, 0)
			sw.SetRecorder(rec)
		}
		s := p.tr.begin(name, root, op)
		for _, burst := range tr {
			if err := sw.Step(burst); err != nil {
				return err
			}
		}
		p.tr.end(s)
		if _, ok := sw.DrainMax(sim.DrainBound(p.cfg)); !ok {
			return errors.New("drain did not empty")
		}
		if sw.Stats() != want.stats {
			return fmt.Errorf("%s stats %+v, oracle %+v", name, sw.Stats(), want.stats)
		}
	}
	m := obs.NewMirror(p.cfg.Ports)
	s := p.tr.begin("obs.mirror_publish", root, op)
	for range tr {
		m.Publish(rec)
	}
	p.tr.end(s)
	p.publishes += int64(len(tr))
	for port := 0; port < p.cfg.Ports; port++ {
		if got, w := m.Count(port, obs.KindAdmit), rec.Count(port, obs.KindAdmit); got != w {
			return fmt.Errorf("mirror port %d admits %d, recorder %d", port, got, w)
		}
	}
	return nil
}

// ring times every packet of the trace through one SPSC ring, pushed
// by one goroutine and popped by another, and checks they arrive in
// order.
func (p *profiler) ring(root, op int, tr traffic.Trace) error {
	entries := make([]shard.Entry, 0, tr.Packets())
	for slot, burst := range tr {
		for _, pk := range burst {
			entries = append(entries, shard.Arrival(int64(slot), pk))
		}
	}
	r := shard.NewRing(1 << 14)
	bad := -1
	s := p.tr.begin("shard.ring", root, op)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, e := range entries {
			r.Push(e)
		}
	}()
	for i := range entries {
		if r.Pop() != entries[i] && bad < 0 {
			bad = i
		}
	}
	wg.Wait()
	p.tr.end(s)
	p.entries += int64(len(entries))
	if bad >= 0 {
		return fmt.Errorf("ring entry %d popped out of order", bad)
	}
	return nil
}

// ingest drives the in-process one-shard runtime exactly as smbsimd's
// stream loop does — Ingest per packet, Advance per slot, then the
// Finish drain barrier — and checks the shard against the oracle.
func (p *profiler) ingest(root, op int, tr traffic.Trace, want oracle) error {
	if err := p.rt.BeginStream(); err != nil {
		return err
	}
	t := p.tr
	s := t.begin("shard.stream", root, op)
	in := t.begin("shard.ingest", s, op)
	for slot, burst := range tr {
		for _, pk := range burst {
			if err := p.rt.Ingest(int64(slot), pk); err != nil {
				_, _ = p.rt.Finish(int64(slot)) // ends the stream; err is the failure to report
				return err
			}
		}
		p.rt.Advance(int64(slot) + 1)
	}
	t.end(in)
	fin := t.begin("shard.finish", s, op)
	res, err := p.rt.Finish(int64(len(tr)))
	t.end(fin)
	t.end(s)
	if err != nil {
		return err
	}
	return want.check(res[0])
}

// stream sends the trace to smbsimd and checks the answer; the span
// runs from dialing to the parsed answer, its child from the client's
// last byte to the parsed answer.
func (p *profiler) stream(root, op int, enc []byte, slots int, want oracle) error {
	ans, tm, err := p.d.stream(enc)
	if err != nil {
		return err
	}
	t := p.tr
	at := func(x time.Time) int64 { return int64(x.Sub(t.t0)) }
	t.spans = append(t.spans, Span{Name: "smbsimd.stream", Start: at(tm.start), End: at(tm.answered), Parent: root, Op: op})
	t.spans = append(t.spans, Span{Name: "smbsimd.response", Start: at(tm.lastByte), End: at(tm.answered), Parent: len(t.spans) - 1, Op: op})
	return checkAnswer(ans, slots, want)
}

// report turns the spans and counts into the per-layer metrics.
func (p *profiler) report(rep *report, roster []core.Policy) error {
	spans := p.tr.spans
	self, dur := layerTotals(spans), durations(spans)
	selfs := selfTimes(spans)
	perOp := func(name string, useSelf bool) []float64 {
		var out []float64
		for i, s := range spans {
			if s.Name == name {
				v := s.End - s.Start
				if useSelf {
					v = selfs[i]
				}
				out = append(out, float64(v)/1e6)
			}
		}
		return out
	}
	var errs []error
	norm := func(total float64, units int64) float64 {
		v, err := perUnit(total, units)
		errs = append(errs, err)
		return v
	}
	replays := int64(len(roster))
	model := modelName(p.cfg.Model)

	rep.add("traffic.gen_ns_per_pkt", norm(float64(self["traffic.gen"]), p.pkts), "ns/pkt")
	rep.add("traffic.memo_replay_ns_per_pkt", norm(float64(self["traffic.memo_replay"]), p.pkts*replays), "ns/pkt")
	rep.add("traffic.decode_ns_per_pkt", norm(float64(dur["traffic.decode"]), p.pkts), "ns/pkt")
	rep.add("traffic.decode_alloc_bytes_per_pkt", norm(float64(p.decodeAlloc), p.pkts), "B/pkt")

	var family [2][]float64 // threshold, push-out
	shared := map[string]bool{}
	var layerSum int64
	for _, pol := range roster {
		name := pol.Name()
		v := norm(float64(self["core.arrive."+name]), p.pkts)
		layerSum += self["core.arrive."+name]
		if pushOut[name] {
			family[1] = append(family[1], v)
		} else {
			family[0] = append(family[0], v)
		}
		rep.note(fmt.Sprintf("core.arrive_ns_per_pkt.%s.%s", model, name), v, "ns/pkt")
		rep.note(fmt.Sprintf("core.admit_ratio.%s", name), norm(float64(p.accepted[name]), p.arrived[name]), "ratio")
		rep.note(fmt.Sprintf("core.pushout_per_admit.%s", name), norm(float64(p.pushedOut[name]), p.accepted[name]), "ratio")
		for _, s := range sharedPolicies {
			if s == name {
				rep.add("core.arrive_ns_per_pkt."+name, v, "ns/pkt")
				shared[name] = true
			}
		}
	}
	if len(shared) != len(sharedPolicies) {
		return fmt.Errorf("roster lacks one of %v", sharedPolicies)
	}
	for i, name := range []string{"threshold", "pushout"} {
		if len(family[i]) == 0 {
			return fmt.Errorf("roster has no %s policy", name)
		}
		var sum float64
		for _, v := range family[i] {
			sum += v
		}
		rep.add("core.arrive_ns_per_pkt."+name, sum/float64(len(family[i])), "ns/pkt")
	}
	var arrived, accepted, pushed int64
	for _, pol := range roster {
		arrived += p.arrived[pol.Name()]
		accepted += p.accepted[pol.Name()]
		pushed += p.pushedOut[pol.Name()]
	}
	transmit := norm(float64(self["core.transmit"]), p.transmitSlots)
	rep.add("core.transmit_ns_per_slot", transmit, "ns/slot")
	rep.note("core.transmit_ns_per_slot."+model, transmit, "ns/slot")
	rep.add("core.admit_ratio", norm(float64(accepted), arrived), "ratio")
	rep.add("core.pushout_per_admit", norm(float64(pushed), accepted), "ratio")

	rep.add("obs.record_ns_per_pkt", norm(float64(dur["obs.step_recorded"]-dur["obs.step_detached"]), 2*p.pkts), "ns/pkt")
	rep.add("obs.mirror_publish_ns", norm(float64(dur["obs.mirror_publish"]), p.publishes), "ns")

	spq := norm(float64(self["opt.spq"]), p.pkts)
	rep.add("opt.spq_ns_per_pkt", spq, "ns/pkt")
	rep.note("opt.spq_ns_per_pkt."+model, spq, "ns/pkt")

	rep.add("sim.cell_ms", median(perOp("sim.cell", false)), "ms")
	rep.add("sim.fold_ms", median(perOp("sim.sweep_run", true)), "ms")
	layerSum += self["traffic.gen"] + self["traffic.memo_replay"] + self["core.transmit"] + self["opt.spq"]
	rep.add("sim.attributed_share", norm(float64(layerSum), dur["trace.cell"]), "ratio")

	rep.add("shard.ring_ns_per_entry", norm(float64(dur["shard.ring"]), p.entries), "ns/entry")
	rep.add("shard.ingest_ns_per_pkt", norm(float64(dur["shard.ingest"]), p.pkts), "ns/pkt")
	rep.add("shard.finish_ms", median(perOp("shard.finish", false)), "ms")

	rep.add("smbsimd.response_ms", median(perOp("smbsimd.response", false)), "ms")
	streamNs := dur["smbsimd.stream"]
	rep.add("smbsimd.socket_share", norm(float64(streamNs-dur["shard.stream"]), streamNs), "ratio")

	rep.add("trace.overhead_ratio", norm(float64(dur["trace.cell"]), dur["sim.cell"])-1, "ratio")
	rep.lines = append(rep.lines, fmt.Sprintf("metric %s traced run held %d ops; spans in %s", rep.diag.Workload, rep.diag.Ops, rep.diag.Spans))
	return errors.Join(errs...)
}
