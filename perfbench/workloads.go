package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"smbm/internal/core"
	"smbm/internal/experiments"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// workload is one named input set. Every op of every workload is one
// cell of a one-cell sweep: newSweep builds it, and its Build(x, seed)
// yields the op's input (configuration, roster and seeded arrivals).
// Sim workloads time that cell through sim.Sweep; the live workload
// streams the same arrivals to a real smbsimd.
type workload struct {
	live     bool
	newSweep func() (*sim.Sweep, error)
}

// Sizing. Each op's work is fixed: a cell's slot count (sim) or a
// stream's slot count (live) is chosen so that a 25 s window holds
// between 200 and 1000 ops over the 2x range of host speeds seen on a
// shared 2-core VM, so op_ms_tail is p95 on every run (see README.md).
const (
	simProcSlots  = 5000
	simValueSlots = 1000
	liveSlots     = 8000
	// liveTraces is the number of distinct pre-encoded streams the live
	// client cycles through; each is checked against its own oracle.
	// An op's cost depends on its trace, so the mean over this many
	// traces is what keeps runs with different seeds comparable.
	liveTraces = 32
)

// daemonPolicy is the policy smbsimd and the in-process shard path run
// (LQD in every model's roster).
const daemonPolicy = "LQD"

var workloads = map[string]workload{
	"sim_proc":    {newSweep: panelCell("fig5.2", simProcSlots)},
	"sim_value":   {newSweep: panelCell("fig5.5", simValueSlots)},
	"live_stream": {live: true, newSweep: liveSweep(liveSlots)},
}

// panelCell builds a Fig. 5 panel at laptop traffic scale with one
// seed and sequential cells, and keeps only its middle x value.
func panelCell(id string, slots int) func() (*sim.Sweep, error) {
	return func() (*sim.Sweep, error) {
		sw, err := experiments.Panel(id, experiments.Options{
			Slots:       slots,
			Seeds:       1,
			Sources:     100,
			FlushEvery:  1000,
			Parallelism: 1,
		})
		if err != nil {
			return nil, err
		}
		sw.Xs = []int{sw.Xs[len(sw.Xs)/2]}
		return sw, nil
	}
}

// liveConfig is smbsimd's default processing configuration: 16
// unit-work ports, B=64, k=4.
func liveConfig() core.Config {
	return core.Config{Model: core.ModelProcessing, Ports: 16, Buffer: 64, MaxLabel: 4, Speedup: 1}
}

// selftestMMPP is the traffic `smbsimd -selftest` generates for cfg.
func selftestMMPP(cfg core.Config, seed int64) traffic.MMPPConfig {
	return traffic.MMPPConfig{
		Sources:  2 * cfg.Ports,
		LambdaOn: 1.0,
		POnOff:   0.05,
		POffOn:   0.2,
		Label:    traffic.LabelWorkByPort,
		Ports:    cfg.Ports,
		MaxLabel: cfg.MaxLabel,
		PortWork: cfg.PortWork,
		Seed:     seed,
	}
}

// liveSweep is the live workload's input as a one-cell sweep: the
// selftest traffic over the daemon's configuration, under the whole
// processing roster so the traced run can profile every kernel on it.
// The daemon itself runs daemonPolicy only.
func liveSweep(slots int) func() (*sim.Sweep, error) {
	return func() (*sim.Sweep, error) {
		cfg := liveConfig()
		return &sim.Sweep{
			Name:        "live_stream",
			XLabel:      "B",
			Xs:          []int{cfg.Buffer},
			Seeds:       1,
			Parallelism: 1,
			Build: func(_ int, seed int64) (sim.Instance, error) {
				prov, err := traffic.NewMMPPProvider(selftestMMPP(cfg, seed), slots)
				if err != nil {
					return sim.Instance{}, err
				}
				return sim.Instance{Cfg: cfg, Policies: policy.ForProcessing(), Provider: prov}, nil
			},
		}, nil
	}
}

// opSeed derives op i's trace seed from the run seed; distinct run
// seeds never share an op trace below 2^19 ops.
func opSeed(seed int64, i int) int64 { return seed<<20 + int64(i) }

// setupSeed derives the trace seed of set-up k, outside the op range.
func setupSeed(seed int64, k int) int64 { return opSeed(seed, 1<<19+k) }

// policyFactory resolves a roster policy by name within cfg's model.
func policyFactory(m core.Model, name string) (func() core.Policy, error) {
	byName := policy.ByName
	switch m {
	case core.ModelValue:
		byName = policy.ValueByName
	case core.ModelCombined:
		byName = policy.CombinedByName
	}
	if byName(name) == nil {
		return nil, fmt.Errorf("no %s-model policy %q", m, name)
	}
	return func() core.Policy { return byName(name) }, nil
}

// pushOut names the roster policies whose admission can evict a
// buffered packet (the pushOutBatch kernel family, plus BPD/BPD1);
// every other roster policy admits by a threshold or free-space rule.
var pushOut = map[string]bool{
	"LQD": true, "LWD": true, "BPD": true, "BPD1": true,
	"MVD": true, "MVD1": true, "MRD": true, "TVD": true, "RVD": true,
}

// modelName is cfg's -model spelling for smbsimd.
func modelName(m core.Model) string {
	switch m {
	case core.ModelValue:
		return "value"
	case core.ModelCombined:
		return "combined"
	}
	return "proc"
}

// daemonArgs configures a one-shard smbsimd exactly as cfg.
func daemonArgs(cfg core.Config, pol string) []string {
	works := make([]string, len(cfg.PortWork))
	for i, w := range cfg.PortWork {
		works[i] = strconv.Itoa(w)
	}
	return []string{
		"-model", modelName(cfg.Model),
		"-ports", strconv.Itoa(cfg.Ports),
		"-buffer", strconv.Itoa(cfg.Buffer),
		"-k", strconv.Itoa(cfg.MaxLabel),
		"-speedup", strconv.Itoa(cfg.Speedup),
		"-works", strings.Join(works, ","),
		"-policy", pol,
		"-shards", "1",
	}
}

// cellProbe hooks a one-cell sweep to capture, for the op in flight,
// the instance Build produced, when Build was entered and when the
// cell's results reached Progress, and a copy of those results. Build
// runs on the sweep's worker goroutine and Progress on the caller's,
// ordered by the sweep's outcome channel; the caller reads the probe
// after Run returns.
type cellProbe struct {
	inst       sim.Instance
	start, end time.Time
	results    []sim.Result
}

func hookCell(sw *sim.Sweep) *cellProbe {
	p := &cellProbe{}
	build := sw.Build
	sw.Build = func(x int, seed int64) (sim.Instance, error) {
		p.start = time.Now()
		inst, err := build(x, seed)
		p.inst = inst
		return inst, err
	}
	sw.Progress = func(pr sim.SweepProgress) {
		p.end = time.Now()
		p.results = append([]sim.Result(nil), pr.Results...)
	}
	return p
}

// runCell runs the sweep's only cell under seed and returns its
// instance and per-policy results.
func runCell(sw *sim.Sweep, p *cellProbe, seed int64) (sim.Instance, []sim.Result, error) {
	p.results = nil
	sw.BaseSeed = seed
	if _, err := sw.Run(); err != nil {
		return p.inst, nil, err
	}
	if len(p.results) == 0 {
		return p.inst, nil, fmt.Errorf("cell seed %d delivered no results", seed)
	}
	return p.inst, p.results, nil
}

// materialize reads a provider's whole stream into memory, copying
// each burst.
func materialize(src traffic.Provider) (traffic.Trace, error) {
	cur, err := src.Open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	tr := make(traffic.Trace, src.Slots())
	for t := range tr {
		tr[t] = append([]pkt.Packet(nil), cur.Next()...)
	}
	return tr, cur.Err()
}
