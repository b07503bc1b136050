// Command benchjson runs the repository's canonical performance
// benchmarks in-process and writes a machine-readable baseline
// (BENCH_baseline.json by default):
//
//   - per-policy engine micro-benchmarks: ns and allocations per
//     congested slot of Switch.Step for every roster policy in all
//     three models, plus the model's OPT proxy (steady state must be
//     allocation-free);
//   - per-panel sweep-cell benchmarks: ns per (x, seed) cell and
//     cells/sec for the Fig. 5 panels, each cell running the full
//     policy roster plus the OPT proxy exactly as a sweep does;
//   - trace-memory measurements: resident arrival bytes per slot for a
//     materialized trace versus a streamed provider cursor, the number
//     that certifies the streaming pipeline's O(1)-in-slots memory.
//
// Regenerate with: make bench-json. Comparing two baselines (before and
// after an engine change, or across machines) is the supported workflow;
// absolute numbers are machine-dependent.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"smbm/internal/core"
	"smbm/internal/experiments"
	"smbm/internal/opt"
	"smbm/internal/pkt"
	"smbm/internal/policy"
	"smbm/internal/traffic"
)

// Micro is one per-policy engine measurement. An "op" replays a fixed
// congested trace of microSlots slots through one switch.
type Micro struct {
	Policy       string  `json:"policy"`        // policy name
	NsPerOp      int64   `json:"ns_per_op"`     // mean ns per replay op
	AllocsPerOp  int64   `json:"allocs_per_op"` // heap allocations per op
	NsPerSlot    float64 `json:"ns_per_slot"`   // NsPerOp / microSlots
	SlotsPerSec  float64 `json:"slots_per_sec"` // simulated slots per second
	BytesPerOp   int64   `json:"bytes_per_op"`  // heap bytes per op
	ReplaysTimed int     `json:"replays_timed"` // replays inside the timed window
}

// Panel is one sweep-cell measurement: the cost of building and running
// the panel's middle-x cell (full roster + OPT proxy) once.
type Panel struct {
	Panel       string  `json:"panel"`         // panel id (figure name)
	X           int     `json:"x"`             // swept-parameter value of the timed cell
	Policies    int     `json:"policies"`      // roster size including the OPT proxy
	NsPerCell   int64   `json:"ns_per_cell"`   // mean ns to run one cell
	CellsPerSec float64 `json:"cells_per_sec"` // cells per second
	CellsTimed  int     `json:"cells_timed"`   // cells inside the timed window
}

// TraceMemory reports the resident arrival memory of one provider mode:
// the heap bytes held alive by the arrivals while a replay is under way
// (a whole materialized trace, or one streaming cursor mid-stream),
// normalized per slot. The streamed figure should be orders of
// magnitude below the materialized one and independent of Slots.
type TraceMemory struct {
	Mode          string  `json:"mode"`           // "materialized" or "streamed"
	Slots         int     `json:"slots"`          // trace length in slots
	ResidentBytes int64   `json:"resident_bytes"` // heap bytes held mid-replay
	BytesPerSlot  float64 `json:"bytes_per_slot"` // ResidentBytes / Slots
}

// Baseline is the whole artifact.
type Baseline struct {
	Generated   string        `json:"generated"`        // RFC 3339 timestamp
	GoVersion   string        `json:"go_version"`       // runtime.Version()
	GOOS        string        `json:"goos"`             // build OS
	GOARCH      string        `json:"goarch"`           // build architecture
	NumCPU      int           `json:"num_cpu"`          // logical CPUs
	BenchTime   string        `json:"bench_time"`       // timed window per measurement
	MicroSlots  int           `json:"micro_slots"`      // slots per micro replay op
	MicroProc   []Micro       `json:"micro_processing"` // processing-model policy rows
	MicroValue  []Micro       `json:"micro_value"`      // value-model policy rows
	MicroComb   []Micro       `json:"micro_combined"`   // combined-model policy rows
	Panels      []Panel       `json:"panels"`           // sweep-cell rows
	TraceMemory []TraceMemory `json:"trace_memory"`     // arrival-memory rows
}

const (
	microSlots = 256
	microBurst = 8
)

// microTrace builds a saturating deterministic burst sequence for the
// config: 8 uniform arrivals per slot, far above service capacity, so
// admission (and push-out, for those policies) fires constantly.
func microTrace(cfg core.Config) traffic.Trace {
	rng := rand.New(rand.NewSource(1))
	tr := make(traffic.Trace, microSlots)
	for s := range tr {
		bs := make([]pkt.Packet, microBurst)
		for i := range bs {
			port := rng.Intn(cfg.Ports)
			switch cfg.Model {
			case core.ModelValue:
				bs[i] = pkt.NewValue(port, 1+rng.Intn(cfg.MaxLabel))
			case core.ModelCombined:
				bs[i] = pkt.NewWorkValue(port, cfg.PortWork[port], 1+rng.Intn(cfg.MaxLabel))
			default:
				bs[i] = pkt.NewWork(port, cfg.PortWork[port])
			}
		}
		tr[s] = bs
	}
	return tr
}

// replayer is what one micro row drives: an engine switch running a
// roster policy, or an OPT proxy.
type replayer interface {
	Name() string
	Step([]pkt.Packet) error
	Drain() int
	Reset()
}

// microRows measures every roster policy of one config, then the
// config's OPT proxy, printing one progress line per row.
func microRows(cfg core.Config, label string, pols []core.Policy, proxy replayer) ([]Micro, error) {
	var rows []Micro
	add := func(sw replayer) error {
		m, err := microBench(cfg, sw)
		if err != nil {
			return fmt.Errorf("micro %s: %w", sw.Name(), err)
		}
		rows = append(rows, m)
		fmt.Fprintf(os.Stderr, "micro %-10s %-8s %8.0f ns/slot %3d allocs/op\n", label, m.Policy, m.NsPerSlot, m.AllocsPerOp)
		return nil
	}
	for _, p := range pols {
		sw, err := core.New(cfg, p)
		if err != nil {
			return nil, fmt.Errorf("micro %s: %w", p.Name(), err)
		}
		if err := add(sw); err != nil {
			return nil, err
		}
	}
	return rows, add(proxy)
}

// microBench measures one replayer on one config. It is warmed with one
// full replay before timing so growth allocations (deque reservations,
// multiset arrays) are excluded: what remains is the steady state,
// which must be allocation-free.
func microBench(cfg core.Config, sw replayer) (Micro, error) {
	tr := microTrace(cfg)
	replay := func() error {
		for _, burst := range tr {
			if err := sw.Step(burst); err != nil {
				return err
			}
		}
		sw.Drain()
		sw.Reset()
		return nil
	}
	if err := replay(); err != nil { // warm-up
		return Micro{}, err
	}
	var runErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := replay(); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return Micro{}, runErr
	}
	ns := res.NsPerOp()
	return Micro{
		Policy:       sw.Name(),
		NsPerOp:      ns,
		AllocsPerOp:  res.AllocsPerOp(),
		NsPerSlot:    float64(ns) / microSlots,
		SlotsPerSec:  1e9 * microSlots / float64(ns),
		BytesPerOp:   res.AllocedBytesPerOp(),
		ReplaysTimed: res.N,
	}, nil
}

// panelBench measures one Fig. 5 panel's middle-x cell, Build included,
// mirroring the top-level BenchmarkFig5_* harness so numbers are
// comparable with `go test -bench Fig5`.
func panelBench(id string) (Panel, error) {
	opts := experiments.Options{
		Slots:      2000,
		Seeds:      1,
		Sources:    100,
		FlushEvery: 1000,
		BaseSeed:   1,
	}
	sweep, err := experiments.Panel(id, opts)
	if err != nil {
		return Panel{}, err
	}
	mid := sweep.Xs[len(sweep.Xs)/2]
	var (
		runErr   error
		policies int
	)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst, err := sweep.Build(mid, opts.BaseSeed)
			if err != nil {
				runErr = err
				b.FailNow()
			}
			results, err := inst.Run()
			if err != nil {
				runErr = err
				b.FailNow()
			}
			policies = len(results)
		}
	})
	if runErr != nil {
		return Panel{}, runErr
	}
	ns := res.NsPerOp()
	return Panel{
		Panel:       id,
		X:           mid,
		Policies:    policies,
		NsPerCell:   ns,
		CellsPerSec: 1e9 / float64(ns),
		CellsTimed:  res.N,
	}, nil
}

// memSlots is the trace length of the trace-memory measurement — long
// enough that the materialized trace dwarfs every fixed overhead, short
// enough to stay fast.
const memSlots = 200_000

// heapAlloc returns the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heapDelta clamps a heap-growth measurement at zero (GC noise can
// shrink unrelated allocations between the two readings).
func heapDelta(before, after int64) int64 {
	if after < before {
		return 0
	}
	return after - before
}

// traceMemory measures the resident arrival bytes of a materialized
// trace versus a streaming MMPP cursor halfway through the same
// stream, on the standard 16-port processing workload.
func traceMemory() ([]TraceMemory, error) {
	mcfg := traffic.MMPPConfig{
		Sources:      100,
		POnOff:       0.1,
		POffOn:       0.01,
		Label:        traffic.LabelWorkByPort,
		Ports:        16,
		MaxLabel:     16,
		PortWork:     core.ContiguousWorks(16),
		PortAffinity: true,
		Seed:         1,
	}
	mcfg.LambdaOn = mcfg.LambdaForRate(2.5 * 16)

	row := func(mode string, resident int64) TraceMemory {
		return TraceMemory{
			Mode:          mode,
			Slots:         memSlots,
			ResidentBytes: resident,
			BytesPerSlot:  float64(resident) / memSlots,
		}
	}

	// Materialized: the whole trace resident at once.
	gen, err := traffic.NewMMPP(mcfg)
	if err != nil {
		return nil, err
	}
	before := heapAlloc()
	tr := traffic.Record(gen, memSlots)
	materialized := heapDelta(before, heapAlloc())
	runtime.KeepAlive(tr)
	tr = nil
	_ = tr

	// Streamed: one open cursor mid-stream.
	prov, err := traffic.NewMMPPProvider(mcfg, memSlots)
	if err != nil {
		return nil, err
	}
	before = heapAlloc()
	cur, err := prov.Open()
	if err != nil {
		return nil, err
	}
	for t := 0; t < memSlots/2; t++ {
		cur.Next()
	}
	streamed := heapDelta(before, heapAlloc())
	runtime.KeepAlive(cur)
	if err := cur.Err(); err != nil {
		cur.Close()
		return nil, err
	}
	cur.Close()

	return []TraceMemory{row("materialized", materialized), row("streamed", streamed)}, nil
}

// assertZeroAllocs returns an error naming every policy or OPT proxy
// whose steady state allocates — the regression gate CI runs on the
// micro rows.
func assertZeroAllocs(base *Baseline) error {
	var bad []string
	for _, m := range base.MicroProc {
		if m.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("processing/%s (%d allocs/op)", m.Policy, m.AllocsPerOp))
		}
	}
	for _, m := range base.MicroValue {
		if m.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("value/%s (%d allocs/op)", m.Policy, m.AllocsPerOp))
		}
	}
	for _, m := range base.MicroComb {
		if m.AllocsPerOp > 0 {
			bad = append(bad, fmt.Sprintf("combined/%s (%d allocs/op)", m.Policy, m.AllocsPerOp))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("steady state allocates: %s", strings.Join(bad, ", "))
	}
	return nil
}

func run(out string, benchtime time.Duration, zeroAllocs bool) error {
	if err := flag.Set("test.benchtime", benchtime.String()); err != nil {
		return err
	}
	base := Baseline{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		BenchTime:  benchtime.String(),
		MicroSlots: microSlots,
	}

	procCfg := core.Config{
		Model: core.ModelProcessing, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: core.ContiguousWorks(16),
	}
	valCfg := core.Config{
		Model: core.ModelValue, Ports: 16, Buffer: 128, MaxLabel: 16, Speedup: 1,
	}
	combCfg := core.Config{
		Model: core.ModelCombined, Ports: 16, Buffer: 128, MaxLabel: 16,
		Speedup: 1, PortWork: core.ContiguousWorks(16),
	}
	spqProc, err := opt.NewSPQProc(procCfg)
	if err != nil {
		return err
	}
	spqVal, err := opt.NewSPQVal(valCfg)
	if err != nil {
		return err
	}
	spqComb, err := opt.NewSPQComb(combCfg)
	if err != nil {
		return err
	}
	if base.MicroProc, err = microRows(procCfg, "processing", append(policy.ForProcessing(), policy.Experimental()...), spqProc); err != nil {
		return err
	}
	if base.MicroValue, err = microRows(valCfg, "value", append(policy.ForValueUniform(), policy.ValueExperimental()...), spqVal); err != nil {
		return err
	}
	if base.MicroComb, err = microRows(combCfg, "combined", policy.ForCombined(), spqComb); err != nil {
		return err
	}
	if zeroAllocs {
		// Gate before the (slow) panel benchmarks: a CI failure should
		// report in seconds, not after the full baseline.
		if err := assertZeroAllocs(&base); err != nil {
			return err
		}
	}

	for _, id := range experiments.PanelIDs() {
		p, err := panelBench(id)
		if err != nil {
			return fmt.Errorf("panel %s: %w", id, err)
		}
		base.Panels = append(base.Panels, p)
		fmt.Fprintf(os.Stderr, "panel %-7s x=%-4d %10.3f ms/cell  %6.2f cells/sec\n", p.Panel, p.X, float64(p.NsPerCell)/1e6, p.CellsPerSec)
	}

	tms, err := traceMemory()
	if err != nil {
		return fmt.Errorf("trace memory: %w", err)
	}
	base.TraceMemory = tms
	for _, tm := range tms {
		fmt.Fprintf(os.Stderr, "trace memory %-13s %10d bytes  %8.2f bytes/slot\n", tm.Mode, tm.ResidentBytes, tm.BytesPerSlot)
	}

	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(out, buf, 0o644)
}

func main() {
	testing.Init()
	out := flag.String("out", "BENCH_baseline.json", "output path ('-' for stdout)")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per benchmark")
	zeroAllocs := flag.Bool("assert-zero-allocs", false, "fail (exit 1) if any policy's steady-state micro-benchmark allocates")
	pprofAddr := flag.String("pprof", "", `serve net/http/pprof on this address (e.g. "localhost:6060") while benchmarking`)
	flag.Parse()
	if *pprofAddr != "" {
		go func() {
			// A dead debug server must not kill the benchmark run.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: pprof server:", err)
			}
		}()
	}
	if err := run(*out, *benchtime, *zeroAllocs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
