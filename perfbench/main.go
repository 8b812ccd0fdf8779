// Command perfbench is RUM's benchmark. It drives one of three seeded
// workloads through RUM's public entry points, checks every
// acknowledgment against data-plane ground truth, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// separate traced run) as one JSON object on the last line of stdout.
//
//	perfbench --workload tcp-wire --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//   - tcp-wire: one RUM on the wall clock, loopback TCP on both sides,
//     two echo switches, barriers + barrier layer, closed-loop drivers.
//     Per-message cost in the codec, the TCP transport and the ack path
//     dominates.
//   - fattree-cluster: a k=8 fat-tree of 80 switch models on the sim
//     clock, served by a 2-member cluster with intent journaling, mixed
//     sequential/general/timeout strategies, open-loop path churn over
//     standing tables. Probing, HSA probe synthesis and the journal work
//     here.
//   - fattree-aggregate: the same fabric under one RUM with FIB
//     aggregation; aligned /32 blocks merge, seeded point deletes and
//     re-adds split and re-merge them.
//
// Latencies on the fat-tree workloads are read on the deterministic sim
// clock and repeat exactly for a seed; only confirmed_per_s,
// cpu_us_per_update and setup_s read the wall clock there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// processStart is the benchmark's t=0 for setup_s.
var processStart = time.Now()

// setupRuns is how many times an untraced run builds its workload; the
// median build time is setup_s and the last build is measured.
const setupRuns = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spanDir  string
}

// workload is one benchmark input. build constructs and warms a fresh
// instance (tr is nil in untraced runs); measure runs its measured phase
// for about the given wall seconds and audits it; close releases it.
type workload struct {
	name   string
	single bool // runs on the sim clock, on one goroutine
	build  func(seed int64, tr *tracer) (instance, error)
}

type instance interface {
	measure(seconds int) *outcome
	close()
}

var workloads = []workload{
	{"tcp-wire", false, buildTCPWire},
	{"fattree-cluster", true, buildCluster},
	{"fattree-aggregate", true, buildAggregate},
}

// metricUnits lists every metric the benchmark reports and its unit.
var metricUnits = map[string]string{
	"setup_s":                "s",
	"confirmed_per_s":        "updates/s",
	"cpu_us_per_update":      "us",
	"ack_p50_ms":             "ms",
	"ack_p99_ms":             "ms",
	"remove_p50_ms":          "ms",
	"remove_p99_ms":          "ms",
	"ack_lag_p50_ms":         "ms",
	"ack_lag_p99_ms":         "ms",
	"switch_msgs_per_update": "msgs",
	"compression_ratio":      "x",
	"live_heap_mb":           "MB",

	"failed_pct":                        "%",
	"false_ack_pct":                     "%",
	"probes_per_update":                 "pkts",
	"trace.overhead_pct":                "%",
	"of.encode_ns_per_msg":              "ns",
	"of.decode_ns_per_msg":              "ns",
	"of.bytes_per_update":               "bytes",
	"transport.writes_per_kupdate":      "calls",
	"transport.reads_per_kupdate":       "calls",
	"transport.msgs_per_batch":          "msgs",
	"transport.send_ns_per_msg":         "ns",
	"core.ctrl_handler_ns_per_update":   "ns",
	"core.switch_handler_ns_per_msg":    "ns",
	"core.timer_busy_ns_per_update":     "ns",
	"core.timers_per_update":            "calls",
	"core.busy_share":                   "share",
	"core.outbox_high_water":            "msgs",
	"core.allocs_per_update":            "allocs",
	"stage.forward_p50_ms":              "ms",
	"stage.forward_p99_ms":              "ms",
	"stage.switch_p50_ms":               "ms",
	"stage.switch_p99_ms":               "ms",
	"stage.signal_p50_ms":               "ms",
	"stage.signal_p99_ms":               "ms",
	"stage.emit_p50_ms":                 "ms",
	"stage.emit_p99_ms":                 "ms",
	"strategy.barriers_per_update":      "msgs",
	"strategy.probe_rules_per_update":   "rules",
	"strategy.fallback_pct":             "%",
	"strategy.sequential.ack_p99_ms":    "ms",
	"strategy.general.ack_p99_ms":       "ms",
	"strategy.timeout.ack_p99_ms":       "ms",
	"hsa.find_probe_us":                 "us",
	"aggregate.apply_us_per_update":     "us",
	"aggregate.physical_ops_per_update": "ops",
	"aggregate.bypassed_rules":          "rules",
	"journal.append_ns_per_record":      "ns",
	"journal.bytes_per_update":          "bytes",
	"switchsim.busy_share":              "share",
	"sim.events_per_update":             "events",
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []string{"setup_s", "confirmed_per_s", "cpu_us_per_update",
	"ack_p50_ms", "ack_p99_ms", "remove_p50_ms", "remove_p99_ms",
	"ack_lag_p50_ms", "ack_lag_p99_ms", "switch_msgs_per_update",
	"compression_ratio", "live_heap_mb"}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []string{"failed_pct", "false_ack_pct", "probes_per_update",
	"trace.overhead_pct",
	"of.encode_ns_per_msg", "of.decode_ns_per_msg", "of.bytes_per_update",
	"transport.writes_per_kupdate", "transport.reads_per_kupdate",
	"transport.msgs_per_batch", "transport.send_ns_per_msg",
	"core.ctrl_handler_ns_per_update", "core.switch_handler_ns_per_msg",
	"core.timer_busy_ns_per_update", "core.timers_per_update",
	"core.busy_share", "core.outbox_high_water", "core.allocs_per_update",
	"stage.forward_p50_ms", "stage.forward_p99_ms", "stage.switch_p50_ms",
	"stage.switch_p99_ms", "stage.signal_p50_ms", "stage.signal_p99_ms",
	"stage.emit_p50_ms", "stage.emit_p99_ms",
	"strategy.barriers_per_update", "strategy.probe_rules_per_update",
	"strategy.fallback_pct", "strategy.sequential.ack_p99_ms",
	"strategy.general.ack_p99_ms", "strategy.timeout.ack_p99_ms",
	"hsa.find_probe_us",
	"aggregate.apply_us_per_update", "aggregate.physical_ops_per_update",
	"aggregate.bypassed_rules",
	"journal.append_ns_per_record", "journal.bytes_per_update",
	"switchsim.busy_share", "sim.events_per_update"}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (tcp-wire, fattree-cluster, fattree-aggregate)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "wall seconds one measured phase runs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.spanDir, "span-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its span log")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	line, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(line)
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// run executes one benchmark invocation and returns the result line.
func run(cfg config) (string, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return "", err
	}
	var out *outcome
	metrics := map[string]float64{}
	if !cfg.trace {
		var setups []float64
		var inst instance
		for i := 0; i < setupRuns; i++ {
			if inst != nil {
				inst.close()
				runtime.GC()
			}
			start := time.Now()
			if i == 0 {
				start = processStart
			}
			inst, err = w.build(cfg.seed, nil)
			if err != nil {
				return "", fmt.Errorf("%s setup: %w", w.name, err)
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		out = inst.measure(cfg.seconds)
		inst.close()
		for k, v := range out.e2e {
			metrics[k] = v
		}
		metrics["setup_s"] = median(setups)
		if err := out.checkTails(); err != nil {
			return "", fmt.Errorf("%s: %w", w.name, err)
		}
		for _, name := range endToEnd {
			if _, ok := metrics[name]; !ok {
				return "", fmt.Errorf("%s: metric %s missing", w.name, name)
			}
		}
	} else {
		base, err := w.build(cfg.seed, nil)
		if err != nil {
			return "", fmt.Errorf("%s setup: %w", w.name, err)
		}
		plain := base.measure(cfg.seconds)
		base.close()
		runtime.GC()
		tr := newTracer(w.single, nil)
		inst, err := w.build(cfg.seed, tr)
		if err != nil {
			return "", fmt.Errorf("%s traced setup: %w", w.name, err)
		}
		out = inst.measure(cfg.seconds)
		inst.close()
		if err := out.checkTails(); err != nil {
			return "", fmt.Errorf("%s traced: %w", w.name, err)
		}
		for k, v := range out.layer {
			metrics[k] = v
		}
		// Both passes are audited; the result line counts both.
		out.attempted += plain.attempted
		out.confirmed += plain.confirmed
		out.failed += plain.failed
		out.unresolved += plain.unresolved
		out.falseAcks += plain.falseAcks
		out.correct = out.correct && plain.correct
		metrics["failed_pct"] = out.failedPct()
		metrics["false_ack_pct"] = out.falseAckPct()
		// Allocations are counted process-wide, so they come from the
		// untraced pass: the tracer allocates on its own.
		metrics["core.allocs_per_update"] = plain.layer["core.allocs_per_update"]
		metrics["trace.overhead_pct"] = 100 * (plain.e2e["confirmed_per_s"] - out.e2e["confirmed_per_s"]) / plain.e2e["confirmed_per_s"]
		path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.tsv", w.name, cfg.seed))
		if err := tr.writeSpans(path); err != nil {
			return "", err
		}
		fmt.Printf("span log: %s (%d spans)\n", path, len(tr.spans))
		for _, name := range perLayer {
			if _, ok := metrics[name]; !ok {
				metrics[name] = 0
			}
		}
	}
	for _, n := range out.notes {
		fmt.Println(n)
	}
	fmt.Printf("attempted=%d confirmed=%d failed=%d unresolved=%d false_acks=%d\n",
		out.attempted, out.confirmed, out.failed, out.unresolved, out.falseAcks)
	for _, s := range out.samples() {
		fmt.Println(s)
	}
	return resultLine(out, metrics, cfg.trace)
}

// resultLine renders the final JSON object.
func resultLine(out *outcome, metrics map[string]float64, trace bool) (string, error) {
	names := endToEnd
	if trace {
		names = perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]mv, len(names))
	for _, n := range names {
		v := metrics[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is %v", n, v)
		}
		m[n] = mv{Value: v, Unit: metricUnits[n]}
	}
	failed := out.failed + out.unresolved + out.falseAcks
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{out.correct && failed == 0, out.attempted, failed, m})
	return string(b), err
}

// outcome is one measured phase's result.
type outcome struct {
	attempted  int
	confirmed  int
	failed     int // resolved as failed
	unresolved int // never resolved
	falseAcks  int // acknowledged before data-plane activation
	correct    bool
	inputs     uint64 // simulated workloads: fingerprint of the generated inputs

	e2e   map[string]float64
	layer map[string]float64
	// tails names each reported percentile metric with its sample count.
	tails []tail
	notes []string
}

type tail struct {
	metric string
	n      int
}

func (o *outcome) failedPct() float64 {
	if o.attempted == 0 {
		return 0
	}
	return 100 * float64(o.failed+o.unresolved+o.falseAcks) / float64(o.attempted)
}

func (o *outcome) falseAckPct() float64 {
	if o.confirmed == 0 {
		return 0
	}
	return 100 * float64(o.falseAcks) / float64(o.confirmed)
}

// checkTails refuses a p99 metric drawn from fewer than 1000 samples.
func (o *outcome) checkTails() error {
	for _, t := range o.tails {
		p, ok := tailLevel(t.n)
		if !ok || p < 99 {
			return fmt.Errorf("%s needs 1000 samples, has %d", t.metric, t.n)
		}
	}
	return nil
}

// samples renders each distribution's sample count and the highest
// percentile it supports.
func (o *outcome) samples() []string {
	out := make([]string, 0, len(o.tails))
	sort.Slice(o.tails, func(i, j int) bool { return o.tails[i].metric < o.tails[j].metric })
	for _, t := range o.tails {
		p, ok := tailLevel(t.n)
		if !ok {
			out = append(out, fmt.Sprintf("samples %s n=%d (too few for any percentile)", t.metric, t.n))
			continue
		}
		out = append(out, fmt.Sprintf("samples %s n=%d highest_percentile=p%g", t.metric, t.n, p))
	}
	return out
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// window is one slice of a measured phase.
type window struct {
	wall      time.Duration
	cpu       time.Duration
	confirmed int
	drain     bool // the tail after generation stopped; not summarized
	// lat holds, for wall-clock workloads, the window's own install,
	// remove and ack-lag percentiles (p50, p99) and sample counts.
	lat  [3][2]float64
	latN [3]int
}

// windowMetrics returns the median per-window confirmed rate and CPU
// cost per confirmed update.
func windowMetrics(ws []window) (perSec, cpuUs float64) {
	var rates, costs []float64
	for _, w := range ws {
		if w.drain || w.confirmed == 0 || w.wall <= 0 {
			continue
		}
		rates = append(rates, float64(w.confirmed)/w.wall.Seconds())
		costs = append(costs, float64(w.cpu)/1e3/float64(w.confirmed))
	}
	return median(rates), median(costs)
}

// windowLatency returns the median over windows of one per-window
// latency percentile (k: 0 installs, 1 removes, 2 ack lag; i: 0 p50,
// 1 p99), so one stalled window cannot move the figure, and the
// smallest per-window sample count.
func windowLatency(ws []window, k, i int) (float64, int) {
	var xs []float64
	minN := 0
	for _, w := range ws {
		if w.latN[k] == 0 {
			continue
		}
		xs = append(xs, w.lat[k][i])
		if minN == 0 || w.latN[k] < minN {
			minN = w.latN[k]
		}
	}
	return median(xs), minN
}
