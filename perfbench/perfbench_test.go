package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

func TestTailLevel(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailLevel(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	var d dist
	for _, v := range []float64{5, 1, 4, 2, 3} {
		d.add(v)
	}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := d.at(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	var h hist
	for i := 1; i <= 10000; i++ {
		h.add(int64(i) * 1000) // 1µs .. 10ms
	}
	for _, c := range []struct{ p, wantMs float64 }{{50, 5}, {99, 9.9}} {
		if got := h.atMs(c.p); math.Abs(got-c.wantMs)/c.wantMs > 1.0/64 {
			t.Errorf("hist p%v = %v ms, want %v ms within 1/64", c.p, got, c.wantMs)
		}
	}
	var o outcome
	o.tails = []tail{{"ack_p99_ms", 999}}
	if o.checkTails() == nil {
		t.Error("p99 from 999 samples accepted")
	}
	o.tails = []tail{{"ack_p99_ms", 1000}}
	if err := o.checkTails(); err != nil {
		t.Errorf("p99 from 1000 samples refused: %v", err)
	}
}

type plainConn struct{ sent int }

func (c *plainConn) Send(of.Message) error        { c.sent++; return nil }
func (c *plainConn) SetHandler(transport.Handler) {}
func (c *plainConn) Close() error                 { return nil }

// TestWrapConnForwarding checks that a traced conn implements exactly
// the optional fast-path interfaces of the conn it wraps.
func TestWrapConnForwarding(t *testing.T) {
	tr := newTracer(true, func() time.Duration { return 0 })
	sess := &sessTrace{sw: "s1"}
	a, b := net.Pipe()
	tcp := transport.NewTCP(a)
	defer tcp.Close()
	defer b.Close()
	pipeA, _ := transport.Pipe(sim.New(), time.Millisecond)
	for _, c := range []struct {
		name  string
		inner transport.Conn
	}{{"tcp", tcp}, {"pipe", pipeA}, {"plain", &plainConn{}}} {
		w := wrapConn(c.inner, tr, sess, roleSwitch)
		_, bs := c.inner.(transport.BatchSender)
		_, ps := c.inner.(transport.PartialBatchSender)
		_, fe := c.inner.(transport.FrameEncoder)
		_, wbs := w.(transport.BatchSender)
		_, wps := w.(transport.PartialBatchSender)
		_, wfe := w.(transport.FrameEncoder)
		if bs != wbs || ps != wps || fe != wfe {
			t.Errorf("%s: wrapped (batch %v, partial %v, frames %v), inner (%v, %v, %v)",
				c.name, wbs, wps, wfe, bs, ps, fe)
		}
		if transport.EncodesFrames(w) != transport.EncodesFrames(c.inner) {
			t.Errorf("%s: EncodesFrames differs through the wrapper", c.name)
		}
	}
	// Every optional interface exists on the TCP conn, and the wrapper
	// forwards each call through the timed boundary.
	w := wrapConn(&plainConn{}, tr, sess, roleSwitch)
	if err := w.Send(&of.BarrierRequest{}); err != nil {
		t.Fatal(err)
	}
	if tr.batches.Load() != 1 || tr.layers[lSend].calls.Load() != 1 {
		t.Errorf("send not counted: batches=%d calls=%d", tr.batches.Load(), tr.layers[lSend].calls.Load())
	}
}

// TestDeterminism runs each simulated workload twice on one seed and
// once on another: the same seed must give identical simulated-time
// metrics and counts, a different seed different inputs.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full fat-trees")
	}
	simMetrics := []string{"ack_p50_ms", "ack_p99_ms", "remove_p50_ms", "remove_p99_ms",
		"ack_lag_p50_ms", "ack_lag_p99_ms", "switch_msgs_per_update", "compression_ratio"}
	for _, w := range workloads {
		if !w.single {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			runOnce := func(seed int64) *outcome {
				inst, err := w.build(seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer inst.close()
				out := inst.measure(1)
				if out.attempted == 0 || out.failed+out.unresolved+out.falseAcks != 0 || !out.correct {
					t.Fatalf("seed %d: attempted=%d failed=%d unresolved=%d false=%d correct=%v",
						seed, out.attempted, out.failed, out.unresolved, out.falseAcks, out.correct)
				}
				return out
			}
			a, b, c := runOnce(7), runOnce(7), runOnce(8)
			if a.attempted != b.attempted || a.confirmed != b.confirmed || a.inputs != b.inputs {
				t.Errorf("same seed: attempted %d/%d confirmed %d/%d inputs %x/%x",
					a.attempted, b.attempted, a.confirmed, b.confirmed, a.inputs, b.inputs)
			}
			for _, m := range simMetrics {
				if a.e2e[m] != b.e2e[m] {
					t.Errorf("same seed: %s %v != %v", m, a.e2e[m], b.e2e[m])
				}
			}
			if a.inputs == c.inputs {
				t.Errorf("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// metrics this program prints, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if i < len(want) && m.Name != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %s, program %s", kind, i, m.Name, want[i])
			}
			if metricUnits[m.Name] != m.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q in the program", m.Name, m.Unit, metricUnits[m.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	for i, w := range b.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %s", i, w.Name)
		}
	}
}

// TestTCPWireTraced drives the wall-clock workload with tracing on: its
// tracer is shared by every conn reader, shard pump and driver.
func TestTCPWireTraced(t *testing.T) {
	tr := newTracer(false, nil)
	inst, err := buildTCPWire(3, tr)
	if err != nil {
		t.Fatal(err)
	}
	out := inst.measure(1)
	inst.close()
	if out.confirmed == 0 || out.failed+out.unresolved+out.falseAcks != 0 || !out.correct {
		t.Fatalf("attempted=%d confirmed=%d failed=%d unresolved=%d false=%d", out.attempted,
			out.confirmed, out.failed, out.unresolved, out.falseAcks)
	}
	for _, m := range []string{"transport.writes_per_kupdate", "transport.send_ns_per_msg",
		"core.switch_handler_ns_per_msg", "of.encode_ns_per_msg", "stage.forward_p50_ms"} {
		if out.layer[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, out.layer[m])
		}
	}
	if len(tr.spans) == 0 {
		t.Error("empty span log")
	}
}
