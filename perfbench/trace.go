package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rum/internal/of"
	"rum/internal/sim"
	"rum/internal/transport"
)

// layer names one boundary the traced run times from outside RUM.
type layer int

const (
	lCtrlHandler   layer = iota // core: RUM's controller-side receive handler
	lSwitchHandler              // core: RUM's switch-side receive handler
	lTimer                      // core: RUM-scheduled Clock.After callbacks
	lSend                       // transport: RUM's Send/SendBatch calls
	lSwitchsim                  // substrate: switch model and data plane
	lPipe                       // substrate: pipe delivery events
	lBench                      // the benchmark's own controller and driver
	lStep                       // sim: one engine step, before attribution
	nLayers
)

var layerNames = [nLayers]string{"core.ctrl_handler", "core.switch_handler", "core.timer",
	"transport.send", "switchsim", "sim.pipe", "bench", "sim.step"}

// frame is one open span. In single-goroutine (simulated) runs frames
// nest on the tracer's stack; in wall-clock runs each session owns one
// frame per handler and children find it through the session.
type frame struct {
	id     uint64
	layer  layer
	start  int64 // wall ns since the tracer's origin
	child  atomic.Int64
	parent *frame
	sw     string
	xid    uint32
	// claimed marks a sim step that entered a boundary some component
	// other than RUM owns; unclaimed steps are RUM's own timers.
	claimed bool
	// at is the workload-clock time the frame opened (sim time for
	// simulated runs).
	at     time.Duration
	active atomic.Bool
}

// span is one closed span in the log.
type span struct {
	id, parent uint64
	name       string
	start, end int64
	sw         string
	xid        uint32
}

// layerAcc accumulates one boundary's self time and call count.
type layerAcc struct {
	calls atomic.Int64
	ns    atomic.Int64
}

// tracer times RUM from outside at the boundaries the benchmark owns:
// the conns handed to AttachSwitch and their handlers, the net.Conn under
// the TCP transport, and the clocks. It is nil in untraced runs; every
// wrapper is only installed when it is on.
type tracer struct {
	origin time.Time
	single bool // simulated run: one goroutine, frames nest on stack
	now    func() time.Duration

	stack []*frame
	pool  []*frame

	layers [nLayers]layerAcc
	nextID atomic.Uint64

	// msgsIn/msgsOut count messages crossing RUM's conns by OpenFlow
	// type; batches/batchMsgs count Send and SendBatch calls and the
	// messages they carried.
	msgsIn, msgsOut [32]atomic.Int64
	batches         atomic.Int64
	batchMsgs       atomic.Int64
	// netReads/netWrites count calls on the wrapped net.Conns.
	netReads, netWrites atomic.Int64
	rumProbeFM          atomic.Int64 // FlowMods RUM generated itself
	rumBarriers         atomic.Int64 // BarrierRequests RUM generated itself

	// onAck sees every RUM ack leaving on a controller conn together with
	// the workload time of the message that caused it.
	onAck func(sw string, xid uint32, cause time.Duration)
	// onSwitchRecv sees every message a switch model receives.
	onSwitchRecv func(sw string, m of.Message)

	capture *msgCapture

	mu    sync.Mutex
	spans []span
	full  atomic.Bool // the span log reached maxSpans
}

// maxSpans bounds the in-memory span log.
const maxSpans = 200_000

func newTracer(single bool, now func() time.Duration) *tracer {
	return &tracer{origin: time.Now(), single: single, now: now, capture: &msgCapture{limit: 4096}}
}

func (t *tracer) wall() int64 { return int64(time.Since(t.origin)) }

// enter opens a frame. parent is the enclosing frame for multi-goroutine
// runs (nil when the call has none); simulated runs use the stack.
func (t *tracer) enter(l layer, parent *frame, sw string, xid uint32) *frame {
	var f *frame
	if t.single {
		if n := len(t.pool); n > 0 {
			f = t.pool[n-1]
			t.pool = t.pool[:n-1]
		} else {
			f = &frame{}
		}
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		t.stack = append(t.stack, f)
	} else {
		f = &frame{}
	}
	f.id = t.nextID.Add(1)
	f.layer = l
	f.parent = parent
	f.child.Store(0)
	f.sw, f.xid = sw, xid
	f.claimed = false
	f.at = t.now()
	f.start = t.wall()
	return f
}

// exit closes f, charging its self time to its layer and its full
// duration to its parent.
func (t *tracer) exit(f *frame) {
	end := t.wall()
	dur := end - f.start
	self := dur - f.child.Load()
	l := f.layer
	if l == lStep {
		if f.claimed {
			l = lPipe // engine overhead of a step someone else owns
		} else {
			l = lTimer
		}
	}
	t.layers[l].calls.Add(1)
	t.layers[l].ns.Add(self)
	var pid uint64
	if f.parent != nil {
		f.parent.child.Add(dur)
		pid = f.parent.id
		if l != lSend {
			markClaimed(f.parent)
		}
	}
	t.logSpan(span{id: f.id, parent: pid, name: layerNames[l], start: f.start, end: end, sw: f.sw, xid: f.xid})
	if t.single {
		t.stack = t.stack[:len(t.stack)-1]
		t.pool = append(t.pool, f)
	}
}

// markClaimed marks the enclosing step as owned by a non-RUM component.
func markClaimed(f *frame) {
	for ; f != nil; f = f.parent {
		if f.layer == lStep {
			f.claimed = true
			return
		}
	}
}

func (t *tracer) logSpan(s span) {
	if t.full.Load() {
		return
	}
	if !t.single {
		t.mu.Lock()
		defer t.mu.Unlock()
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.full.Store(true)
	}
}

// stageSpan logs one update's stage span (workload-clock times).
func (t *tracer) stageSpan(parent uint64, name string, from, to time.Duration, sw string, xid uint32) uint64 {
	id := t.nextID.Add(1)
	t.logSpan(span{id: id, parent: parent, name: name, start: int64(from), end: int64(to), sw: sw, xid: xid})
	return id
}

// writeSpans writes the span log as tab-separated lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span log: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# update and stage.* spans are on the workload clock (sim time on the fat-tree workloads);")
	fmt.Fprintln(w, "# every other span is wall time since the traced pass began. Times in ns.")
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns\tswitch\txid")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%s\t%d\n", s.id, s.parent, s.name, s.start, s.end, s.sw, s.xid)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span log: %w", err)
	}
	return f.Close()
}

// selfTimes recomputes per-layer self time from the span log: a span's
// duration minus the part its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	child := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]int64)
	for _, s := range t.spans {
		out[s.name] += s.end - s.start - child[s.id]
	}
	return out
}

// step runs one simulation event inside a step frame, so time no other
// boundary claims is charged to RUM's own timers.
func (t *tracer) step(s *sim.Sim) {
	f := t.enter(lStep, nil, "", 0)
	s.Step()
	t.exit(f)
}

// tracedClock wraps a clock so that each callback it schedules runs as a
// span of one layer.
type tracedClock struct {
	inner sim.Clock
	t     *tracer
	l     layer
}

func (c *tracedClock) Now() time.Duration { return c.inner.Now() }

func (c *tracedClock) After(d time.Duration, fn func()) sim.Timer {
	return c.inner.After(d, func() {
		f := c.t.enter(c.l, nil, "", 0)
		fn()
		c.t.exit(f)
	})
}

// sessTrace is the per-switch tracing state shared by the two conns
// handed to AttachSwitch.
type sessTrace struct {
	sw string
	// swFrame/ctFrame are the open handler frames of a wall-clock
	// session; a controller-conn Send made while one is open is its child.
	swFrame, ctFrame atomic.Pointer[frame]
	// lastSignal is the workload time the last barrier reply or PacketIn
	// from this switch reached RUM.
	lastSignal atomic.Int64
}

// conn roles.
const (
	roleCtrl   = iota // RUM's controller-side conn
	roleSwitch        // RUM's switch-side conn
	roleModel         // the switch model's own conn end
)

// tconn wraps a transport.Conn at a boundary the benchmark owns. It
// times Send calls and the receive handler; the optional fast-path
// interfaces are forwarded by the wrapper types wrapConn builds.
type tconn struct {
	inner transport.Conn
	t     *tracer
	sess  *sessTrace
	role  int
}

// wrapConn returns a traced conn that implements exactly the optional
// interfaces (BatchSender, PartialBatchSender, FrameEncoder) inner does,
// so RUM keeps the pooled, zero-copy paths it selects by type.
func wrapConn(inner transport.Conn, t *tracer, sess *sessTrace, role int) transport.Conn {
	c := &tconn{inner: inner, t: t, sess: sess, role: role}
	_, bs := inner.(transport.BatchSender)
	_, ps := inner.(transport.PartialBatchSender)
	_, fe := inner.(transport.FrameEncoder)
	b, p, e := tbatch{c}, tpartial{c}, tframe{c}
	switch {
	case bs && ps && fe:
		return struct {
			*tconn
			tbatch
			tpartial
			tframe
		}{c, b, p, e}
	case bs && ps:
		return struct {
			*tconn
			tbatch
			tpartial
		}{c, b, p}
	case bs && fe:
		return struct {
			*tconn
			tbatch
			tframe
		}{c, b, e}
	case ps && fe:
		return struct {
			*tconn
			tpartial
			tframe
		}{c, p, e}
	case bs:
		return struct {
			*tconn
			tbatch
		}{c, b}
	case ps:
		return struct {
			*tconn
			tpartial
		}{c, p}
	case fe:
		return struct {
			*tconn
			tframe
		}{c, e}
	}
	return c
}

type tbatch struct{ c *tconn }
type tpartial struct{ c *tconn }
type tframe struct{ c *tconn }

func (b tbatch) SendBatch(ms []of.Message) error {
	f := b.c.beginSend(ms)
	err := b.c.inner.(transport.BatchSender).SendBatch(ms)
	b.c.t.exit(f)
	return err
}

func (p tpartial) SendBatchPartial(ms []of.Message) (int, error) {
	f := p.c.beginSend(ms)
	n, err := p.c.inner.(transport.PartialBatchSender).SendBatchPartial(ms)
	p.c.t.exit(f)
	return n, err
}

func (e tframe) EncodesFrames() bool { return e.c.inner.(transport.FrameEncoder).EncodesFrames() }

func (c *tconn) Send(m of.Message) error {
	if c.role == roleModel {
		return c.inner.Send(m)
	}
	f := c.beginSend([]of.Message{m})
	err := c.inner.Send(m)
	c.t.exit(f)
	return err
}

func (c *tconn) Close() error { return c.inner.Close() }

// beginSend counts and captures the outgoing messages and opens the send
// frame, parented to the handler that caused it.
func (c *tconn) beginSend(ms []of.Message) *frame {
	t := c.t
	t.batches.Add(1)
	t.batchMsgs.Add(int64(len(ms)))
	for _, m := range ms {
		t.msgsOut[m.MsgType()&31].Add(1)
		t.capture.add(m)
		if of.IsRUMXID(m.GetXID()) && c.role == roleSwitch {
			switch m.(type) {
			case *of.FlowMod:
				t.rumProbeFM.Add(1)
			case *of.BarrierRequest:
				t.rumBarriers.Add(1)
			}
		}
		if c.role == roleCtrl && t.onAck != nil {
			if e, ok := m.(*of.Error); ok {
				if xid, _, ok := e.IsRUMAck(); ok {
					t.onAck(c.sess.sw, xid, t.ackCause(c.sess))
				}
			}
		}
	}
	var parent *frame
	if !t.single && c.role == roleCtrl {
		// Only controller-conn sends run on a handler's goroutine; switch
		// conns are written by the shard pumps.
		if p := c.sess.swFrame.Load(); p != nil && p.active.Load() {
			parent = p
		} else if p := c.sess.ctFrame.Load(); p != nil && p.active.Load() {
			parent = p
		}
	}
	var sw string
	var xid uint32
	if len(ms) == 1 {
		sw, xid = c.sess.sw, ms[0].GetXID()
	}
	return t.enter(lSend, parent, sw, xid)
}

// ackCause returns the workload time of the message whose handling
// emitted an ack: the switch-side message being handled, else the last
// signal from the acked switch (a timer released the ack).
func (t *tracer) ackCause(sess *sessTrace) time.Duration {
	if t.single {
		for i := len(t.stack) - 1; i >= 0; i-- {
			if t.stack[i].layer == lSwitchHandler {
				return t.stack[i].at
			}
		}
	} else if f := sess.swFrame.Load(); f != nil && f.active.Load() {
		return f.at
	}
	return time.Duration(sess.lastSignal.Load())
}

func (c *tconn) SetHandler(h transport.Handler) {
	t := c.t
	switch c.role {
	case roleModel:
		c.inner.SetHandler(func(m of.Message) {
			if t.onSwitchRecv != nil {
				t.onSwitchRecv(c.sess.sw, m)
			}
			f := t.enter(lSwitchsim, nil, c.sess.sw, m.GetXID())
			h(m)
			t.exit(f)
		})
		return
	}
	l := lCtrlHandler
	slot := &c.sess.ctFrame
	if c.role == roleSwitch {
		l = lSwitchHandler
		slot = &c.sess.swFrame
	}
	c.inner.SetHandler(func(m of.Message) {
		t.msgsIn[m.MsgType()&31].Add(1)
		t.capture.add(m)
		f := t.enter(l, nil, c.sess.sw, m.GetXID())
		if c.role == roleSwitch {
			switch m.(type) {
			case *of.BarrierReply, *of.PacketIn:
				c.sess.lastSignal.Store(int64(f.at))
			}
		}
		if !t.single {
			f.active.Store(true)
			slot.Store(f)
		}
		h(m)
		if !t.single {
			f.active.Store(false)
		}
		t.exit(f)
	})
}

// msgCapture keeps wire copies of the first messages crossing RUM's
// conns, the message mix the codec replay encodes and decodes.
type msgCapture struct {
	full  atomic.Bool
	mu    sync.Mutex
	limit int
	wire  [][]byte
	bytes [32]int64 // encoded bytes per message type, over the capture
	count [32]int64
}

func (c *msgCapture) add(m of.Message) {
	if c.full.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.wire) >= c.limit {
		c.full.Store(true)
		return
	}
	b, err := of.Marshal(m)
	if err != nil {
		return
	}
	c.wire = append(c.wire, b)
	c.bytes[m.MsgType()&31] += int64(len(b))
	c.count[m.MsgType()&31]++
}

func (c *msgCapture) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wire = nil
	c.bytes, c.count = [32]int64{}, [32]int64{}
	c.full.Store(false)
}

// countingConn wraps the net.Conn under transport.NewTCP and counts the
// Read and Write calls the transport makes on it.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.t.netReads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.t.netWrites.Add(1)
	return c.Conn.Write(p)
}
