package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"rum/internal/core"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/sim"
	"rum/internal/transport"
)

// tcp-wire shape. Each switch has one closed-loop driver that keeps at
// most wireWindow updates unacknowledged; bursts of wireBurst installs
// are each followed by a controller barrier and then by strict deletes
// of the same rules.
const (
	wireSwitches = 2
	wireWindow   = 128
	wireBurst    = 64
	wireRing     = 1 << 16 // per-update slots, indexed by xid
	wireWarmup   = 300 * time.Millisecond
	wireDrain    = 3 * time.Second
	// Controller barriers use their own xid range so they never collide
	// with update slots.
	wireBarrierXID = 0x4000_0000
)

// wireSlot is one in-flight update: when the controller sent it, when
// the echo switch received it (its activation: the echo switch applies
// a FlowMod the moment it reads it), and when the ack reached the
// controller.
type wireSlot struct {
	xid    atomic.Uint32
	remove atomic.Bool
	sendAt atomic.Int64
	recvAt atomic.Int64
	ackAt  atomic.Int64
	signal atomic.Int64 // traced runs: when the confirming message reached RUM
}

// echoSwitch is the benchmark's switch: it logs when each FlowMod
// arrives and answers barriers at once, so every cost measured on
// tcp-wire is RUM's or the wire's.
type echoSwitch struct {
	conn   transport.Conn
	slots  []wireSlot
	origin time.Time
	msgs   atomic.Int64
	rules  atomic.Int64
	peak   atomic.Int64
}

func (e *echoSwitch) handle(m of.Message) {
	e.msgs.Add(1)
	switch mm := m.(type) {
	case *of.FlowMod:
		now := int64(time.Since(e.origin))
		if xid := mm.GetXID(); !of.IsRUMXID(xid) {
			s := &e.slots[xid%wireRing]
			if s.xid.Load() == xid {
				s.recvAt.Store(now)
			}
		}
		switch mm.Command {
		case of.FCAdd:
			if n := e.rules.Add(1); n > e.peak.Load() {
				e.peak.Store(n)
			}
		case of.FCDeleteStrict:
			e.rules.Add(-1)
		}
	case *of.BarrierRequest:
		rep := of.AcquireBarrierReply()
		rep.SetXID(mm.GetXID())
		_ = e.conn.Send(rep)
		of.Release(rep)
	}
	of.Release(m)
}

// wireDriver is one switch's controller: a closed-loop sender and the
// handler of RUM's acks.
type wireDriver struct {
	sw     string
	conn   transport.Conn
	echo   *echoSwitch
	origin time.Time
	sem    chan struct{}
	xid    uint32
	bxid   uint32
	rules  []of.Match

	confirmed  atomic.Int64
	failed     atomic.Int64
	falseAcks  atomic.Int64
	unresolved atomic.Int64
	attempted  atomic.Int64
	logical    atomic.Int64
	peakLog    atomic.Int64

	mu                 sync.Mutex
	install, remove    hist
	lag                hist
	forward, sig, emit hist
	tr                 *tracer // traced runs only
}

func (d *wireDriver) handle(m of.Message) {
	if e, ok := m.(*of.Error); ok {
		now := int64(time.Since(d.origin))
		xid, _, isAck := e.IsRUMAck()
		if !isAck {
			xid = e.GetXID()
		}
		s := &d.echo.slots[xid%wireRing]
		if s.xid.Load() == xid && s.ackAt.Load() == 0 {
			s.ackAt.Store(now)
			d.settle(s, now, isAck)
			<-d.sem
		}
	}
	of.Release(m)
}

// settle audits one resolved update against the echo switch's receipt
// log and records its latencies.
func (d *wireDriver) settle(s *wireSlot, now int64, ok bool) {
	if !ok {
		d.failed.Add(1)
		return
	}
	recv := s.recvAt.Load()
	if recv == 0 || recv > now {
		d.falseAcks.Add(1)
		return
	}
	d.confirmed.Add(1)
	send := s.sendAt.Load()
	d.mu.Lock()
	if s.remove.Load() {
		d.remove.add(now - send)
	} else {
		d.install.add(now - send)
	}
	d.lag.add(now - recv)
	if d.tr != nil {
		sig := s.signal.Load()
		if sig < recv {
			sig = recv
		}
		d.forward.add(recv - send)
		d.sig.add(sig - recv)
		d.emit.add(now - sig)
	}
	d.mu.Unlock()
	if xid := s.xid.Load(); d.tr != nil && xid%64 == 0 {
		// The echo switch activates a rule as it reads it, so the switch
		// stage is empty here.
		at := func(ns int64) time.Duration { return time.Duration(ns) }
		sig := max(s.signal.Load(), recv)
		root := d.tr.stageSpan(0, "update", at(send), at(now), d.sw, xid)
		d.tr.stageSpan(root, "stage.forward", at(send), at(recv), d.sw, xid)
		d.tr.stageSpan(root, "stage.switch", at(recv), at(recv), d.sw, xid)
		d.tr.stageSpan(root, "stage.signal", at(recv), at(sig), d.sw, xid)
		d.tr.stageSpan(root, "stage.emit", at(sig), at(now), d.sw, xid)
	}
}

// send issues one update, waiting for window space; it returns false
// once stop is closed.
func (d *wireDriver) send(fm *of.FlowMod, remove bool, stop <-chan struct{}) bool {
	select {
	case d.sem <- struct{}{}:
	case <-stop:
		return false
	}
	d.xid++
	if d.xid >= wireBarrierXID {
		d.xid = 1
	}
	s := &d.echo.slots[d.xid%wireRing]
	if s.xid.Load() != 0 && s.ackAt.Load() == 0 {
		d.unresolved.Add(1) // a slot reused before its update resolved
	}
	s.ackAt.Store(0)
	s.recvAt.Store(0)
	s.signal.Store(0)
	s.remove.Store(remove)
	s.xid.Store(d.xid)
	s.sendAt.Store(int64(time.Since(d.origin)))
	fm.SetXID(d.xid)
	d.attempted.Add(1)
	if err := d.conn.Send(fm); err != nil {
		d.failed.Add(1)
		<-d.sem
	}
	return true
}

// loop alternates install bursts, each followed by a controller barrier,
// with strict deletes of the same rules, until stop closes.
func (d *wireDriver) loop(stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	fm := &of.FlowMod{BufferID: of.BufferNone, OutPort: of.PortNone, Priority: 100}
	out := []of.Action{of.ActionOutput{Port: 1}}
	br := &of.BarrierRequest{}
	for {
		for _, remove := range []bool{false, true} {
			for _, m := range d.rules {
				fm.Match = m
				if remove {
					fm.Command, fm.Actions = of.FCDeleteStrict, nil
				} else {
					fm.Command, fm.Actions = of.FCAdd, out
				}
				if !d.send(fm, remove, stop) {
					return
				}
				if !remove {
					if n := d.logical.Add(1); n > d.peakLog.Load() {
						d.peakLog.Store(n)
					}
				} else {
					d.logical.Add(-1)
				}
			}
			d.bxid++
			br.SetXID(wireBarrierXID + d.bxid)
			_ = d.conn.Send(br)
		}
	}
}

// wireInstance is one built tcp-wire deployment.
type wireInstance struct {
	r       *core.RUM
	tr      *tracer
	ln      net.Listener
	drivers []*wireDriver
	echoes  []*echoSwitch
	closers []transport.Conn
	origin  time.Time
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(ln net.Listener) (a, b net.Conn, err error) {
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	r := <-ch
	if err != nil {
		if r.c != nil {
			r.c.Close()
		}
		return nil, nil, err
	}
	if r.err != nil {
		a.Close()
		return nil, nil, r.err
	}
	return a, r.c, nil
}

// wireRules draws each switch's rule set from the seed: exact IPv4
// src/dst matches, distinct within a switch.
func wireRules(rng *rand.Rand) []of.Match {
	seen := make(map[[2]uint32]bool)
	var out []of.Match
	for len(out) < wireBurst {
		src := 0x0a000000 | rng.Uint32()&0x00ffffff
		dst := 0x0b000000 | rng.Uint32()&0x00ffffff
		if seen[[2]uint32{src, dst}] {
			continue
		}
		seen[[2]uint32{src, dst}] = true
		m := of.MatchAll()
		m.Wildcards &^= of.WcDLType
		m.DLType = packet.EtherTypeIPv4
		m.SetNWSrc(netip.AddrFrom4([4]byte{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src)}))
		m.SetNWDst(netip.AddrFrom4([4]byte{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst)}))
		out = append(out, m)
	}
	return out
}

func buildTCPWire(seed int64, tr *tracer) (instance, error) {
	w := &wireInstance{tr: tr, origin: time.Now()}
	var clk sim.Clock = sim.NewWall()
	if tr != nil {
		tr.origin = w.origin
		tr.now = func() time.Duration { return time.Since(w.origin) }
		clk = &tracedClock{inner: clk, t: tr, l: lTimer}
	}
	r, err := core.New(core.Config{Clock: clk, Technique: core.TechBarriers,
		BarrierLayer: true, RUMAware: true},
		core.NewTopology([]core.TopoLink{{A: "s1", APort: 2, B: "s2", BPort: 2}}))
	if err != nil {
		return nil, err
	}
	w.r = r
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	w.ln = ln
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < wireSwitches; i++ {
		name := fmt.Sprintf("s%d", i+1)
		if err := w.attach(name, uint64(i+1), wireRules(rng)); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := r.Bootstrap(); err != nil {
		w.close()
		return nil, err
	}
	// Warm-up: run the drivers briefly so pools, buffers and the
	// scheduler settle before anything is timed.
	w.drive(wireWarmup, nil)
	w.reset()
	return w, nil
}

// attach wires one switch: loopback TCP between the echo switch and
// RUM, and between RUM and the switch's controller driver.
func (w *wireInstance) attach(name string, dpid uint64, rules []of.Match) error {
	swRUM, swEcho, err := tcpPair(w.ln)
	if err != nil {
		return err
	}
	ctRUM, ctDrv, err := tcpPair(w.ln)
	if err != nil {
		swRUM.Close()
		swEcho.Close()
		return err
	}
	echo := &echoSwitch{slots: make([]wireSlot, wireRing), origin: w.origin}
	echo.conn = transport.NewTCP(swEcho)
	drv := &wireDriver{sw: name, echo: echo, origin: w.origin, rules: rules,
		sem: make(chan struct{}, wireWindow), tr: w.tr}
	drv.conn = transport.NewTCP(ctDrv)
	w.closers = append(w.closers, echo.conn, drv.conn)
	var rumSw, rumCt transport.Conn
	if w.tr != nil {
		rumSw = transport.NewTCP(&countingConn{Conn: swRUM, t: w.tr})
		rumCt = transport.NewTCP(&countingConn{Conn: ctRUM, t: w.tr})
		sess := &sessTrace{sw: name}
		rumSw = wrapConn(rumSw, w.tr, sess, roleSwitch)
		rumCt = wrapConn(rumCt, w.tr, sess, roleCtrl)
	} else {
		rumSw = transport.NewTCP(swRUM)
		rumCt = transport.NewTCP(ctRUM)
	}
	echo.conn.SetHandler(echo.handle)
	drv.conn.SetHandler(drv.handle)
	if _, err := w.r.AttachSwitch(name, dpid, rumCt, rumSw); err != nil {
		rumSw.Close()
		rumCt.Close()
		return fmt.Errorf("attaching %s: %w", name, err)
	}
	w.drivers = append(w.drivers, drv)
	w.echoes = append(w.echoes, echo)
	if w.tr != nil {
		w.tr.onAck = w.onAck
	}
	return nil
}

// onAck records, in traced runs, when the message that released an ack
// reached RUM.
func (w *wireInstance) onAck(sw string, xid uint32, cause time.Duration) {
	for _, d := range w.drivers {
		if d.sw == sw {
			s := &d.echo.slots[xid%wireRing]
			if s.xid.Load() == xid {
				s.signal.Store(int64(cause))
			}
			return
		}
	}
}

// reset clears every counter and distribution after warm-up.
func (w *wireInstance) reset() {
	for _, d := range w.drivers {
		d.confirmed.Store(0)
		d.failed.Store(0)
		d.falseAcks.Store(0)
		d.unresolved.Store(0)
		d.attempted.Store(0)
		d.mu.Lock()
		d.install, d.remove, d.lag = hist{}, hist{}, hist{}
		d.forward, d.sig, d.emit = hist{}, hist{}, hist{}
		d.mu.Unlock()
	}
	for _, e := range w.echoes {
		e.msgs.Store(0)
	}
	if w.tr != nil {
		w.tr.reset()
	}
}

func (w *wireInstance) confirmedTotal() int {
	n := 0
	for _, d := range w.drivers {
		n += int(d.confirmed.Load())
	}
	return n
}

// wireWindowLen is the length of one measured window.
const wireWindowLen = 500 * time.Millisecond

// drive runs the drivers for d, cutting the run into windows, then stops
// them and waits for every outstanding update to resolve.
func (w *wireInstance) drive(d time.Duration, windows *[]window) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for _, drv := range w.drivers {
		wg.Add(1)
		go drv.loop(stop, &wg)
	}
	lastWall, lastCPU, lastN := start, cpuNow(), w.confirmedTotal()
	var last [3]hist
	for time.Since(start) < d {
		next := lastWall.Add(wireWindowLen)
		if end := start.Add(d); next.After(end) {
			next = end
		}
		time.Sleep(time.Until(next))
		now, cpu, n := time.Now(), cpuNow(), w.confirmedTotal()
		if windows != nil {
			win := window{wall: now.Sub(lastWall), cpu: cpu - lastCPU, confirmed: n - lastN}
			cur := w.latencies()
			for k := range cur {
				delta := cur[k]
				delta.sub(&last[k])
				win.lat[k] = [2]float64{delta.atMs(50), delta.atMs(99)}
				win.latN[k] = delta.n()
			}
			last = cur
			*windows = append(*windows, win)
		}
		lastWall, lastCPU, lastN = now, cpu, n
	}
	close(stop)
	wg.Wait()
	deadline := time.Now().Add(wireDrain)
	for _, drv := range w.drivers {
		for len(drv.sem) > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		drv.unresolved.Add(int64(len(drv.sem)))
	}
}

// latencies snapshots the drivers' cumulative install, remove and
// ack-lag histograms.
func (w *wireInstance) latencies() [3]hist {
	var out [3]hist
	for _, d := range w.drivers {
		d.mu.Lock()
		out[0].merge(&d.install)
		out[1].merge(&d.remove)
		out[2].merge(&d.lag)
		d.mu.Unlock()
	}
	return out
}

func (w *wireInstance) measure(seconds int) *outcome {
	var ws []window
	m0 := mallocs()
	w.drive(time.Duration(seconds)*time.Second, &ws)
	allocs := mallocs() - m0
	heap := liveHeapMB()
	out := &outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	var fwd, sig, emit hist
	var peakLogical, peakPhysical, switchMsgs int64
	for i, d := range w.drivers {
		out.attempted += int(d.attempted.Load())
		out.confirmed += int(d.confirmed.Load())
		out.failed += int(d.failed.Load())
		out.unresolved += int(d.unresolved.Load())
		out.falseAcks += int(d.falseAcks.Load())
		d.mu.Lock()
		fwd.merge(&d.forward)
		sig.merge(&d.sig)
		emit.merge(&d.emit)
		d.mu.Unlock()
		peakLogical += d.peakLog.Load()
		peakPhysical += w.echoes[i].peak.Load()
		switchMsgs += w.echoes[i].msgs.Load()
	}
	e := out.e2e
	e["confirmed_per_s"], e["cpu_us_per_update"] = windowMetrics(ws)
	for k, name := range []string{"ack", "remove", "ack_lag"} {
		var n int
		e[name+"_p50_ms"], _ = windowLatency(ws, k, 0)
		e[name+"_p99_ms"], n = windowLatency(ws, k, 1)
		out.tails = append(out.tails, tail{name + "_p99_ms (per window)", n})
	}
	e["switch_msgs_per_update"] = float64(switchMsgs) / float64(out.attempted)
	e["compression_ratio"] = float64(peakLogical) / float64(peakPhysical)
	e["live_heap_mb"] = heap
	out.layer["core.allocs_per_update"] = float64(allocs) / float64(out.attempted)
	if w.tr != nil {
		l := out.layer
		updates := float64(out.attempted)
		w.tr.transportLayer(l, updates)
		w.tr.coreLayer(l, updates, ws)
		for _, d := range w.drivers {
			if hw := float64(w.r.OutboxHighWater(d.sw)); hw > l["core.outbox_high_water"] {
				l["core.outbox_high_water"] = hw
			}
		}
		l["stage.forward_p50_ms"], l["stage.forward_p99_ms"] = fwd.atMs(50), fwd.atMs(99)
		l["stage.signal_p50_ms"], l["stage.signal_p99_ms"] = sig.atMs(50), sig.atMs(99)
		l["stage.emit_p50_ms"], l["stage.emit_p99_ms"] = emit.atMs(50), emit.atMs(99)
		// The echo switch activates a rule the moment it reads it, so
		// stage.switch is zero here by construction.
		l["strategy.barriers_per_update"] = float64(w.tr.rumBarriers.Load()) / updates
		l["strategy.probe_rules_per_update"] = float64(w.tr.rumProbeFM.Load()) / updates
		_, probes, fallbacks := w.r.Stats()
		l["probes_per_update"] = float64(probes) / updates
		l["strategy.fallback_pct"] = 100 * float64(fallbacks) / updates
		w.tr.codecLayer(l, updates)
	}
	return out
}

func (w *wireInstance) close() {
	for _, d := range w.drivers {
		w.r.DetachSwitch(d.sw)
	}
	for _, c := range w.closers {
		c.Close()
	}
	if w.ln != nil {
		w.ln.Close()
	}
}
