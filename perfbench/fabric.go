package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"rum/internal/core"
	"rum/internal/netsim"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/sim"
	"rum/internal/switchsim"
	"rum/internal/transport"
)

// Fat-tree substrate settings shared by both simulated workloads.
const (
	fabricK = 8
	// Each control channel's one-way latency is drawn per switch from
	// [ctrlLatencyMin, ctrlLatencyMax): switches sit at different
	// distances from the controller, and the spread keeps the simulated
	// latencies from collapsing onto a lattice of fixed delays, where a
	// percentile would jump between lattice points from seed to seed.
	ctrlLatencyMin = 50 * time.Microsecond
	ctrlLatencyMax = 300 * time.Microsecond
	linkLatency    = 20 * time.Microsecond
	bootSettle     = 700 * time.Millisecond
	drainTimeout   = 20 * time.Second // sim time allowed for the last acks
)

// upd is one tracked controller update.
type upd struct {
	sw       int32
	xid      uint32
	remove   bool
	measured bool
	match    of.Match
	sendAt   time.Duration
	ackAt    time.Duration // ack reached the controller; -1 before
	recvAt   time.Duration // traced runs: the switch model read it; -1 before
	signalAt time.Duration // traced runs: the confirming message reached RUM
	h        *core.UpdateHandle
}

// fabric is a k=8 fat-tree of switch models on the sim clock, with one
// pair of pipes per switch: controller ↔ RUM and RUM ↔ switch.
type fabric struct {
	s     *sim.Sim
	tr    *tracer
	ft    *netsim.FatTree
	names []string
	index map[string]int
	sw    []*switchsim.Switch
	links []core.TopoLink
	port  map[[2]string]uint16 // (a, b) → a's port toward b
	ctrl  []transport.Conn     // the benchmark's controller end per switch
	bench sim.Clock            // clock for the benchmark's own events
	rng   *rand.Rand           // draws the control-channel latencies

	watch func(sw string, xid uint32) *core.UpdateHandle
	upds  []*upd // by xid-1

	acked    int // positive wire acks received for measured updates
	resolved int // measured updates with a wire ack or a wire error
	issued   int // measured updates sent
	settled  int // prefix of upds known resolved (settle's cursor)

	// physRecv maps (switch, RUM xid) to when the switch model read that
	// RUM-generated FlowMod (traced runs).
	physRecv map[uint64]time.Duration
}

func newFabric(seed int64, tr *tracer) (*fabric, error) {
	ft, err := netsim.NewFatTree(fabricK)
	if err != nil {
		return nil, err
	}
	f := &fabric{s: sim.New(), tr: tr, ft: ft, names: ft.Switches(), rng: rand.New(rand.NewSource(seed)),
		index: make(map[string]int), port: make(map[[2]string]uint16),
		physRecv: make(map[uint64]time.Duration)}
	var netClk, swClk sim.Clock = f.s, f.s
	f.bench = f.s
	if tr != nil {
		tr.now = f.s.Now
		netClk = &tracedClock{inner: f.s, t: tr, l: lSwitchsim}
		swClk = netClk
		f.bench = &tracedClock{inner: f.s, t: tr, l: lBench}
	}
	n := netsim.New(netClk)
	prof := switchsim.ProfileSoftware()
	// Table occupancy costs control-plane time, so the standing tables
	// load the switch model the way a populated FIB would.
	prof.ModPerEntry = 100 * time.Nanosecond
	for i, name := range f.names {
		f.index[name] = i
		f.sw = append(f.sw, switchsim.New(name, uint64(i+1), prof, swClk, n))
	}
	for _, l := range ft.Links {
		n.Connect(f.sw[f.index[l.A]], l.APort, f.sw[f.index[l.B]], l.BPort, linkLatency)
		f.links = append(f.links, core.TopoLink{A: l.A, APort: l.APort, B: l.B, BPort: l.BPort})
		f.port[[2]string{l.A, l.B}] = l.APort
		f.port[[2]string{l.B, l.A}] = l.BPort
	}
	return f, nil
}

// ctrlLatency draws one control channel's one-way latency.
func (f *fabric) ctrlLatency() time.Duration {
	return ctrlLatencyMin + time.Duration(f.rng.Int63n(int64(ctrlLatencyMax-ctrlLatencyMin)))
}

// attach wires every switch through attachFn (a RUM or cluster
// AttachSwitch), wrapping the two conns RUM receives in traced runs.
func (f *fabric) attach(attachFn func(name string, dpid uint64, ctrl, sw transport.Conn) error) error {
	var pipeClk sim.Clock = f.s
	if f.tr != nil {
		pipeClk = &tracedClock{inner: f.s, t: f.tr, l: lPipe}
	}
	for i, name := range f.names {
		ctrlTop, ctrlBottom := transport.Pipe(pipeClk, f.ctrlLatency())
		rumSide, swSide := transport.Pipe(pipeClk, f.ctrlLatency())
		if f.tr != nil {
			sess := &sessTrace{sw: name}
			swSide = wrapConn(swSide, f.tr, sess, roleModel)
			ctrlBottom = wrapConn(ctrlBottom, f.tr, sess, roleCtrl)
			rumSide = wrapConn(rumSide, f.tr, sess, roleSwitch)
		}
		f.sw[i].AttachConn(swSide)
		sw := i
		ctrlTop.SetHandler(func(m of.Message) { f.onController(sw, m) })
		if err := attachFn(name, f.sw[i].DPID(), ctrlBottom, rumSide); err != nil {
			return fmt.Errorf("attaching %s: %w", name, err)
		}
		f.ctrl = append(f.ctrl, ctrlTop)
	}
	if f.tr != nil {
		f.tr.onSwitchRecv = f.onSwitchRecv
		f.tr.onAck = f.onAck
	}
	return nil
}

// onController is the benchmark controller's receive handler.
func (f *fabric) onController(sw int, m of.Message) {
	e, ok := m.(*of.Error)
	if !ok {
		return
	}
	xid, _, isAck := e.IsRUMAck()
	if !isAck {
		xid = e.GetXID()
	}
	if xid == 0 || int(xid) > len(f.upds) {
		return
	}
	u := f.upds[xid-1]
	if int(u.sw) != sw || u.ackAt >= 0 {
		return
	}
	u.ackAt = f.s.Now()
	if u.measured {
		f.resolved++
		if isAck {
			f.acked++
		}
	}
}

func (f *fabric) onSwitchRecv(sw string, m of.Message) {
	if fm, ok := m.(*of.FlowMod); ok {
		xid := fm.GetXID()
		if of.IsRUMXID(xid) {
			k := uint64(f.index[sw])<<32 | uint64(xid)
			if _, seen := f.physRecv[k]; !seen {
				f.physRecv[k] = f.s.Now()
			}
			return
		}
		if xid != 0 && int(xid) <= len(f.upds) {
			if u := f.upds[xid-1]; u.recvAt < 0 {
				u.recvAt = f.s.Now()
			}
		}
	}
}

func (f *fabric) onAck(sw string, xid uint32, cause time.Duration) {
	if xid != 0 && int(xid) <= len(f.upds) {
		f.upds[xid-1].signalAt = cause
	}
}

// send issues one tracked update from the controller.
func (f *fabric) send(sw int, fm *of.FlowMod, measured bool) *upd {
	xid := uint32(len(f.upds) + 1)
	fm.SetXID(xid)
	u := &upd{sw: int32(sw), xid: xid, remove: fm.Command == of.FCDeleteStrict || fm.Command == of.FCDelete,
		measured: measured, match: fm.Match, sendAt: f.s.Now(), ackAt: -1, recvAt: -1, signalAt: -1}
	f.upds = append(f.upds, u)
	if measured {
		f.issued++
	}
	u.h = f.watch(f.names[sw], xid)
	if err := f.ctrl[sw].Send(fm); err != nil {
		u.h.Cancel()
	}
	return u
}

// runUntil advances the simulation to t. A benchmark event marks the
// end, so traced and untraced runs step through the same events.
func (f *fabric) runUntil(t time.Duration) {
	done := false
	f.bench.After(t-f.s.Now(), func() { done = true })
	for !done {
		if f.tr != nil {
			f.tr.step(f.s)
		} else {
			f.s.Step()
		}
	}
}

// settle runs until every update issued so far has a wire ack or error,
// or until limit more sim time has passed; it reports success.
func (f *fabric) settle(limit time.Duration) bool {
	deadline := f.s.Now() + limit
	for f.s.Now() < deadline {
		f.runUntil(f.s.Now() + 10*time.Millisecond)
		for f.settled < len(f.upds) {
			u := f.upds[f.settled]
			if _, ok := u.h.Result(); u.ackAt < 0 && !ok {
				break
			}
			f.settled++
		}
		if f.settled == len(f.upds) {
			return true
		}
	}
	return false
}

// flowMatch is an exact IPv4 src/dst match for flow id.
func flowMatch(id int) of.Match {
	m := of.MatchAll()
	m.Wildcards &^= of.WcDLType
	m.DLType = packet.EtherTypeIPv4
	m.SetNWSrc(netip.AddrFrom4([4]byte{10, byte(id >> 16), byte(id >> 8), byte(id)}))
	m.SetNWDst(netip.AddrFrom4([4]byte{11, byte(id >> 16), byte(id >> 8), byte(id)}))
	return m
}

func addRule(m of.Match, port uint16) *of.FlowMod {
	return &of.FlowMod{Command: of.FCAdd, Priority: 100, Match: m,
		BufferID: of.BufferNone, OutPort: of.PortNone,
		Actions: []of.Action{of.ActionOutput{Port: port}}}
}

func delRule(m of.Match) *of.FlowMod {
	return &of.FlowMod{Command: of.FCDeleteStrict, Priority: 100, Match: m,
		BufferID: of.BufferNone, OutPort: of.PortNone}
}

// expGap draws an exponential inter-arrival gap at rate per second.
func expGap(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// audit holds the ground-truth verdicts and distributions of a measured
// phase.
type audit struct {
	attempted, confirmed, failed, unresolved, falseAcks int
	inputs                                              uint64 // fingerprint of the generated inputs
	traced                                              bool
	install, remove, lag                                dist
	cohort                                              map[string]*dist
	forward, swStage, signal, emit                      dist
}

// auditUpdates checks every measured update against activation times:
// act returns when the update took effect in the data plane and the
// FlowMod that did it (ok=false when it never took effect). cohortOf
// names each switch's strategy; stageRecv returns, in traced runs, when
// the switch read that FlowMod.
func (f *fabric) auditUpdates(act func(u *upd) (at time.Duration, physXID uint32, ok bool),
	cohortOf func(sw int) string, stageRecv func(u *upd, physXID uint32) time.Duration) *audit {
	a := &audit{cohort: map[string]*dist{}, traced: f.tr != nil}
	h := fnv.New64a()
	var buf []byte
	for _, u := range f.upds {
		if !u.measured {
			continue
		}
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(u.sw))
		buf = binary.BigEndian.AppendUint64(buf, uint64(u.sendAt))
		buf = u.match.Append(buf)
		if u.remove {
			buf = append(buf, 1)
		}
		h.Write(buf)
		a.attempted++
		ar, ok := u.h.Result()
		switch {
		case !ok:
			a.unresolved++
			continue
		case ar.Outcome == core.OutcomeFailed:
			a.failed++
			continue
		case u.ackAt < 0:
			// The future resolved but no wire ack reached the controller.
			a.unresolved++
			continue
		}
		at, phys, live := act(u)
		if !live || at > ar.ConfirmedAt {
			a.falseAcks++
			continue
		}
		a.confirmed++
		lat := ms(u.ackAt - u.sendAt)
		if u.remove {
			a.remove.add(lat)
		} else {
			a.install.add(lat)
			c := cohortOf(int(u.sw))
			if a.cohort[c] == nil {
				a.cohort[c] = &dist{}
			}
			a.cohort[c].add(lat)
		}
		a.lag.add(ms(u.ackAt - at))
		if f.tr != nil {
			recv := stageRecv(u, phys)
			if recv < u.sendAt {
				recv = u.sendAt
			}
			if recv > at {
				recv = at
			}
			sig := u.signalAt
			if sig < at {
				sig = at
			}
			a.forward.add(ms(recv - u.sendAt))
			a.swStage.add(ms(at - recv))
			a.signal.add(ms(sig - at))
			a.emit.add(ms(u.ackAt - sig))
			if u.xid%64 == 0 {
				root := f.tr.stageSpan(0, "update", u.sendAt, u.ackAt, f.names[u.sw], u.xid)
				f.tr.stageSpan(root, "stage.forward", u.sendAt, recv, f.names[u.sw], u.xid)
				f.tr.stageSpan(root, "stage.switch", recv, at, f.names[u.sw], u.xid)
				f.tr.stageSpan(root, "stage.signal", at, sig, f.names[u.sw], u.xid)
				f.tr.stageSpan(root, "stage.emit", sig, u.ackAt, f.names[u.sw], u.xid)
			}
		}
	}
	a.inputs = h.Sum64()
	return a
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// e2e fills the latency metrics and outcome counts from an audit.
func (a *audit) fill(out *outcome) {
	out.attempted, out.confirmed, out.inputs = a.attempted, a.confirmed, a.inputs
	out.failed, out.unresolved, out.falseAcks = a.failed, a.unresolved, a.falseAcks
	e := out.e2e
	e["ack_p50_ms"], e["ack_p99_ms"] = a.install.at(50), a.install.at(99)
	e["remove_p50_ms"], e["remove_p99_ms"] = a.remove.at(50), a.remove.at(99)
	e["ack_lag_p50_ms"], e["ack_lag_p99_ms"] = a.lag.at(50), a.lag.at(99)
	out.tails = append(out.tails, tail{"ack_p99_ms", a.install.n()}, tail{"remove_p99_ms", a.remove.n()},
		tail{"ack_lag_p99_ms", a.lag.n()})
	l := out.layer
	l["stage.forward_p50_ms"], l["stage.forward_p99_ms"] = a.forward.at(50), a.forward.at(99)
	l["stage.switch_p50_ms"], l["stage.switch_p99_ms"] = a.swStage.at(50), a.swStage.at(99)
	l["stage.signal_p50_ms"], l["stage.signal_p99_ms"] = a.signal.at(50), a.signal.at(99)
	l["stage.emit_p50_ms"], l["stage.emit_p99_ms"] = a.emit.at(50), a.emit.at(99)
	names := make([]string, 0, len(a.cohort))
	for name := range a.cohort {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := a.cohort[name]
		l["strategy."+name+".ack_p99_ms"] = d.at(99)
		if a.traced {
			out.tails = append(out.tails, tail{"strategy." + name + ".ack_p99_ms", d.n()})
		}
		out.notes = append(out.notes, fmt.Sprintf("cohort %s installs=%d ack_p50_ms=%.4f ack_p99_ms=%.4f", name, d.n(), d.at(50), d.at(99)))
	}
}

// phase runs a measured open-loop phase of simDur simulated time cut
// into windows, then drains. gen(end) is invoked once at the start; it
// schedules its own arrivals and stops issuing at end. It returns the
// windows and the backlog samples (outstanding measured updates at each
// window end).
func (f *fabric) phase(simDur time.Duration, nWindows int, gen func(end time.Duration)) ([]window, []int) {
	start := f.s.Now()
	end := start + simDur
	gen(end)
	var ws []window
	var backlog []int
	lastWall, lastCPU, lastAcked := time.Now(), cpuNow(), f.acked
	mark := func(drain bool) {
		now, cpu := time.Now(), cpuNow()
		ws = append(ws, window{wall: now.Sub(lastWall), cpu: cpu - lastCPU, confirmed: f.acked - lastAcked, drain: drain})
		lastWall, lastCPU, lastAcked = now, cpu, f.acked
	}
	for w := 1; w <= nWindows; w++ {
		f.runUntil(start + simDur*time.Duration(w)/time.Duration(nWindows))
		mark(false)
		backlog = append(backlog, f.issued-f.resolved)
	}
	deadline := f.s.Now() + drainTimeout
	for f.issued > f.resolved && f.s.Now() < deadline {
		f.runUntil(f.s.Now() + 10*time.Millisecond)
	}
	mark(true)
	return ws, backlog
}

// backlogGrows reports whether outstanding work kept rising through the
// phase: the last window ends with far more in flight than the middle
// one. (The first windows still ramp in: updates in flight from the
// warm-up are not counted.)
func backlogGrows(b []int) bool {
	if len(b) < 2 {
		return false
	}
	return b[len(b)-1] > 2*b[len(b)/2]+100
}

// switchMsgs sums the messages the switch models served: FlowMods,
// PacketOuts and barriers.
func (f *fabric) switchMsgs() int64 {
	var n int64
	for _, sw := range f.sw {
		mods, outs, _, _ := sw.Counters()
		n += int64(mods + outs + sw.BarriersServed())
	}
	return n
}

// activationIndex maps each switch's FlowMod xids to their first
// data-plane activation.
func (f *fabric) activationIndex() []map[uint32]time.Duration {
	out := make([]map[uint32]time.Duration, len(f.sw))
	for i, sw := range f.sw {
		m := make(map[uint32]time.Duration)
		for _, a := range sw.Activations() {
			if _, seen := m[a.XID]; !seen {
				m[a.XID] = a.At
			}
		}
		out[i] = m
	}
	return out
}
