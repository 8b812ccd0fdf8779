package main

import (
	"fmt"
	"math/rand"
	"time"

	"rum/internal/cluster"
	"rum/internal/core"
	"rum/internal/hsa"
	"rum/internal/of"
	"rum/internal/transport"
)

// fattree-cluster shape. Paths (edge → agg → core → agg → edge) arrive
// as a Poisson process at clusterPathRate per simulated second; each
// installs one rule per hop and strictly deletes them clusterHold later.
// The measured phase is a fixed amount of simulated time, clusterSimPerSec
// per requested second, so counts and simulated latencies repeat for a
// seed; the constant makes a phase last about the requested wall time on
// a 2-vCPU 2.0 GHz Xeon VM. The rate keeps the backlog flat: the slowest
// acknowledgments are the general strategy's 300 ms fallbacks.
const (
	clusterMembers   = 2
	clusterStanding  = 300 // standing rules per switch
	clusterPathRate  = 1000.0
	clusterHold      = 40 * time.Millisecond
	clusterWarmup    = 400 * time.Millisecond
	clusterSimPerSec = 600 * time.Millisecond
)

type clusterInstance struct {
	f      *fabric
	c      *cluster.Cluster
	rng    *rand.Rand
	flow   int
	tech   map[string]core.Technique
	probes []probeCase
}

// probeCase is one captured hsa.FindProbe call: a general-cohort rule,
// the switch's table when the rule was issued, and the receiver pin.
type probeCase struct {
	rule  hsa.Rule
	table []hsa.Rule
	pin   of.Match
}

func buildCluster(seed int64, tr *tracer) (instance, error) {
	f, err := newFabric(seed, tr)
	if err != nil {
		return nil, err
	}
	smap, err := cluster.NewShardMap(clusterMembers)
	if err != nil {
		return nil, err
	}
	cluster.AssignFatTree(smap, f.ft)
	cfg := core.Config{Clock: f.s, Technique: core.TechTimeout, TimeoutRate: 1000,
		RUMAware: true, PerSwitch: make(map[string]core.Technique)}
	for _, sw := range f.ft.Edge {
		cfg.PerSwitch[sw] = core.TechSequential
	}
	for _, sw := range f.ft.Agg {
		cfg.PerSwitch[sw] = core.TechGeneral
	}
	c, err := cluster.New(cluster.Config{Map: smap, Core: cfg, Topology: core.NewTopology(f.links),
		// ReadFIB turns on intent journaling to each switch's successor.
		ReadFIB: func(sw string) []hsa.Rule { return f.sw[f.index[sw]].CtrlTable().Rules() }})
	if err != nil {
		return nil, err
	}
	ci := &clusterInstance{f: f, c: c, rng: rand.New(rand.NewSource(seed)), tech: cfg.PerSwitch}
	f.watch = c.Watch
	if err := f.attach(func(name string, dpid uint64, ctrl, sw transport.Conn) error {
		_, _, err := c.AttachSwitch(name, dpid, ctrl, sw)
		return err
	}); err != nil {
		return nil, err
	}
	if err := c.Bootstrap(); err != nil {
		return nil, err
	}
	f.runUntil(f.s.Now() + bootSettle)

	// Standing tables: every switch gets clusterStanding forwarding rules
	// toward its neighbors, in bursts of 20.
	for i, name := range f.names {
		ports := f.ft.InterPorts(name)
		for j := 0; j < clusterStanding; j++ {
			sw, fm := i, addRule(flowMatch(ci.nextFlow()), ports[j%len(ports)])
			f.bench.After(time.Duration(j/20)*time.Millisecond, func() { f.send(sw, fm, false) })
		}
	}
	if !f.settle(10 * time.Second) {
		return nil, fmt.Errorf("standing tables did not settle")
	}
	// Warm-up: unmeasured churn at the measured rate, long enough for
	// the slowest acknowledgments (the 300 ms fallback) to reach steady
	// state. The measured stream continues it without a pause.
	end := f.s.Now() + clusterWarmup
	ci.generate(end, false)
	f.runUntil(end)
	return ci, nil
}

func (ci *clusterInstance) nextFlow() int {
	ci.flow++
	return ci.flow
}

// path draws one random inter-pod path and returns its hops with each
// hop's output port.
func (ci *clusterInstance) path() (hops []int, ports []uint16) {
	ft, f, rng := ci.f.ft, ci.f, ci.rng
	half := ft.K / 2
	src := rng.Intn(ft.K)
	dst := (src + 1 + rng.Intn(ft.K-1)) % ft.K
	j, m := rng.Intn(half), rng.Intn(half)
	names := []string{
		ft.Edge[src*half+rng.Intn(half)],
		ft.Agg[src*half+j],
		ft.Core[j*half+m],
		ft.Agg[dst*half+j],
		ft.Edge[dst*half+rng.Intn(half)],
	}
	for i, n := range names {
		hops = append(hops, f.index[n])
		if i+1 < len(names) {
			ports = append(ports, f.port[[2]string{n, names[i+1]}])
		} else {
			ports = append(ports, uint16(1+rng.Intn(half))) // host port
		}
	}
	return hops, ports
}

// generate schedules Poisson path arrivals until end: each arrival
// installs the path's rules at once and deletes them clusterHold later.
func (ci *clusterInstance) generate(end time.Duration, measured bool) {
	f := ci.f
	var arrive func()
	arrive = func() {
		if f.s.Now() >= end {
			return
		}
		hops, ports := ci.path()
		m := flowMatch(ci.nextFlow())
		for i, sw := range hops {
			fm := addRule(m, ports[i])
			if f.tr != nil && ci.tech[f.names[sw]] == core.TechGeneral && len(ci.probes) < 256 && ci.flow%8 == 0 {
				ci.captureProbe(sw, fm, ports[i])
			}
			f.send(sw, fm, measured)
		}
		f.bench.After(clusterHold, func() {
			for _, sw := range hops {
				f.send(sw, delRule(m), measured)
			}
		})
		f.bench.After(expGap(ci.rng, clusterPathRate), arrive)
	}
	f.bench.After(expGap(ci.rng, clusterPathRate), arrive)
}

// captureProbe records the probe-synthesis input RUM's general strategy
// sees for fm: the rule, the switch's current table, and the pin on the
// receiving neighbor's catch value.
func (ci *clusterInstance) captureProbe(sw int, fm *of.FlowMod, port uint16) {
	f := ci.f
	name := f.names[sw]
	recv := ""
	for _, l := range f.links {
		if l.A == name && l.APort == port {
			recv = l.B
		} else if l.B == name && l.BPort == port {
			recv = l.A
		}
	}
	owner, ok := ci.c.Located(name)
	if !ok || recv == "" {
		return
	}
	pin := of.MatchAll()
	pin.Wildcards &^= of.WcNWTOS
	pin.NWTOS = ci.c.Member(owner).CatchTos(recv)
	ci.probes = append(ci.probes, probeCase{
		rule:  hsa.Rule{Priority: fm.Priority, Match: fm.Match, Actions: fm.Actions},
		table: f.sw[sw].CtrlTable().Rules(),
		pin:   pin,
	})
}

func (ci *clusterInstance) measure(seconds int) *outcome {
	f := ci.f
	simDur := clusterSimPerSec * time.Duration(seconds)
	msgs0, steps0, m0 := f.switchMsgs(), f.s.Steps(), mallocs()
	_, probes0, fb0 := ci.c.Stats()
	if f.tr != nil {
		f.tr.reset()
	}
	ws, backlog := f.phase(simDur, 2*seconds, func(end time.Duration) { ci.generate(end, true) })
	allocs := mallocs() - m0
	out := &outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	out.e2e["live_heap_mb"] = liveHeapMB()
	acts := f.activationIndex()
	a := f.auditUpdates(func(u *upd) (time.Duration, uint32, bool) {
		at, ok := acts[u.sw][u.xid]
		return at, u.xid, ok
	}, func(sw int) string { return ci.strategy(f.names[sw]) },
		func(u *upd, _ uint32) time.Duration { return u.recvAt })
	a.fill(out)
	updates := float64(out.attempted)
	e := out.e2e
	e["confirmed_per_s"], e["cpu_us_per_update"] = windowMetrics(ws)
	e["switch_msgs_per_update"] = float64(f.switchMsgs()-msgs0) / updates
	e["compression_ratio"] = 1 // no aggregation: every logical rule is a physical rule
	out.layer["core.allocs_per_update"] = float64(allocs) / updates
	out.notes = append(out.notes, fmt.Sprintf("backlog per window: %v", backlog))
	if backlogGrows(backlog) {
		out.correct = false
		out.notes = append(out.notes, "backlog grows: offered rate exceeds what the fabric sustains")
	}
	if f.tr != nil {
		l := out.layer
		_, probes, fb := ci.c.Stats()
		l["probes_per_update"] = float64(probes-probes0) / updates
		l["strategy.fallback_pct"] = 100 * float64(fb-fb0) / updates
		l["strategy.barriers_per_update"] = float64(f.tr.rumBarriers.Load()) / updates
		l["strategy.probe_rules_per_update"] = float64(f.tr.rumProbeFM.Load()) / updates
		l["sim.events_per_update"] = float64(f.s.Steps()-steps0) / updates
		for i := 0; i < ci.c.N(); i++ {
			for _, name := range ci.c.SwitchesOf(i) {
				if hw := float64(ci.c.Member(i).OutboxHighWater(name)); hw > l["core.outbox_high_water"] {
					l["core.outbox_high_water"] = hw
				}
			}
		}
		f.tr.transportLayer(l, updates)
		f.tr.coreLayer(l, updates, ws)
		f.tr.codecLayer(l, updates)
		l["hsa.find_probe_us"] = replayFindProbe(ci.probes)
		l["journal.append_ns_per_record"], l["journal.bytes_per_update"] = replayJournal(f, ci.strategy)
	}
	return out
}

// strategy names a switch's acknowledgment strategy.
func (ci *clusterInstance) strategy(sw string) string {
	if t, ok := ci.tech[sw]; ok {
		return string(t)
	}
	return string(core.TechTimeout)
}

func (ci *clusterInstance) close() {}
