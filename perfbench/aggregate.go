package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"rum/internal/core"
	"rum/internal/of"
	"rum/internal/packet"
	"rum/internal/transport"
)

// fattree-aggregate shape. Every switch holds aggBlocks aligned blocks of
// /32 destination rules (8, 16 or 32 per block, drawn from the seed)
// that merge into one cover each. The measured phase is a Poisson stream
// of point deletes at aggCycleRate per simulated second; each deleted
// /32 is re-added aggHold later, so covers split and re-merge. As on
// fattree-cluster, a phase is aggSimPerSec of simulated time per
// requested second (about that much wall time on a 2-vCPU 2.0 GHz Xeon
// VM); the rate is low enough that timeout holds, which grow with the
// outstanding physical work, do not feed on each other.
const (
	aggBlocks      = 12
	aggCycleRate   = 2000.0
	aggHold        = 20 * time.Millisecond
	aggWarmup      = 100 * time.Millisecond
	aggSimPerSec   = 450 * time.Millisecond
	aggRegionOctet = 12 // destinations are 12.<switch>.<block>.<host>
)

type aggBlock struct {
	size int
	port uint16
	busy []bool // a point delete/re-add cycle is in flight
}

type aggInstance struct {
	f       *fabric
	r       *core.RUM
	rng     *rand.Rand
	blocks  [][]aggBlock
	peak    float64
	batches [][]aggBatch // traced runs: per switch, the logical FlowMods by send instant
	lastAt  []time.Duration
}

// aggBatch is one send instant's logical FlowMods for one switch.
type aggBatch struct {
	measured bool
	mods     []*of.FlowMod
}

func aggMatch(sw, block, host int) of.Match {
	m := of.MatchAll()
	m.Wildcards &^= of.WcDLType
	m.DLType = packet.EtherTypeIPv4
	m.SetNWDst(netip.AddrFrom4([4]byte{aggRegionOctet, byte(sw), byte(block), byte(host)}))
	return m
}

func buildAggregate(seed int64, tr *tracer) (instance, error) {
	f, err := newFabric(seed, tr)
	if err != nil {
		return nil, err
	}
	r, err := core.New(core.Config{Clock: f.s, Technique: core.TechTimeout, TimeoutRate: 1000,
		RUMAware: true, Aggregate: true}, core.NewTopology(f.links))
	if err != nil {
		return nil, err
	}
	ai := &aggInstance{f: f, r: r, rng: rand.New(rand.NewSource(seed)),
		batches: make([][]aggBatch, len(f.names)), lastAt: make([]time.Duration, len(f.names))}
	f.watch = r.Watch
	if err := f.attach(func(name string, dpid uint64, ctrl, sw transport.Conn) error {
		_, err := r.AttachSwitch(name, dpid, ctrl, sw)
		return err
	}); err != nil {
		return nil, err
	}
	if err := r.Bootstrap(); err != nil {
		return nil, err
	}
	f.runUntil(f.s.Now() + bootSettle)

	// Install every block as one burst.
	for i, name := range f.names {
		ports := f.ft.InterPorts(name)
		var row []aggBlock
		for b := 0; b < aggBlocks; b++ {
			size := 8 << ai.rng.Intn(3)
			blk := aggBlock{size: size, port: ports[ai.rng.Intn(len(ports))], busy: make([]bool, size)}
			row = append(row, blk)
			sw, b := i, b
			f.bench.After(time.Duration(b)*500*time.Microsecond, func() {
				for h := 0; h < blk.size; h++ {
					ai.send(sw, addRule(aggMatch(sw, b, h), blk.port), false)
				}
			})
		}
		ai.blocks = append(ai.blocks, row)
	}
	if !f.settle(10 * time.Second) {
		return nil, fmt.Errorf("block installs did not settle")
	}
	var logical, physical int
	for _, name := range f.names {
		st, _ := r.AggregationStats(name)
		logical += st.LogicalRules
		physical += st.PhysicalRules
	}
	ai.peak = float64(logical) / float64(physical)

	// Warm-up: unmeasured cycles at the measured rate; the measured
	// stream continues it without a pause.
	end := f.s.Now() + aggWarmup
	ai.generate(end, false)
	f.runUntil(end)
	return ai, nil
}

// send issues one logical update, recording it for the aggregate replay
// in traced runs.
func (ai *aggInstance) send(sw int, fm *of.FlowMod, measured bool) {
	if ai.f.tr != nil {
		now := ai.f.s.Now()
		rows := ai.batches[sw]
		if n := len(rows); n == 0 || ai.lastAt[sw] != now || rows[n-1].measured != measured {
			ai.batches[sw] = append(rows, aggBatch{measured: measured})
			ai.lastAt[sw] = now
		}
		cp := *fm
		b := &ai.batches[sw][len(ai.batches[sw])-1]
		b.mods = append(b.mods, &cp)
	}
	ai.f.send(sw, fm, measured)
}

// generate schedules Poisson point-delete cycles until end.
func (ai *aggInstance) generate(end time.Duration, measured bool) {
	f := ai.f
	var arrive func()
	arrive = func() {
		if f.s.Now() >= end {
			return
		}
		sw := ai.rng.Intn(len(f.names))
		b := ai.rng.Intn(aggBlocks)
		blk := &ai.blocks[sw][b]
		h := ai.rng.Intn(blk.size)
		if !blk.busy[h] {
			blk.busy[h] = true
			ai.send(sw, delRule(aggMatch(sw, b, h)), measured)
			f.bench.After(aggHold, func() {
				ai.send(sw, addRule(aggMatch(sw, b, h), blk.port), measured)
				blk.busy[h] = false
			})
		}
		f.bench.After(expGap(ai.rng, aggCycleRate), arrive)
	}
	f.bench.After(expGap(ai.rng, aggCycleRate), arrive)
}

// coverage is one /32's data-plane coverage history: each time it
// became covered or uncovered, and the physical FlowMod that did it.
type coverage struct {
	at      []time.Duration
	covered []bool
	xid     []uint32
}

// coverTimelines replays one switch's activation log and records, per
// workload /32, when some live physical rule started or stopped
// covering it.
func (ai *aggInstance) coverTimelines(sw int) map[uint32]*coverage {
	type key struct {
		m of.Match
		p uint16
	}
	live := make(map[key]bool)
	count := make(map[uint32]int)
	out := make(map[uint32]*coverage)
	for _, a := range ai.f.sw[sw].Activations() {
		if a.Match.NWDst[0] != aggRegionOctet || a.Match.DLType != packet.EtherTypeIPv4 {
			continue
		}
		wild := a.Match.NWDstWildBits()
		if wild > 8 {
			continue
		}
		k := key{a.Match, a.Priority}
		if a.Deleted == !live[k] {
			continue
		}
		live[k] = !a.Deleted
		base := binary.BigEndian.Uint32(a.Match.NWDst[:]) &^ (1<<uint(wild) - 1)
		for addr := base; addr < base+1<<uint(wild); addr++ {
			c := out[addr]
			if c == nil {
				c = &coverage{}
				out[addr] = c
			}
			before := count[addr] > 0
			if a.Deleted {
				count[addr]--
			} else {
				count[addr]++
			}
			if now := count[addr] > 0; now != before {
				c.at = append(c.at, a.At)
				c.covered = append(c.covered, now)
				c.xid = append(c.xid, a.XID)
			}
		}
	}
	return out
}

func (ai *aggInstance) measure(seconds int) *outcome {
	f := ai.f
	simDur := aggSimPerSec * time.Duration(seconds)
	msgs0, steps0, m0 := f.switchMsgs(), f.s.Steps(), mallocs()
	if f.tr != nil {
		f.tr.reset()
	}
	ws, backlog := f.phase(simDur, 2*seconds, func(end time.Duration) { ai.generate(end, true) })
	allocs := mallocs() - m0
	out := &outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	out.e2e["live_heap_mb"] = liveHeapMB()
	timelines := make([]map[uint32]*coverage, len(f.sw))
	for i := range f.sw {
		timelines[i] = ai.coverTimelines(i)
	}
	// A logical update is active once the /32's coverage reaches the
	// state it asks for, at or after its send.
	act := func(u *upd) (time.Duration, uint32, bool) {
		addr := binary.BigEndian.Uint32(u.match.NWDst[:])
		c := timelines[u.sw][addr]
		if c == nil {
			return 0, 0, false
		}
		want := !u.remove
		i := sort.Search(len(c.at), func(i int) bool { return c.at[i] > u.sendAt })
		if i > 0 && c.covered[i-1] == want {
			return u.sendAt, c.xid[i-1], true // already in the asked state
		}
		for ; i < len(c.at); i++ {
			if c.covered[i] == want {
				return c.at[i], c.xid[i], true
			}
		}
		return 0, 0, false
	}
	a := f.auditUpdates(act, func(int) string { return string(core.TechTimeout) },
		func(u *upd, phys uint32) time.Duration { return f.physRecv[uint64(u.sw)<<32|uint64(phys)] })
	a.fill(out)
	updates := float64(out.attempted)
	e := out.e2e
	e["confirmed_per_s"], e["cpu_us_per_update"] = windowMetrics(ws)
	e["switch_msgs_per_update"] = float64(f.switchMsgs()-msgs0) / updates
	e["compression_ratio"] = ai.peak
	out.layer["core.allocs_per_update"] = float64(allocs) / updates
	out.notes = append(out.notes, fmt.Sprintf("backlog per window: %v", backlog))
	if backlogGrows(backlog) {
		out.correct = false
		out.notes = append(out.notes, "backlog grows: offered rate exceeds what the fabric sustains")
	}
	var cex uint64
	bypassed := 0
	for _, name := range f.names {
		st, _ := ai.r.AggregationStats(name)
		cex += st.Counterexamples
		bypassed += st.Bypassed
	}
	if cex != 0 {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("aggregate verifier counterexamples: %d", cex))
	}
	if f.tr != nil {
		l := out.layer
		_, probes, fb := ai.r.Stats()
		l["probes_per_update"] = float64(probes) / updates
		l["strategy.fallback_pct"] = 100 * float64(fb) / updates
		l["strategy.barriers_per_update"] = float64(f.tr.rumBarriers.Load()) / updates
		l["strategy.probe_rules_per_update"] = 0
		l["sim.events_per_update"] = float64(f.s.Steps()-steps0) / updates
		for _, name := range f.names {
			if hw := float64(ai.r.OutboxHighWater(name)); hw > l["core.outbox_high_water"] {
				l["core.outbox_high_water"] = hw
			}
		}
		f.tr.transportLayer(l, updates)
		f.tr.coreLayer(l, updates, ws)
		f.tr.codecLayer(l, updates)
		l["aggregate.apply_us_per_update"], l["aggregate.physical_ops_per_update"] = replayAggregate(ai.batches)
		l["aggregate.bypassed_rules"] = float64(bypassed)
	}
	return out
}

func (ai *aggInstance) close() {}
