package main

import (
	"bytes"
	"errors"
	"io"
	"time"

	"rum/internal/aggregate"
	"rum/internal/hsa"
	"rum/internal/journal"
	"rum/internal/of"
)

// replayBudget is roughly how long each replay loop runs.
const replayBudget = 200 * time.Millisecond

// reset clears the counters, the span log and the captured message mix
// at the start of a measured phase.
func (t *tracer) reset() {
	for i := range t.layers {
		t.layers[i].calls.Store(0)
		t.layers[i].ns.Store(0)
	}
	for i := range t.msgsIn {
		t.msgsIn[i].Store(0)
		t.msgsOut[i].Store(0)
	}
	t.batches.Store(0)
	t.batchMsgs.Store(0)
	t.netReads.Store(0)
	t.netWrites.Store(0)
	t.rumProbeFM.Store(0)
	t.rumBarriers.Store(0)
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.full.Store(false)
	t.mu.Unlock()
	t.capture.reset()
}

// layerNs returns a layer's total self time: the mean self time per call
// in the span log times the exact call count.
func (t *tracer) layerNs(l layer, self map[string]int64, logged map[string]int64) float64 {
	name := layerNames[l]
	calls := float64(t.layers[l].calls.Load())
	if logged[name] == 0 {
		return float64(t.layers[l].ns.Load())
	}
	return float64(self[name]) / float64(logged[name]) * calls
}

// spanCounts counts the log's spans per name.
func (t *tracer) spanCounts() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range t.spans {
		out[s.name]++
	}
	return out
}

func (t *tracer) transportLayer(l map[string]float64, updates float64) {
	l["transport.writes_per_kupdate"] = 1000 * float64(t.netWrites.Load()) / updates
	l["transport.reads_per_kupdate"] = 1000 * float64(t.netReads.Load()) / updates
	if b := t.batches.Load(); b > 0 {
		l["transport.msgs_per_batch"] = float64(t.batchMsgs.Load()) / float64(b)
	}
	if n := t.batchMsgs.Load(); n > 0 {
		self, logged := t.selfTimes(), t.spanCounts()
		l["transport.send_ns_per_msg"] = t.layerNs(lSend, self, logged) / float64(n)
	}
}

// coreLayer fills the handler, timer and busy-share metrics. Busy shares
// are taken against the process CPU time of the measured windows.
func (t *tracer) coreLayer(l map[string]float64, updates float64, ws []window) {
	self, logged := t.selfTimes(), t.spanCounts()
	ctrl := t.layerNs(lCtrlHandler, self, logged)
	sw := t.layerNs(lSwitchHandler, self, logged)
	timer := t.layerNs(lTimer, self, logged)
	l["core.ctrl_handler_ns_per_update"] = ctrl / updates
	if n := t.layers[lSwitchHandler].calls.Load(); n > 0 {
		l["core.switch_handler_ns_per_msg"] = sw / float64(n)
	}
	l["core.timer_busy_ns_per_update"] = timer / updates
	l["core.timers_per_update"] = float64(t.layers[lTimer].calls.Load()) / updates
	var cpu time.Duration
	for _, w := range ws {
		cpu += w.cpu
	}
	if cpu > 0 {
		l["core.busy_share"] = (ctrl + sw + timer) / float64(cpu)
		l["switchsim.busy_share"] = t.layerNs(lSwitchsim, self, logged) / float64(cpu)
	}
}

// codecLayer replays the captured message mix through the codec and
// prices every message that crossed RUM's conns at its type's captured
// mean size.
func (t *tracer) codecLayer(l map[string]float64, updates float64) {
	c := t.capture
	c.mu.Lock()
	wire := append([][]byte(nil), c.wire...)
	var total float64
	for typ := range c.count {
		if c.count[typ] == 0 {
			continue
		}
		mean := float64(c.bytes[typ]) / float64(c.count[typ])
		total += mean * float64(t.msgsIn[typ].Load()+t.msgsOut[typ].Load())
	}
	c.mu.Unlock()
	l["of.bytes_per_update"] = total / updates
	l["of.encode_ns_per_msg"], l["of.decode_ns_per_msg"] = replayCodec(wire)
}

// replayCodec times of.MarshalAppend and of.MessageReader over the
// captured wire messages.
func replayCodec(wire [][]byte) (encodeNs, decodeNs float64) {
	if len(wire) == 0 {
		return 0, 0
	}
	msgs := make([]of.Message, 0, len(wire))
	var stream []byte
	for _, b := range wire {
		m, err := of.Unmarshal(b)
		if err != nil {
			continue
		}
		msgs = append(msgs, m)
		stream = append(stream, b...)
	}
	buf := make([]byte, 0, len(stream))
	var n int
	start := time.Now()
	for time.Since(start) < replayBudget {
		for _, m := range msgs {
			buf, _ = of.MarshalAppend(buf[:0], m)
		}
		n += len(msgs)
	}
	encodeNs = float64(time.Since(start)) / float64(n)
	n = 0
	start = time.Now()
	for time.Since(start) < replayBudget {
		mr := of.NewMessageReader(bytes.NewReader(stream))
		for {
			m, err := mr.ReadMessage()
			if err != nil {
				if !errors.Is(err, io.EOF) {
					return encodeNs, 0
				}
				break
			}
			of.Release(m)
			n++
		}
	}
	return encodeNs, float64(time.Since(start)) / float64(n)
}

// replayFindProbe times hsa.FindProbe over the captured general-cohort
// cases and returns microseconds per call.
func replayFindProbe(cases []probeCase) float64 {
	if len(cases) == 0 {
		return 0
	}
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for _, c := range cases {
			_, _ = hsa.FindProbe(c.rule, c.table, c.pin)
		}
		n += len(cases)
	}
	return float64(time.Since(start)) / float64(n) / 1e3
}

// replayJournal rebuilds the intent and resolve records RUM journals
// for every measured update and times framing them; it returns ns per
// record and sealed bytes per update.
func replayJournal(f *fabric, strategy func(sw string) string) (nsPerRecord, bytesPerUpdate float64) {
	var recs []journal.Record
	var scratch []byte
	for seq, u := range f.upds {
		if !u.measured {
			continue
		}
		fm := delRule(u.match)
		if !u.remove {
			fm = addRule(u.match, 1)
		}
		fm.SetXID(u.xid)
		var digest uint64
		digest, scratch = journal.DigestRule(scratch, fm.Priority, fm.Match, fm.Actions)
		body, err := of.Marshal(fm)
		if err != nil {
			continue
		}
		recs = append(recs, journal.Record{Op: journal.OpIntent, Switch: f.names[u.sw], XID: u.xid,
			Seq: uint64(seq), Digest: digest, Strategy: strategy(f.names[u.sw]),
			IssuedAt: u.sendAt, Deadline: u.sendAt + 300*time.Millisecond, Body: body})
	}
	if len(recs) == 0 {
		return 0, 0
	}
	var frame []byte
	var sealed int64
	for i := range recs {
		frame = journal.AppendIntent(journal.BeginFrame(frame), &recs[i])
		sealed += int64(len(journal.SealFrame(frame)))
		frame = journal.AppendResolve(journal.BeginFrame(frame), recs[i].Switch, recs[i].XID, recs[i].Seq)
		sealed += int64(len(journal.SealFrame(frame)))
	}
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for i := range recs {
			frame = journal.AppendIntent(journal.BeginFrame(frame), &recs[i])
			_ = journal.SealFrame(frame)
			frame = journal.AppendResolve(journal.BeginFrame(frame), recs[i].Switch, recs[i].XID, recs[i].Seq)
			_ = journal.SealFrame(frame)
		}
		n += 2 * len(recs)
	}
	return float64(time.Since(start)) / float64(n), float64(sealed) / float64(len(recs))
}

// aggReplayBatches bounds how many measured batches per switch the
// aggregate replay times; the layer costs hundreds of microseconds per
// update, so a full replay would take as long as the run.
const aggReplayBatches = 25

// replayAggregate replays every switch's captured logical batches
// through fresh aggregate tables: unmeasured batches build the starting
// state untimed, then the first measured batches are timed. It returns
// microseconds per logical update and physical ops per logical update.
func replayAggregate(batches [][]aggBatch) (usPerUpdate, physPerUpdate float64) {
	var logical, phys int
	var elapsed time.Duration
	rounds := 0
	for elapsed < replayBudget || rounds == 0 {
		logical, phys = 0, 0
		for _, rows := range batches {
			t := aggregate.New()
			timed := 0
			for _, b := range rows {
				if !b.measured {
					t.ApplyBatch(b.mods)
					continue
				}
				if timed++; timed > aggReplayBatches {
					break
				}
				start := time.Now()
				d := t.ApplyBatch(b.mods)
				elapsed += time.Since(start)
				logical += len(b.mods)
				phys += len(d.Ops)
			}
		}
		rounds++
	}
	if logical == 0 {
		return 0, 0
	}
	return float64(elapsed) / float64(rounds*logical) / 1e3, float64(phys) / float64(logical)
}
