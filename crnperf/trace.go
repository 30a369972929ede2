package main

import (
	"encoding/json"
	"os"
	"time"
)

// perLayer mirrors BENCHMARK.json's per_layer list.  Names ending in _s
// are busy seconds per repetition; each layer's prefix is the module it
// times from outside.  The comment on each group names the end-to-end
// metric it should move.
var perLayer = []metricDef{
	// dba-batch, traced serial loop: slots_per_s and alloc_mb there.
	{"sim.inject_s", "s"},
	{"sim.observe_s", "s"},
	{"sim.record_s", "s"},
	{"sim.advance_s", "s"},
	{"sim.driver_self_s", "s"},
	{"sim.slots_stepped", "count"},
	{"sim.slots_skipped", "count"},
	{"core.inject_s", "s"},
	{"core.transmitters_s", "s"},
	{"core.observe_s", "s"},
	{"core.pending_s", "s"},
	{"core.wake_s", "s"},
	{"core.tx_total", "count"},
	{"medium.step_s", "s"},
	{"medium.repeat_s", "s"},
	{"medium.repeat_calls", "count"},
	{"medium.events", "count"},
	{"medium.good_ratio", "ratio"},
	// dba-batch, staged-cycle replay: the Workers>=1 engine path.
	{"staged.prepare_s", "s"},
	{"staged.shard_tx_s", "s"},
	{"staged.step_sharded_s", "s"},
	{"staged.shard_observe_s", "s"},
	{"staged.reduce_s", "s"},
	{"staged.pending_s", "s"},
	{"staged.wall_s", "s"},
	// grid-drain: cells_per_s and alloc_mb there; cache.* guard against
	// regressions in the record store.
	{"sweep.cell_s.dba", "s"},
	{"sweep.cell_s.beb", "s"},
	{"sweep.cell_s.genie", "s"},
	{"sweep.cell_s.mw", "s"},
	{"sweep.worker_self_s", "s"},
	{"sweep.assemble_s", "s"},
	{"sweep.cells_executed", "count"},
	{"sweep.cells_loaded", "count"},
	{"cache.claim_s", "s"},
	{"cache.claim_calls", "count"},
	{"cache.put_s", "s"},
	{"cache.put_calls", "count"},
	{"cache.get_s", "s"},
	{"cache.get_calls", "count"},
	{"cache.get_hit_ratio", "ratio"},
	// emu-udp: slots_per_s there and nothing elsewhere.
	{"emu.send_s", "s"},
	{"emu.recv_wait_s", "s"},
	{"emu.coord_self_s", "s"},
	{"emu.frames_sent", "count"},
	{"emu.bytes_sent", "B"},
	{"emu.segs_per_frame", "ratio"},
	{"emu.slot_rtt_p50_us", "us"},
	{"emu.slot_rtt_p99_us", "us"},
	{"emu.slot_rtt_samples", "count"},
	{"emu.frame_encode_ns", "ns"},
	{"emu.frame_decode_ns", "ns"},
	{"emu.retransmits", "count"},
	{"emu.dup_segs", "count"},
	// every workload
	{"trace_overhead_ratio", "ratio"},
}

// spanLog keeps the traced run's coarse spans (one per traced pass, grid
// cell or assemble) and each traced repetition's per-layer values in
// memory; write puts them in one file when the run ends.  Per-call spans
// of the hot slot loop are summed into the per-layer values instead of
// being kept one by one.
type spanLog struct {
	t0    time.Time
	Spans []span               `json:"spans"`
	Reps  []map[string]float64 `json:"repetitions"`
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its ID.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := len(l.Spans)
	l.Spans = append(l.Spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
	return id
}

// begin opens a span that end closes.
func (l *spanLog) begin(name string, parent int) int {
	now := time.Now()
	return l.add(name, parent, now, now)
}

func (l *spanLog) end(id int) { l.Spans[id].End = time.Since(l.t0).Seconds() }

func (l *spanLog) write(path string) error {
	b, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
