package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/arrival"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/medium"
	"repro/internal/protocol"
	"repro/internal/rng"
	"repro/internal/sim"
)

// dba-batch: Decodable Backoff on the coded channel, one batch of dbaN
// packets — the paper's Theorem 16 regime, configured as crnsim's
// defaults configure it (serial engine, Workers 0).
//
// The cost of one batch depends strongly on its seed (at n = 10^6, heap
// allocation ranged 0.54–1.47 GB and run time 0.84–1.44 s on a 2-vCPU
// Xeon VM over seeds 1–10, almost all of the allocation in the coded
// channel's window index), so each repetition draws a fresh batch seed
// from the workload seed: a run's medians are over many batches, not
// one.  Repetition 0 uses the workload seed itself.
const (
	dbaN       = 1 << 18
	dbaKappa   = 64
	dbaHorizon = 100_000 // crnsim's default horizon
	dbaWarmN   = 1 << 14 // set-up warm-up batch
	// dbaMaxSlots is Theorem 16's completion bound n(1+10/κ)+O(κ), with
	// the O(κ) term taken as 64κ.
	dbaMaxSlots = dbaN*(1+10.0/dbaKappa) + 64*dbaKappa
)

// dbaDigests pins the Result digest (see resultDigest) of the workload
// seed's own batch, which repetition 0 and the traced loops run, for
// seeds 1–20.  Other seeds check that every run of it agrees.
var dbaDigests = map[uint64]string{
	1:  "de020922e18f4787ed708bef1d93411d592d856c121189965eba9faf66a88b96",
	2:  "9a7742557cc00d2eacd395fd18116b7d81e992f4efc09f6344342f00bfdde8b7",
	3:  "fbecfebaea1ea7dd354c0f71a1a270e22ccffca50281f50f1310d387f30d2cd3",
	4:  "97f5ddf0a684cd3c1269e859f2281df7cc960aebca33b25ff8d48a12333a8fa3",
	5:  "657c7ca72ea28da8b7fd34b0b10d0cc8705fa29dcff91f3eacd50a03570377ae",
	6:  "8a2ef0cd99448f8378db04e326b6afec1c9e12ecd234d26e20e8e4d9ca317cb6",
	7:  "1e16f5c5b163f73780951b7b703cae0da684be3d2e3a603845ba6e16e150eabb",
	8:  "8f565c6374a0197572df6f6e788bb9a6e94f34c8edf54b58d36f4ee80f3ebba1",
	9:  "faf1c8562c89e35a67a39af8be4e794c707b864d46c215d7ca444ad63aca833d",
	10: "2242d32ddd812c77cb0bd2aaf3cdfe12f51f34d0474f81e8c9b927140cf664df",
	11: "0b4bcecd10efb35e99b04c2da03b4059c988752a70ee3ae628fed2a8b2481e52",
	12: "24340cac84938d3741dce6819d2dc49f4e5c82ec272bb8e5c0e67d9c08908da8",
	13: "a0dfcca02a25a249dfdbf7e479df31c034679774b9a02e1d01e63ba0dd44c13b",
	14: "45e72a6072a812dab9acacffd42b6df8ffb0cdb8d315367c8fb12e7fded54e69",
	15: "00237b75abcf0d5b3a7816b9679e279b3d85d611d49b6a6c5af74d4a71a632ca",
	16: "037ad5f28520e92da3ffb924f6da597302afa8d502748f95aae3db38e72efe48",
	17: "5617707d47365901e17e7146e793b782a8b39265ee2f57019a8a9a05696473ab",
	18: "52a8d1a77d8662a57831eec0318986433bcfa495c2a8e61eab0351ec1b1d30c3",
	19: "f63269a366665263fd4c770f776e6922dc162348f3e9573ad71abeb67ceebc87",
	20: "c55282ce20965b98a0c5f4bad95ee85daf9c02502fa7509a231cdd5fbbc09ae8",
}

type dbaBatch struct {
	seed  uint64
	seeds *rng.Rand // batch seeds of repetitions 1, 2, ...
	reps  int
	want  string // digest of the workload seed's batch
}

// dbaOut is one repetition's batch seed and Result.
type dbaOut struct {
	seed uint64
	res  *sim.Result
}

func setupDBABatch(seed uint64, _ string) (instance, error) {
	d := &dbaBatch{seed: seed, seeds: rng.New(seed ^ 0x6261746368), want: dbaDigests[seed]}
	cfg, proto, arr := dbaInputs(seed, dbaWarmN)
	if res := sim.Run(cfg, proto, arr); res.Delivered != dbaWarmN {
		return nil, fmt.Errorf("warm-up batch delivered %d of %d", res.Delivered, dbaWarmN)
	}
	return d, nil
}

// dbaInputs generates one batch from its seed, with crnsim's seeding:
// the protocol stream is the seed, the engine stream seed+1.
func dbaInputs(seed uint64, n int) (sim.Config, protocol.Protocol, arrival.Process) {
	cfg := sim.Config{Kappa: dbaKappa, Horizon: dbaHorizon, Drain: true, Seed: seed + 1}
	return cfg, core.New(dbaKappa, rng.New(seed)), &arrival.Batch{N: n}
}

func (d *dbaBatch) run() any {
	seed := d.seed
	if d.reps > 0 {
		seed = d.seeds.Uint64()
	}
	d.reps++
	cfg, proto, arr := dbaInputs(seed, dbaN)
	return dbaOut{seed, sim.Run(cfg, proto, arr)}
}

func (d *dbaBatch) check(o any) sample {
	out := o.(dbaOut)
	res := out.res
	s := sample{slots: float64(res.Elapsed), cells: 1, throughput: res.CompletionThroughput()}
	s.err = d.verify("sim.Run", out.seed, res)
	return s
}

// verify checks one Result: every packet delivered within Theorem 16's
// bound, and, for the workload seed's batch, the digest equal to the
// pinned one (or, unpinned, to the first seen).
func (d *dbaBatch) verify(what string, seed uint64, res *sim.Result) error {
	if res.Delivered != dbaN || res.Pending != 0 {
		return fmt.Errorf("%s: seed %d delivered %d pending %d, want %d and 0", what, seed, res.Delivered, res.Pending, dbaN)
	}
	if float64(res.Elapsed) > dbaMaxSlots {
		return fmt.Errorf("%s: seed %d took %d slots, over Theorem 16's %.0f", what, seed, res.Elapsed, dbaMaxSlots)
	}
	if seed != d.seed {
		return nil
	}
	dg := resultDigest(res)
	if d.want == "" {
		d.want = dg
		fmt.Fprintf(os.Stderr, "crnperf: dba-batch seed %d result digest %s\n", seed, dg)
	}
	if dg != d.want {
		return fmt.Errorf("%s: seed %d result digest %s, want %s", what, seed, dg, d.want)
	}
	return nil
}

func (d *dbaBatch) close() {}

// traced runs the workload seed's batch through the traced serial loop
// and through the staged-cycle replay; both must reproduce sim.Run's
// Result, which repetition 0 recorded.
func (d *dbaBatch) traced(spans *spanLog) (map[string]float64, time.Duration, error) {
	vals := map[string]float64{}
	rep := spans.begin("dba-batch.traced", -1)
	defer spans.end(rep)

	cfg, proto, arr := dbaInputs(d.seed, dbaN)
	t := time.Now()
	res := tracedSerial(cfg, proto, arr, vals)
	wall := time.Since(t)
	spans.add("dba-batch.serial", rep, t, t.Add(wall))
	if err := d.verify("traced serial loop", d.seed, res); err != nil {
		return nil, 0, err
	}

	cfg, proto, arr = dbaInputs(d.seed, dbaN)
	t = time.Now()
	res, err := tracedStaged(cfg, proto, arr, vals)
	spans.add("dba-batch.staged", rep, t, time.Now())
	if err != nil {
		return nil, 0, err
	}
	if err := d.verify("staged replay", d.seed, res); err != nil {
		return nil, 0, err
	}
	return vals, wall, nil
}

// tracedSerial is sim.Run's serial slot loop, rebuilt from the public
// sim.Loop, protocol and medium interfaces with every call timed.  It
// makes exactly sim.Run's calls in sim.Run's order, so its Result is
// identical; the chained timestamps attribute each call's duration to
// its layer, and what no call covers is the loop's own time
// (sim.driver_self_s).
func tracedSerial(cfg sim.Config, proto protocol.Protocol, arr arrival.Process, vals map[string]float64) *sim.Result {
	var (
		simInject, simObserve, simRecord, simAdvance time.Duration
		coreInject, coreTx, coreObserve, corePending time.Duration
		coreWake, medStep, medRepeat                 time.Duration
		stepped, skipped, repeats, txTotal, events   int64
	)
	start := time.Now()
	l := sim.NewLoop(cfg, proto.Name(), arr)
	m := l.Medium()
	rp, _ := m.(medium.Repeater)
	waker, _ := proto.(protocol.Waker)
	co, _ := proto.(protocol.Coaster)
	coastEnd := int64(-1)
	var buf []channel.PacketID
	wake := func(now int64) int64 {
		t := time.Now()
		w := waker.NextWake(now)
		coreWake += time.Since(t)
		return w
	}

	var res *sim.Result
	for {
		t0 := time.Now()
		pending := proto.Pending()
		t1 := time.Now()
		corePending += t1.Sub(t0)
		running := l.Running(pending)
		t2 := time.Now()
		simAdvance += t2.Sub(t1)
		if !running {
			break
		}
		now := l.Now()
		stepped++
		ids := l.InjectNow()
		t3 := time.Now()
		simInject += t3.Sub(t2)
		if len(ids) > 0 {
			proto.Inject(now, ids)
			t4 := time.Now()
			coreInject += t4.Sub(t3)
			t3 = t4
		}
		var class channel.SlotClass
		var ev *channel.Event
		replayed := false
		if rp != nil && now <= coastEnd {
			repeats++
			replayed = rp.StepRepeat(now)
			t4 := time.Now()
			medRepeat += t4.Sub(t3)
			t3 = t4
		}
		if replayed {
			class, ev = channel.Bad, nil
		} else {
			buf = proto.Transmitters(now, buf[:0])
			t4 := time.Now()
			coreTx += t4.Sub(t3)
			txTotal += int64(len(buf))
			class, ev = m.Step(now, buf)
			t3 = time.Now()
			medStep += t3.Sub(t4)
		}
		if ev != nil {
			events++
		}
		fb := l.Observe(ev)
		t5 := time.Now()
		simObserve += t5.Sub(t3)
		proto.Observe(fb)
		t6 := time.Now()
		coreObserve += t6.Sub(t5)
		backlog := proto.Pending()
		t7 := time.Now()
		corePending += t7.Sub(t6)
		l.Record(backlog)
		t8 := time.Now()
		simRecord += t8.Sub(t7)

		if class == channel.Bad && rp != nil {
			coastEnd = now
			if co != nil {
				coastEnd = co.CoastUntil(now)
			}
			t9 := time.Now()
			coreWake += t9.Sub(t8)
			t8 = t9
		} else {
			coastEnd = now
		}
		var wakeFn func(int64) int64
		if coastEnd <= now && waker != nil {
			wakeFn = wake
		}
		wakeBefore := coreWake
		more := l.Advance(backlog, wakeFn)
		simAdvance += time.Since(t8) - (coreWake - wakeBefore)
		if !more {
			break
		}
		skipped += l.Now() - now - 1
	}
	t := time.Now()
	pending := proto.Pending()
	corePending += time.Since(t)
	res = l.Finish(pending)
	wall := time.Since(start)

	children := simInject + simObserve + simRecord + simAdvance + coreInject + coreTx +
		coreObserve + corePending + coreWake + medStep + medRepeat
	vals["sim.inject_s"] = simInject.Seconds()
	vals["sim.observe_s"] = simObserve.Seconds()
	vals["sim.record_s"] = simRecord.Seconds()
	vals["sim.advance_s"] = simAdvance.Seconds()
	vals["sim.driver_self_s"] = (wall - children).Seconds()
	vals["sim.slots_stepped"] = float64(stepped)
	vals["sim.slots_skipped"] = float64(skipped)
	vals["core.inject_s"] = coreInject.Seconds()
	vals["core.transmitters_s"] = coreTx.Seconds()
	vals["core.observe_s"] = coreObserve.Seconds()
	vals["core.pending_s"] = corePending.Seconds()
	vals["core.wake_s"] = coreWake.Seconds()
	vals["core.tx_total"] = float64(txTotal)
	vals["medium.step_s"] = medStep.Seconds()
	vals["medium.repeat_s"] = medRepeat.Seconds()
	vals["medium.repeat_calls"] = float64(repeats)
	vals["medium.events"] = float64(events)
	if busy := res.Channel.GoodSlots + res.Channel.BadSlots; busy > 0 {
		vals["medium.good_ratio"] = float64(res.Channel.GoodSlots) / float64(busy)
	}
	return res
}

// tracedStaged replays the batch through the staged shard cycle the
// Workers >= 1 engine runs — PrepareSlot, ShardTransmitters,
// Sharded.StepSharded with an inline fan, ShardObserve, ReduceSlot,
// ShardPending/ShardNextWake — using only public calls, one goroutine,
// with each stage timed.
func tracedStaged(cfg sim.Config, proto protocol.Protocol, arr arrival.Process, vals map[string]float64) (*sim.Result, error) {
	p, ok := proto.(protocol.Partitioned)
	if !ok {
		return nil, fmt.Errorf("staged replay: %s is not Partitioned", proto.Name())
	}
	var prepare, shardTx, stepSharded, shardObserve, reduce, pendingT time.Duration
	start := time.Now()
	l := sim.NewLoop(cfg, proto.Name(), arr)
	m := l.Medium()
	sm, ok := m.(medium.Sharded)
	if !ok {
		return nil, fmt.Errorf("staged replay: medium %s is not Sharded", m.Name())
	}
	rp, _ := m.(medium.Repeater)
	pw, _ := proto.(protocol.PartitionedWaker)
	co, _ := proto.(protocol.Coaster)
	shards := p.Shards()
	bufs := make([][]channel.PacketID, shards)
	fan := func(n int, f func(int)) {
		for i := 0; i < n; i++ {
			f(i)
		}
	}
	pending := func() int {
		t := time.Now()
		n := 0
		for sh := 0; sh < shards; sh++ {
			n += p.ShardPending(sh)
		}
		pendingT += time.Since(t)
		return n
	}
	wake := func(now int64) int64 {
		t := time.Now()
		w := int64(-1)
		for sh := 0; sh < shards; sh++ {
			if x := pw.ShardNextWake(now, sh); x >= 0 && (w < 0 || x < w) {
				w = x
			}
		}
		pendingT += time.Since(t)
		return w
	}
	coastEnd := int64(-1)

	for l.Running(pending()) {
		now := l.Now()
		if ids := l.InjectNow(); len(ids) > 0 {
			proto.Inject(now, ids)
		}
		var class channel.SlotClass
		var ev *channel.Event
		if rp != nil && now <= coastEnd && rp.StepRepeat(now) {
			class, ev = channel.Bad, nil
		} else {
			t0 := time.Now()
			p.PrepareSlot(now)
			t1 := time.Now()
			prepare += t1.Sub(t0)
			if bufs[0] == nil {
				hint := p.Pending()/shards + 4
				for sh := range bufs {
					bufs[sh] = make([]channel.PacketID, 0, hint)
				}
			}
			for sh := 0; sh < shards; sh++ {
				bufs[sh] = p.ShardTransmitters(now, sh, bufs[sh][:0])
			}
			t2 := time.Now()
			shardTx += t2.Sub(t1)
			class, ev = sm.StepSharded(now, bufs, fan)
			stepSharded += time.Since(t2)
		}
		fb := l.Observe(ev)
		t3 := time.Now()
		for sh := 0; sh < shards; sh++ {
			p.ShardObserve(sh, fb)
		}
		t4 := time.Now()
		shardObserve += t4.Sub(t3)
		p.ReduceSlot(fb)
		reduce += time.Since(t4)
		backlog := pending()
		l.Record(backlog)
		if class == channel.Bad && rp != nil {
			coastEnd = now
			if co != nil {
				coastEnd = co.CoastUntil(now)
			}
		} else {
			coastEnd = now
		}
		var wakeFn func(int64) int64
		if coastEnd <= now && pw != nil {
			wakeFn = wake
		}
		if !l.Advance(backlog, wakeFn) {
			break
		}
	}
	res := l.Finish(pending())
	vals["staged.prepare_s"] = prepare.Seconds()
	vals["staged.shard_tx_s"] = shardTx.Seconds()
	vals["staged.step_sharded_s"] = stepSharded.Seconds()
	vals["staged.shard_observe_s"] = shardObserve.Seconds()
	vals["staged.reduce_s"] = reduce.Seconds()
	vals["staged.pending_s"] = pendingT.Seconds()
	vals["staged.wall_s"] = time.Since(start).Seconds()
	return res, nil
}

// resultDigest is the SHA-256 of a Result's JSON together with the
// latency state encoding/json cannot see (the Summary moments and the
// reservoir sample), so equal digests mean equal Results.
func resultDigest(r *sim.Result) string {
	var sample []float64
	if r.LatencySample != nil {
		sample = r.LatencySample.Values()
	}
	b, err := json.Marshal(struct {
		Result                          *sim.Result
		LatN                            int64
		LatMean, LatVar, LatMin, LatMax float64
		Sample                          []float64
	}{r, r.Latency.N(), r.Latency.Mean(), r.Latency.Variance(), r.Latency.Min(), r.Latency.Max(), sample})
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
