package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"ivn/internal/em"
	"ivn/internal/engine"
	"ivn/internal/gen2"
	"ivn/internal/ivnsim/runspec"
	"ivn/internal/link"
	"ivn/internal/phasor"
	"ivn/internal/reader"
	"ivn/internal/rng"
	"ivn/internal/scenario"
	"ivn/internal/session"
	"ivn/internal/tag"
)

// Layer probes time calls into one layer's public functions from the
// benchmark's own code. Each probe repeats its call until probeBudget
// has passed (at least probeMinReps times, at most probeMaxReps) and
// reports the median call.
const (
	probeBudget  = 300 * time.Millisecond
	probeMinReps = 5
	probeMaxReps = 2000
)

// timeCalls times fn per call and returns the median in microseconds.
// fn's first error stops the probe.
func timeCalls(fn func() error) (float64, error) {
	var us []float64
	start := time.Now()
	for len(us) < probeMinReps || (len(us) < probeMaxReps && time.Since(start) < probeBudget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/float64(time.Microsecond))
	}
	return Median(us), nil
}

// probeRunspec times the run pipeline's fixed costs on one quick spec:
// Spec.Key, paid on every daemon submit, and the cost of a 2-way
// sharded run (two fragments and their merge) relative to a plain run.
func probeRunspec(o options, ms *metricSet, ck *checker) error {
	spec := runspec.Spec{Experiment: "fig9", Seed: o.seed, Quick: true, Trials: o.trials}
	keyUS, err := timeCalls(func() error { _, err := spec.Key(); return err })
	if !ck.attempt("runspec.Key", err) {
		return nil
	}
	ms.set("runspec.key_us", keyUS)

	ctx := context.Background()
	whole, err := renderSpec(ctx, engine.Limits{}, spec)
	if !ck.attempt("runspec probe run", err) {
		return nil
	}
	var runs, sharded []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		_, _, err := runspec.Run(ctx, engine.Limits{}, spec, nil)
		runs = append(runs, time.Since(t0).Seconds())
		if !ck.attempt("runspec probe run", err) {
			return nil
		}
		dir := filepath.Join(o.workDir, fmt.Sprintf("shards-%d", rep))
		t1 := time.Now()
		res, err := runShardedInProcess(ctx, spec, dir)
		sharded = append(sharded, time.Since(t1).Seconds())
		if err == nil {
			var buf bytes.Buffer
			if err = engine.RenderJSON(res, &buf); err == nil && !bytes.Equal(buf.Bytes(), whole) {
				err = errors.New("merged result differs from the whole run")
			}
		}
		if !ck.attempt("runspec sharded probe", err) {
			return nil
		}
	}
	ms.set("runspec.shard_overhead", Median(sharded)/Median(runs))
	return nil
}

// runShardedInProcess runs spec as two journaled fragments under dir
// and merges them.
func runShardedInProcess(ctx context.Context, spec runspec.Spec, dir string) (*engine.Result, error) {
	var paths []string
	for i := 0; i < 2; i++ {
		s := spec
		s.Shard = &engine.Shard{Index: i, Count: 2}
		s.Journal = filepath.Join(dir, fmt.Sprintf("%s.s%d.jsonl", spec.Experiment, i))
		if err := mkdirFor(s.Journal); err != nil {
			return nil, err
		}
		if _, err := runspec.RunFragment(ctx, engine.Limits{}, s); err != nil {
			return nil, err
		}
		paths = append(paths, s.Journal)
	}
	res, _, err := runspec.Merge(ctx, engine.Limits{}, paths)
	return res, err
}

// Session probe parameters, those of the population experiment.
const (
	popAntennas     = 8
	popShadowDB     = 4.0
	popCaptureRatio = 2.0
	popTargetSNR    = 1.2
	popRounds       = 4
	popInitialQ     = 4
)

// population builds an n-tag inventory problem the way the population
// experiment does: one realized swine placement reduced to an
// event-level channel, per-tag lognormal shadowing, fresh tag logics.
func population(n int, r *rng.Rand) (*session.EventChannel, []*gen2.TagLogic, error) {
	p, err := scenario.NewSwine(scenario.Subcutaneous).Realize(popAntennas, r.Split("placement"))
	if err != nil {
		return nil, nil, err
	}
	lk, err := link.ForTrial(p, popAntennas, nil, r)
	if err != nil {
		return nil, nil, err
	}
	base := lk.EventBudget(tag.StandardTag())
	if !(base.SNR > 0) {
		return nil, nil, fmt.Errorf("unusable base budget (snr %g)", base.SNR)
	}
	norm := popTargetSNR / base.SNR
	ec := lk.EventChannel(nil)
	ec.CaptureRatio = popCaptureRatio
	ec.Budgets = make([]session.TagBudget, n)
	shadow := r.Split("shadow")
	logics := make([]*gen2.TagLogic, n)
	for i := range logics {
		f := norm * math.Pow(10, shadow.NormFloat64()*popShadowDB/10)
		ec.Budgets[i] = session.TagBudget{SNR: base.SNR * f, RSSI: base.RSSI * f}
		tl, err := gen2.NewTagLogic([]byte{0xE2, byte(i >> 8), byte(i), 0x20}, r.Split(fmt.Sprintf("tag-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		logics[i] = tl
	}
	return ec, logics, nil
}

// timedChannel is a session.Channel decorator that accumulates the time
// spent inside the wrapped channel.
type timedChannel struct {
	inner session.Channel
	busy  time.Duration
}

func (c *timedChannel) DecodeReply(i int, reply gen2.Reply, exchange string, r *rng.Rand) (session.ChannelDecode, error) {
	t0 := time.Now()
	d, err := c.inner.DecodeReply(i, reply, exchange, r)
	c.busy += time.Since(t0)
	return d, err
}

func (c *timedChannel) Capture(responders []int, r *rng.Rand) int {
	t0 := time.Now()
	w := c.inner.Capture(responders, r)
	c.busy += time.Since(t0)
	return w
}

func (c *timedChannel) ReceiveSeconds() float64 { return c.inner.ReceiveSeconds() }

// inventoryCounts is a session.Observer that counts controller events.
type inventoryCounts struct {
	commands, queryAdjusts, slots, singles, collisions int
}

func (c *inventoryCounts) Event(e session.Event) {
	switch e.Kind {
	case session.EvCommandSent:
		c.commands++
		if e.Cmd == "QueryAdjust" {
			c.queryAdjusts++
		}
	case session.EvSlotResolved:
		c.slots++
		switch e.Outcome {
		case "single":
			c.singles++
		case "collision":
			c.collisions++
		}
	}
}

// inventoryOnce builds a fresh population (untimed) and times one
// InventoryAll over it. ch, when set, wraps the event channel; obs,
// when set, observes the controller.
func inventoryOnce(n int, seed uint64, wrap func(session.Channel) session.Channel, obs session.Observer) (time.Duration, int, error) {
	r := rng.New(seed)
	ec, logics, err := population(n, r.Split("population"))
	if err != nil {
		return 0, 0, err
	}
	ic := session.NewInventoryController(gen2.S0)
	ic.InitialQ = popInitialQ
	ic.MaxCommands = 12*n + 256
	ic.Recovery = session.DefaultRecovery()
	ic.Channel = ec
	if wrap != nil {
		ic.Channel = wrap(ec)
	}
	ic.Trace = session.NewTrace(obs)
	rounds := r.Split("rounds")
	t0 := time.Now()
	epcs, err := ic.InventoryAll(logics, popRounds, rounds)
	d := time.Since(t0)
	if errors.Is(err, session.ErrInventoryIncomplete) {
		err = nil // a budgeted inventory may leave tags unread; the count says how many
	}
	return d, len(epcs), err
}

// probeSession times InventoryController.InventoryAll on event-channel
// populations of 16, 256 and 1000 tags, the channel's share at 1000 tags
// through the timedChannel decorator, and takes exact protocol counts
// at 1000 tags from a counting observer in a separate run.
func probeSession(o options, ms *metricSet, ck *checker) error {
	seed := o.seed ^ 0x5e55
	reps := map[int]int{16: 50, 256: 5, 1000: 3}
	var inv1000 float64
	for _, n := range []int{16, 256, 1000} {
		var times []float64
		for rep := 0; rep < reps[n]; rep++ {
			d, _, err := inventoryOnce(n, seed, nil, nil)
			if !ck.attempt(fmt.Sprintf("inventory n=%d", n), err) {
				return nil
			}
			times = append(times, ms2(d))
		}
		ms.set(fmt.Sprintf("session.inventory_ms.n%d", n), Median(times))
		if n == 1000 {
			inv1000 = Median(times)
		}
	}

	var chanMS []float64
	for rep := 0; rep < reps[1000]; rep++ {
		var tc *timedChannel
		_, _, err := inventoryOnce(1000, seed, func(c session.Channel) session.Channel {
			tc = &timedChannel{inner: c}
			return tc
		}, nil)
		if !ck.attempt("inventory n=1000 timed channel", err) {
			return nil
		}
		chanMS = append(chanMS, ms2(tc.busy))
	}
	ms.set("session.channel_ms.n1000", Median(chanMS))

	var counts inventoryCounts
	_, reads, err := inventoryOnce(1000, seed, nil, &counts)
	if !ck.attempt("inventory n=1000 counted", err) {
		return nil
	}
	ms.set("session.commands", float64(counts.commands))
	ms.set("session.slots", float64(counts.slots))
	ms.set("session.singles", float64(counts.singles))
	ms.set("session.collisions", float64(counts.collisions))
	ms.set("session.query_adjusts", float64(counts.queryAdjusts))
	ms.set("session.reads", float64(reads))
	if counts.slots > 0 {
		ms.set("session.slot_efficiency", float64(counts.singles)/float64(counts.slots))
	}
	if counts.commands > 0 {
		ms.set("session.ns_per_command.n1000", inv1000*1e6/float64(counts.commands))
	}
	return nil
}

// probePhysics times the per-trial physics calls on placements like
// those of fig9 (water tank, 10 cm deep, 0.5 m air gap) with the
// prototype's 8 antennas.
func probePhysics(o options, ms *metricSet, ck *checker) error {
	const n = 8
	r := rng.New(o.seed ^ 0xf19)
	sc := scenario.NewTank(0.5, em.Water, 0.10)
	var p scenario.Placement
	if !ck.attempt("scenario.RealizeInto", sc.RealizeInto(&p, n, r.Split("placement"))) {
		return nil
	}
	type probe struct {
		name string
		fn   func() error
	}
	var kit link.TrialKit
	lk, err := kit.ForTrial(&p, n, nil, r.Split("link"))
	if !ck.attempt("link.TrialKit.ForTrial", err) {
		return nil
	}
	g := p.Geometry()
	coeffs := link.DownlinkCoeffsInto(nil, &p, g.CIBFreq)
	carriers := lk.Beamformer.Carriers()
	freqs := make([]float64, len(carriers))
	phasors := make([]complex128, len(carriers))
	for i, c := range carriers {
		s, cs := math.Sincos(c.Phase)
		freqs[i] = c.Freq - carriers[0].Freq
		phasors[i] = complex(c.Amplitude*cs, c.Amplitude*s) * coeffs[i]
	}
	tg, err := tag.New(tag.StandardTag(), []byte{0x12, 0x34}, r.Split("tag"))
	if !ck.attempt("tag.New", err) {
		return nil
	}
	tg.UpdatePower(tg.Model.MinPeakPower() * 2)
	reply := tg.HandleCommand(&gen2.Query{Q: 0, Session: gen2.S0})
	if reply.Kind != gen2.ReplyRN16 {
		ck.attempt("tag reply", fmt.Errorf("tag answered %s to Query, want RN16", reply.Kind))
		return nil
	}
	bs, err := tg.BackscatterWaveform(reply, reader.DefaultSamplesPerHalfBit)
	if !ck.attempt("tag.BackscatterWaveform", err) {
		return nil
	}
	// The reader must decode what it is given: a decode probe that
	// measured a failing path would time the wrong work.
	dr, err := lk.Reader.DecodeUplink(bs, lk.RoundTrip(tg.Model), lk.Jam(), len(reply.Bits), r.Split("decode-check"))
	if err == nil && !dr.Bits.Equal(reply.Bits) {
		err = errors.New("reader decoded other bits than the tag sent")
	}
	if !ck.attempt("reader.DecodeUplink check", err) {
		return nil
	}
	query := &gen2.Query{Q: 4, Session: gen2.S0}
	noise := r.Split("noise")
	for _, pr := range []probe{
		{"scenario.realize_us", func() error { return sc.RealizeInto(&p, n, r) }},
		{"link.for_trial_us", func() error { _, err := kit.ForTrial(&p, n, nil, r); return err }},
		{"link.downlink_coeffs_us", func() error { coeffs = link.DownlinkCoeffsInto(coeffs[:0], &p, g.CIBFreq); return nil }},
		{"phasor.peak_refined_us", func() error {
			if v := phasor.PeakPowerRefined(freqs, phasors, link.ScanDuration, link.ScanCoarse, link.ScanSamples); !(v > 0) {
				return fmt.Errorf("peak power %g", v)
			}
			return nil
		}},
		{"core.transmit_command_us", func() error { _, err := lk.Beamformer.TransmitCommand(query, true); return err }},
		{"tag.backscatter_us", func() error { _, err := tg.BackscatterWaveform(reply, reader.DefaultSamplesPerHalfBit); return err }},
		{"reader.decode_uplink_us", func() error {
			_, err := lk.Reader.DecodeUplink(bs, lk.RoundTrip(tg.Model), lk.Jam(), len(reply.Bits), noise)
			return err
		}},
	} {
		us, err := timeCalls(pr.fn)
		if !ck.attempt(pr.name, err) {
			return nil
		}
		ms.set(pr.name, us)
	}
	return nil
}
