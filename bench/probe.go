package main

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
)

// probeName is the registry name of SMS wrapped in the timing probe. It
// builds exactly what "sms" builds, so its Results are byte-identical.
const probeName = "bench-sms"

// probeSample is the sampling period of timed calls: one Train and one
// Drain in this many is timed, which keeps the clock reads' own cost a
// small share of the run.
const probeSample = 16

// probeSpanSample is how many timed calls pass between spans written to
// the trace, so a long run stays within the tracer's span buffer.
const probeSpanSample = 4096

// probe collects the wrapped engines a Runner builds. The simulator's
// registry calls constructors with only a sim.Config, so the engines are
// handed back through this table; runs that use it are sequential.
var probe = &probeTable{}

type probeTable struct {
	mu      sync.Mutex
	engines []*timedPrefetcher
	tracer  *obs.Tracer
}

func init() {
	sim.Register(probeName, func(cfg sim.Config) (sim.Prefetcher, error) {
		c := cfg.SMS
		c.Geometry = cfg.Geometry
		p, err := core.NewSimPrefetcher(c)
		if err != nil {
			return nil, err
		}
		return probe.attach(p, "sms"), nil
	})
}

// reset forgets earlier engines and sets the tracer the next run's
// sampled call spans go to (nil for none).
func (t *probeTable) reset(tr *obs.Tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.engines = nil
	t.tracer = tr
}

func (t *probeTable) attach(p sim.Prefetcher, scheme string) *timedPrefetcher {
	t.mu.Lock()
	defer t.mu.Unlock()
	tp := &timedPrefetcher{Prefetcher: p, tracer: t.tracer, track: scheme + " cpu" + strconv.Itoa(len(t.engines))}
	t.engines = append(t.engines, tp)
	return tp
}

// callTotals sums the counters of every engine of the last run.
type callTotals struct {
	trains, drains, emptyDrains uint64
	trainTimed, drainTimed      uint64
	trainNS, drainNS            int64
}

func (t *probeTable) totals() callTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	var c callTotals
	for _, e := range t.engines {
		c.trains += e.trains
		c.drains += e.drains
		c.emptyDrains += e.emptyDrains
		c.trainTimed += e.trainTimed
		c.drainTimed += e.drainTimed
		c.trainNS += e.trainNS
		c.drainNS += e.drainNS
	}
	return c
}

// timedPrefetcher forwards every call to the wrapped engine and times a
// sample of the Train and Drain calls.
type timedPrefetcher struct {
	sim.Prefetcher
	tracer *obs.Tracer
	track  string

	trains, drains, emptyDrains uint64
	trainTimed, drainTimed      uint64
	trainNS, drainNS            int64
}

func (p *timedPrefetcher) Train(rec trace.Record, acc *coherence.AccessResult) []mem.Addr {
	p.trains++
	if p.trains%probeSample != 0 {
		return p.Prefetcher.Train(rec, acc)
	}
	t0 := time.Now()
	out := p.Prefetcher.Train(rec, acc)
	t1 := time.Now()
	p.trainNS += t1.Sub(t0).Nanoseconds()
	p.trainTimed++
	if p.trainTimed%probeSpanSample == 0 {
		p.tracer.Add("train", "core", p.track, t0, t1)
	}
	return out
}

func (p *timedPrefetcher) Drain(max int) []mem.Addr {
	p.drains++
	if p.drains%probeSample != 0 {
		out := p.Prefetcher.Drain(max)
		if len(out) == 0 {
			p.emptyDrains++
		}
		return out
	}
	t0 := time.Now()
	out := p.Prefetcher.Drain(max)
	t1 := time.Now()
	p.drainNS += t1.Sub(t0).Nanoseconds()
	p.drainTimed++
	if len(out) == 0 {
		p.emptyDrains++
	}
	if p.drainTimed%probeSpanSample == 0 {
		p.tracer.Add("drain", "core", p.track, t0, t1)
	}
	return out
}

// clockCost is the mean cost timing adds to one probed call: a probe
// around an engine built like the probed ones times Drain calls that have
// nothing to return, the cheapest call it makes. Subtracting it leaves
// the calls' own cost.
func clockCost(cfg sim.Config) float64 {
	c := cfg.SMS
	c.Geometry = cfg.Canonical().Geometry
	eng, err := core.NewSimPrefetcher(c)
	if err != nil {
		return 0
	}
	p := &timedPrefetcher{Prefetcher: eng}
	const calls = 1 << 16
	for i := 0; i < calls; i++ {
		p.Drain(0)
	}
	return float64(p.drainNS) / float64(p.drainTimed)
}

// perCall is the mean measured call time with the clock's own cost
// removed, never below zero.
func perCall(ns int64, timed uint64, clock float64) float64 {
	if timed == 0 {
		return 0
	}
	return max(float64(ns)/float64(timed)-clock, 0)
}
