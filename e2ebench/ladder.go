package main

import (
	"fmt"
	"math"
	"net/http"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/sentinel"
	"divscrape/internal/sitemodel"
	"divscrape/internal/trajectory"
)

// flow is a request's role in the challenge protocol that a graduated
// ladder hosts: the script and the verify beacon never count against the
// client, and the beacon marks the challenge solved.
type flow uint8

const (
	flowNone flow = iota
	flowScript
	flowVerify
)

// replayFlow classifies a replayed entry the way scrapedetect's
// -mitigate graduated replay does.
func replayFlow(e *logfmt.Entry) flow {
	switch {
	case e.Path == sitemodel.ChallengeScriptPath:
		return flowScript
	case e.Path == sitemodel.ChallengeVerifyPath && e.Method == http.MethodPost:
		return flowVerify
	}
	return flowNone
}

// guardFlow classifies a live request the way httpguard does.
func guardFlow(r *http.Request) flow {
	switch {
	case r.URL.Path == sitemodel.ChallengeScriptPath && r.Method == http.MethodGet:
		return flowScript
	case r.URL.Path == sitemodel.ChallengeVerifyPath && r.Method == http.MethodPost:
		return flowVerify
	}
	return flowNone
}

// factories builds the three detectors in benchmark order. Every instance
// shares model, so building one costs no training.
func factories(model *trajectory.Model) []detector.Factory {
	return []detector.Factory{
		func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) },
		func() (detector.Detector, error) { return arcane.New(arcane.Config{}) },
		func() (detector.Detector, error) { return trajectory.New(trajectory.Config{Model: model}) },
	}
}

// judge adjudicates one request's verdicts into the graduated ladder:
// 1-out-of-3 alerts, 2-out-of-3 confirms, the mean score is the
// suspicion — the rule scrapedetect and httpguard share.
func judge(engine *mitigate.Engine, e *logfmt.Entry, f flow, v []detector.Verdict, ln *lane, seq uint64) mitigate.Action {
	switch f {
	case flowScript:
		return mitigate.Allow
	case flowVerify:
		engine.ChallengePassed(e.RemoteAddr, e.Time)
		return mitigate.Allow
	}
	votes := 0
	var sum float64
	for i := range v {
		if v[i].Alert {
			votes++
		}
		sum += v[i].Score
	}
	start := ln.begin()
	d := engine.Apply(e.RemoteAddr, e.Time, mitigate.Assessment{
		Alerted:   votes > 0,
		Confirmed: votes >= 2,
		Score:     sum / float64(len(v)),
	})
	ln.nested(layerApply, start, seq)
	return d.Action
}

// ladder is a replay's sink: it feeds every decision into one graduated
// engine and writes the outcome into a preallocated array indexed by the
// request's sequence number.
type ladder struct {
	engine *mitigate.Engine
	out    []outcome
	tm     *timing
	ln     *lane
	// sweepEvery, when positive, sweeps idle clients out of the engine
	// every that many decisions (the churn workload's eviction); n counts
	// decisions since the last sweep.
	sweepEvery, n int
}

func newLadder(out []outcome, tm *timing, sweepEvery int) (*ladder, error) {
	engine, err := mitigate.New(mitigate.Graduated())
	if err != nil {
		return nil, fmt.Errorf("mitigation engine: %w", err)
	}
	return &ladder{engine: engine, out: out, tm: tm, sweepEvery: sweepEvery}, nil
}

func (l *ladder) sink(d pipeline.Decision) error {
	seq := d.Req.Seq
	start := l.ln.enter(layerSink)
	e := &d.Req.Entry
	a := judge(l.engine, e, replayFlow(e), d.Verdicts, l.ln, seq)
	l.out[seq] = outcomeOf(d.Verdicts, a)
	if l.sweepEvery > 0 {
		if l.n++; l.n == l.sweepEvery {
			l.n = 0
			l.engine.Sweep(e.Time)
		}
	}
	l.tm.stop(seq)
	l.ln.leave(layerSink, start, seq)
	return nil
}

// direct judges requests by calling the layers' public functions one
// after the other — EnrichInto, three InspectInto, Apply — with no
// pipeline around them. It is the reference every workload is checked
// against, and on the guard workload the source of the per-layer costs
// the guard hides inside ServeHTTP.
type direct struct {
	enr      enricher
	dets     []detector.Detector
	engine   *mitigate.Engine
	req      detector.Request
	verdicts [numDetectors]detector.Verdict
}

// enricher is what direct needs of detector.Enricher and the guard's
// detector.SharedEnricher.
type enricher interface {
	EnrichInto(req *detector.Request, entry logfmt.Entry)
}

func newDirect(model *trajectory.Model, enr enricher) (*direct, error) {
	d := &direct{enr: enr}
	for i, f := range factories(model) {
		det, err := f()
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", detectorNames[i], err)
		}
		d.dets = append(d.dets, det)
	}
	engine, err := mitigate.New(mitigate.Graduated())
	if err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	d.engine = engine
	return d, nil
}

func (d *direct) step(e *logfmt.Entry, f flow, ln *lane) outcome {
	start := ln.begin()
	d.enr.EnrichInto(&d.req, *e)
	seq := d.req.Seq
	ln.nested(layerEnrich, start, seq)
	for i, det := range d.dets {
		start = ln.begin()
		det.InspectInto(&d.req, &d.verdicts[i])
		ln.nested(layerDetector+layer(i), start, seq)
	}
	a := judge(d.engine, e, f, d.verdicts[:], ln, seq)
	return outcomeOf(d.verdicts[:], a)
}

// digests folds every client's outcome sequence, in stream order, into
// one FNV-1a-style hash per client.
func digests(out []outcome, client []int32, clients int) []uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	d := make([]uint64, clients)
	for i := range d {
		d[i] = offset
	}
	mix := func(h, v uint64) uint64 { return (h ^ v) * prime }
	for i := range out {
		o := &out[i]
		h := &d[client[i]]
		for _, s := range o.score {
			*h = mix(*h, math.Float64bits(s))
		}
		*h = mix(*h, uint64(o.alerts)|uint64(o.action)<<8)
	}
	return d
}

// mismatches counts clients whose digests differ.
func mismatches(got, want []uint64) int {
	if len(got) != len(want) {
		return max(len(got), len(want))
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}
