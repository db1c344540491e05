// Package trace is the decision provenance and pipeline tracing plane:
// per-stage span recording that feeds latency histograms and shard
// ring-occupancy gauges into an internal/metrics registry, plus a sampled
// flight recorder (recorder.go) that captures complete decision records —
// feature snapshot, each detector's verdict and reasons, the ensemble
// outcome and the mitigation rung transition — for the clients that
// matter.
//
// The whole package is built around one contract: a nil *Tracer is the
// disabled plane. Every method has a nil receiver fast path that returns
// immediately, so call sites thread an untested `tr.Lap(...)` straight
// through the hot path and pay one nil check when tracing is off. The
// disabled path performs zero allocations and zero atomic operations;
// the pipeline and httpguard alloc-regression tests pin that.
//
// When enabled, the update side inherits internal/metrics' discipline:
// Lap and the gauge setters are a clock read plus a few atomics — no
// locks, no allocations — so tracing a production guard distorts the
// latencies it is measuring as little as possible. Only a *sampled*
// flight-record capture takes a (leaf) mutex and allocates.
package trace

import (
	"strconv"
	"time"

	"divscrape/internal/metrics"
)

// Stage identifies one pipeline stage in a span. The stages mirror the
// decision path: parse → enrich → detect (per detector) → ensemble →
// sink. Not every deployment exercises every stage (httpguard has no
// parse) — unexercised stages simply record nothing.
type Stage uint8

const (
	// StageParse covers pulling and parsing one record from the source.
	StageParse Stage = iota
	// StageEnrich covers UA parse, IP conversion and reputation lookup.
	StageEnrich
	// StageDetect covers one detector's InspectInto; it is recorded per
	// detector via LapDetector, never via Lap.
	StageDetect
	// StageEnsemble covers adjudication plus the mitigation ladder step.
	StageEnsemble
	// StageSink covers the caller's sink callback for one decision.
	StageSink

	numStages
)

var stageNames = [numStages]string{"parse", "enrich", "detect", "ensemble", "sink"}

// String returns the stage's label value in divscrape_stage_seconds.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage(" + strconv.Itoa(int(s)) + ")"
}

// StageBuckets are the histogram bounds (seconds) for per-stage spans.
// Stages run tens of nanoseconds to tens of microseconds in steady state,
// so the ladder starts at 100ns; the top buckets catch scheduling stalls
// and cold paths.
var StageBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5, 1e-4, 5e-4, 1e-3, 1e-2,
}

// Config configures a Tracer.
type Config struct {
	// Registry receives the tracing instruments. Nil builds a private
	// registry, readable via Tracer.Registry — convenient for benchmarks
	// and tests that only want StageStats.
	Registry *metrics.Registry
	// Detectors names the detectors, in inspection order; LapDetector(i,·)
	// records into the histogram labelled Detectors[i]. Required if
	// LapDetector will be used.
	Detectors []string
	// Shards, when > 0, registers one SPSC ring occupancy gauge per shard
	// (divscrape_shard_ring_depth) for a ShardedRelaxed pipeline. Leave 0
	// for the sequential pipeline and httpguard.
	Shards int
	// Now supplies timestamps for spans and flight records; nil means
	// time.Now. Tests inject deterministic clocks here.
	Now func() time.Time
	// Recorder configures the decision flight recorder; the zero value
	// takes the documented defaults.
	Recorder RecorderConfig
}

// Tracer records per-stage spans and shard occupancy, and owns the
// flight recorder. A nil Tracer is the disabled plane: every method is
// safe to call and does nothing. Construct with New.
type Tracer struct {
	now func() time.Time
	reg *metrics.Registry
	rec *Recorder

	stage       [numStages]*metrics.Histogram // StageDetect slot is nil; see detect
	detect      []*metrics.Histogram
	detectNames []string

	ring []*metrics.Gauge
}

// New builds an enabled Tracer, registering its instruments into
// cfg.Registry (or a private registry when nil). Metric names are fixed:
//
//	divscrape_stage_seconds{stage=...}            per-stage span histograms
//	divscrape_stage_seconds{stage="detect",detector=...}
//	divscrape_shard_ring_depth{shard=...}         relaxed-mode SPSC ring occupancy
//	divscrape_trace_decisions_total               decisions offered to the recorder
//	divscrape_trace_records_total                 flight records captured
//	divscrape_trace_record_drops_total            ring overwrites of unread records
//	divscrape_trace_events_total                  provenance events recorded
func New(cfg Config) *Tracer {
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := &Tracer{now: now, reg: reg, rec: newRecorder(cfg.Recorder)}

	const stageName = "divscrape_stage_seconds"
	const stageHelp = "Per-stage pipeline span latency in seconds."
	for s := Stage(0); s < numStages; s++ {
		if s == StageDetect {
			continue // registered per detector below
		}
		t.stage[s] = reg.MustHistogram(stageName, stageHelp, StageBuckets,
			metrics.Label{Key: "stage", Value: s.String()})
	}
	t.detect = make([]*metrics.Histogram, len(cfg.Detectors))
	t.detectNames = append([]string(nil), cfg.Detectors...)
	for i, name := range cfg.Detectors {
		t.detect[i] = reg.MustHistogram(stageName, stageHelp, StageBuckets,
			metrics.Label{Key: "stage", Value: StageDetect.String()},
			metrics.Label{Key: "detector", Value: name})
	}

	t.ring = make([]*metrics.Gauge, cfg.Shards)
	for i := range t.ring {
		t.ring[i] = reg.MustGauge("divscrape_shard_ring_depth",
			"Requests queued in each shard's SPSC hand-off ring, observed at producer push.",
			metrics.Label{Key: "shard", Value: strconv.Itoa(i)})
	}

	reg.MustCounterFunc("divscrape_trace_decisions_total",
		"Decisions offered to the flight recorder's sampler.", t.rec.seen.Load)
	reg.MustCounterFunc("divscrape_trace_records_total",
		"Flight records captured (head, rate, escalation or client sampling).", t.rec.captured.Load)
	reg.MustCounterFunc("divscrape_trace_record_drops_total",
		"Flight records overwritten in the ring before being read.", t.rec.overwrites.Load)
	reg.MustCounterFunc("divscrape_trace_events_total",
		"Provenance events (quarantine, restore, checkpoint) recorded.", t.rec.eventCount.Load)
	return t
}

// Registry returns the registry the tracer's instruments live in (the
// private one when Config.Registry was nil). Nil receiver returns nil.
func (t *Tracer) Registry() *metrics.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Recorder returns the flight recorder. Nil receiver returns a nil
// *Recorder, which is itself safe to use (every Recorder method no-ops).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// Now returns the tracer's clock reading, or the zero time when disabled.
// Span call sites anchor with ts := tr.Now() and then chain Lap calls.
func (t *Tracer) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.now()
}

// Lap records a span for stage s covering prev → now and returns now, so
// consecutive stages chain: ts = tr.Lap(StageParse, ts). A nil tracer or
// zero prev records nothing. StageDetect must go through LapDetector.
func (t *Tracer) Lap(s Stage, prev time.Time) time.Time {
	if t == nil {
		return prev
	}
	now := t.now()
	if h := t.stage[s]; h != nil && !prev.IsZero() {
		h.Observe(now.Sub(prev).Seconds())
	}
	return now
}

// LapDetector is Lap for the detect stage of detector i (inspection
// order, matching Config.Detectors).
func (t *Tracer) LapDetector(i int, prev time.Time) time.Time {
	if t == nil {
		return prev
	}
	now := t.now()
	if i < len(t.detect) && !prev.IsZero() {
		t.detect[i].Observe(now.Sub(prev).Seconds())
	}
	return now
}

// RingDepth records shard's SPSC ring occupancy, observed by the
// relaxed-mode producer after a push. Out-of-range shards (and tracers
// built without Shards) are ignored.
func (t *Tracer) RingDepth(shard, depth int) {
	if t == nil || shard >= len(t.ring) {
		return
	}
	t.ring[shard].Set(int64(depth))
}

// StageStat is one stage histogram's totals, for benchmark reporting.
type StageStat struct {
	Stage    Stage
	Detector string // non-empty only for StageDetect entries
	Count    uint64
	Sum      float64 // seconds
}

// Name returns the stat's reporting key: the stage name, with the
// detector appended for detect entries ("detect-sentinel").
func (s StageStat) Name() string {
	if s.Detector != "" {
		return s.Stage.String() + "-" + s.Detector
	}
	return s.Stage.String()
}

// Mean returns the mean span in seconds (0 when empty).
func (s StageStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// StageStats snapshots every stage histogram in stage order, detect
// entries in detector order. Nil receiver returns nil.
func (t *Tracer) StageStats() []StageStat {
	if t == nil {
		return nil
	}
	stats := make([]StageStat, 0, int(numStages)+len(t.detect)-1)
	for s := Stage(0); s < numStages; s++ {
		if s == StageDetect {
			for i, h := range t.detect {
				stats = append(stats, StageStat{Stage: s, Detector: t.detectNames[i], Count: h.Count(), Sum: h.Sum()})
			}
			continue
		}
		h := t.stage[s]
		stats = append(stats, StageStat{Stage: s, Count: h.Count(), Sum: h.Sum()})
	}
	return stats
}
