package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/trajectory"
)

// perLayerMetrics names every per-layer metric with its unit, in the
// order they are printed. Layers a workload does not run report 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"logfmt.parse_ns", "ns"},
	{"logfmt.lines", "count"},
	{"logfmt.skipped", "count"},
	{"detector.enrich_ns", "ns"},
	{"sentinel.inspect_ns", "ns"},
	{"arcane.inspect_ns", "ns"},
	{"trajectory.inspect_ns", "ns"},
	{"sentinel.alerts", "count"},
	{"arcane.alerts", "count"},
	{"trajectory.alerts", "count"},
	{"pipeline.sink_ns", "ns"},
	{"mitigate.apply_ns", "ns"},
	{"mitigate.clients", "count"},
	{"mitigate.allow", "count"},
	{"mitigate.tarpit", "count"},
	{"mitigate.challenge", "count"},
	{"mitigate.block", "count"},
	{"mitigate.leak_frac", "frac"},
	{"mitigate.collateral_frac", "frac"},
	{"pipeline.producer_src_frac", "frac"},
	{"pipeline.producer_other_ns", "ns"},
	{"pipeline.shard_busy_frac", "frac"},
	{"pipeline.shard_busy_frac_max", "frac"},
	{"pipeline.shard_skew", "ratio"},
	{"pipeline.evict_sweeps", "count"},
	{"pipeline.evicted", "count"},
	{"statecodec.checkpoint_ms", "ms"},
	{"statecodec.restore_ms", "ms"},
	{"statecodec.snapshot_bytes", "bytes"},
	{"httpguard.decide_ns", "ns"},
	{"httpguard.respond_ns", "ns"},
	{"gc.cycles", "1/Mreq"},
	{"gc.pause_ms", "ms/Mreq"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// traced runs the traced window and derives the per-layer metrics. plain
// is the untraced window of the same invocation, against which tracing
// overhead and unattributed time are measured.
func traced(cfg config, in *input, refDigests []uint64, out []outcome, tm *timing, plain window, clock float64, w io.Writer) ([]metric, window, error) {
	def := cfg.def
	tr := newTracer(lanesFor(def))
	r, err := setup(def, in, out, tm, tr)
	if err != nil {
		return nil, window{}, err
	}
	if _, err := measure(r, in, refDigests, out, tm, 0, tr); err != nil {
		return nil, window{}, err
	}
	tr.clear()
	tw, err := measure(r, in, refDigests, out, tm, cfg.window/2, tr)
	if err != nil {
		return nil, window{}, err
	}
	v := make(map[string]float64, len(perLayerMetrics))
	n := float64(tw.requests)
	perCall := func(busy, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return max(0, float64(busy)/float64(calls)-clock)
	}
	// net is a span total with the clock reads inside it taken out.
	net := func(busy, calls int64) float64 { return float64(busy) - clock*float64(calls) }
	untraced := float64(plain.m.wall.Nanoseconds()) / float64(plain.requests)
	busy, gap, calls := tr.sum()

	var covered float64 // ns of the critical goroutine covered by spans
	gaps := map[string]float64{}
	switch {
	case def.replay == nil:
		v["httpguard.decide_ns"] = perCall(busy[layerDecide], calls[layerDecide])
		v["httpguard.respond_ns"] = perCall(busy[layerRespond], calls[layerRespond])
		covered = net(busy[layerDecide], calls[layerDecide]) + net(busy[layerRespond], calls[layerRespond])
		gaps["between ServeHTTP calls (harness loop)"] = net(gap[layerDecide], calls[layerDecide])
	case def.replay.mode == pipeline.ShardedRelaxed:
		prod := tr.lanes[0]
		src, other, nsrc := prod.busy[layerSource], prod.gap[layerSource], prod.calls[layerSource]
		v["pipeline.producer_src_frac"] = float64(src) / float64(src+other)
		v["pipeline.producer_other_ns"] = perCall(other, nsrc)
		covered = net(src, nsrc) + net(other, nsrc)
		var fracs, reqs []float64
		wall := float64(tw.m.wall.Nanoseconds())
		for _, l := range tr.lanes[1:] {
			b := l.busy[layerSink] + l.gap[layerSink]
			for i := 0; i < numDetectors; i++ {
				b += l.busy[layerDetector+layer(i)]
				if i > 0 {
					b += l.gap[layerDetector+layer(i)]
				}
			}
			fracs = append(fracs, float64(b)/wall)
			reqs = append(reqs, float64(l.calls[layerSink]))
		}
		v["pipeline.shard_busy_frac"] = mean(fracs)
		v["pipeline.shard_busy_frac_max"] = maxOf(fracs)
		v["pipeline.shard_skew"] = maxOf(reqs) / mean(reqs)
	default:
		v["detector.enrich_ns"] = perCall(gap[layerDetector], calls[layerDetector])
		covered = net(gap[layerDetector], calls[layerDetector])
		for _, k := range []layer{layerSource, layerDetector, layerDetector + 1, layerDetector + 2, layerSink, layerCheckpoint, layerRestore} {
			covered += net(busy[k], calls[k])
		}
		gaps["between detectors"] = net(gap[layerDetector+1], calls[layerDetector+1]) + net(gap[layerDetector+2], calls[layerDetector+2])
		gaps["last detector to sink"] = net(gap[layerSink], calls[layerSink])
		gaps["sink to next source (eviction check, Run loop)"] = net(gap[layerSource], calls[layerSource])
		gaps["Run end to checkpoint to resume"] = net(gap[layerCheckpoint], calls[layerCheckpoint]) + net(gap[layerRestore], calls[layerRestore])
	}
	if def.replay != nil {
		v["logfmt.parse_ns"] = perCall(busy[layerSource], calls[layerSource])
		v["logfmt.lines"] = float64(tw.last.lines)
		v["logfmt.skipped"] = float64(tw.last.skipped)
		v["pipeline.sink_ns"] = perCall(busy[layerSink], calls[layerSink])
		v["pipeline.evict_sweeps"] = float64(tw.last.sweeps)
		v["pipeline.evicted"] = float64(tw.last.evicted)
		for i := 0; i < numDetectors; i++ {
			k := layerDetector + layer(i)
			v[detectorNames[i]+".inspect_ns"] = perCall(busy[k], calls[k])
		}
		v["mitigate.apply_ns"] = perCall(busy[layerApply], calls[layerApply])
		if c := calls[layerCheckpoint]; c > 0 {
			v["statecodec.checkpoint_ms"] = float64(busy[layerCheckpoint]) / float64(c) / 1e6
			v["statecodec.restore_ms"] = float64(busy[layerRestore]) / float64(calls[layerRestore]) / 1e6
			v["statecodec.snapshot_bytes"] = float64(tw.last.snapshotBytes) / float64(tw.last.checkpoints)
		}
	}
	// Layers the program hides from outside are timed on a direct-call
	// pass over the same input: enrich on the relaxed producer, and
	// enrich, the detectors and the ladder inside the guard.
	if def.replay == nil || def.replay.mode == pipeline.ShardedRelaxed {
		dl, err := directLayers(def, in)
		if err != nil {
			return nil, window{}, err
		}
		v["detector.enrich_ns"] = perCall(dl.busy[layerEnrich], dl.calls[layerEnrich])
		if def.replay == nil {
			for i := 0; i < numDetectors; i++ {
				k := layerDetector + layer(i)
				v[detectorNames[i]+".inspect_ns"] = perCall(dl.busy[k], dl.calls[k])
			}
			v["mitigate.apply_ns"] = perCall(dl.busy[layerApply], dl.calls[layerApply])
		}
	}
	var actions [4]int
	for _, o := range out {
		for i := 0; i < numDetectors; i++ {
			if o.alerts&(1<<i) != 0 {
				v[detectorNames[i]+".alerts"]++
			}
		}
		actions[o.action]++
	}
	for a := mitigate.Allow; a <= mitigate.Block; a++ {
		v["mitigate."+a.String()] = float64(actions[a])
	}
	v["mitigate.clients"] = float64(tw.last.clients)
	v["mitigate.leak_frac"], v["mitigate.collateral_frac"] = quality(in, out)
	mreq := float64(plain.requests) / 1e6
	v["gc.cycles"] = float64(plain.gcCycles) / mreq
	v["gc.pause_ms"] = float64(plain.gcPauseNs) / 1e6 / mreq
	v["trace.clock_ns"] = clock
	tracedPerReq := float64(tw.m.wall.Nanoseconds()) / n
	v["trace.overhead_frac"] = (tracedPerReq - untraced) / untraced
	unattributed := (untraced - covered/n) / untraced
	v["trace.unattributed_frac"] = unattributed

	worst, worstNs := "none", 0.0
	for name, g := range gaps {
		if g/n > worstNs {
			worst, worstNs = name, g/n
		}
	}
	fmt.Fprintf(w, "traced passes=%d requests=%d untraced=%.1f ns/req traced=%.1f ns/req spans cover %.1f ns/req\n",
		tw.passes, tw.requests, untraced, tracedPerReq, covered/n)
	fmt.Fprintf(w, "reconcile unattributed=%.2f%% (within 10%%: %v); largest uncovered gap %q = %.1f ns/req\n",
		100*unattributed, unattributed < 0.1 && unattributed > -0.1, worst, worstNs)
	nspans, err := writeSpans(cfg.spans, tr.lanes)
	if err != nil {
		return nil, window{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(w, "spans %d written to %s\n", nspans, cfg.spans)

	metrics := make([]metric, 0, len(perLayerMetrics))
	for _, m := range perLayerMetrics {
		metrics = append(metrics, metric{m.name, v[m.name], m.unit})
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, v[m.name], m.unit)
	}
	return metrics, tw, nil
}

// directLayers times the direct-call path over def's input: the guard's
// request views through detector.SharedEnricher (the guard's enricher),
// or the replayed log through detector.Enricher.
func directLayers(def workloadDef, in *input) (*lane, error) {
	model, err := trajectory.DefaultModel()
	if err != nil {
		return nil, err
	}
	ln := newLane()
	ln.pass = -1
	if def.replay == nil {
		d, err := newDirect(model, detector.NewSharedEnricher(iprep.BuildFeed()))
		if err != nil {
			return nil, err
		}
		var slot reqSlot
		slot.init()
		for i := range in.views {
			view := &in.views[i]
			slot.fill(view, in.remote[in.client[i]], in.auth[view.AuthUser])
			d.step(view, guardFlow(&slot.req), ln)
		}
		return ln, nil
	}
	d, err := newDirect(model, detector.NewEnricher(iprep.BuildFeed()))
	if err != nil {
		return nil, err
	}
	rd := logfmt.NewReader(bytes.NewReader(in.clf), logfmt.ReaderConfig{Policy: logfmt.Skip})
	for {
		e, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return ln, nil
		}
		if err != nil {
			return nil, err
		}
		d.step(&e, replayFlow(&e), ln)
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-th percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
