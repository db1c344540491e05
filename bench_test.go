// Benchmarks regenerating every table the paper reports (E1-E4) and every
// extension experiment its Section V plans (E5-E10), plus ablations of
// the detectors' design choices. Each iteration performs the full
// measurement — dataset generation, both detectors, analysis — at the
// deterministic bench scale, and reports the key result figures as
// benchmark metrics so `go test -bench` output doubles as a results
// record.
package divscrape_test

import (
	"context"
	"io"
	"sync"
	"testing"
	"time"

	"divscrape/internal/arcane"
	"divscrape/internal/detector"
	"divscrape/internal/experiments"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/pipeline"
	"divscrape/internal/sentinel"
	"divscrape/internal/statecodec"
	"divscrape/internal/trace"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// executeBench runs the single-pass measurement once per iteration and
// returns the last run for metric reporting.
func executeBench(b *testing.B) *experiments.Run {
	b.Helper()
	var run *experiments.Run
	for i := 0; i < b.N; i++ {
		r, err := experiments.Execute(experiments.BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		run = r
	}
	b.SetBytes(int64(run.Total))
	return run
}

// BenchmarkTable1 regenerates the paper's Table 1: total requests and
// per-tool alert counts.
func BenchmarkTable1(b *testing.B) {
	run := executeBench(b)
	tbl := experiments.Table1(run)
	if tbl.Rows() != 3 {
		b.Fatalf("table 1 rows = %d", tbl.Rows())
	}
	b.ReportMetric(float64(run.Cont.TotalA())/float64(run.Total), "alertshareA")
	b.ReportMetric(float64(run.Cont.TotalB())/float64(run.Total), "alertshareB")
}

// BenchmarkTable2 regenerates the paper's Table 2: the both/neither/only
// contingency.
func BenchmarkTable2(b *testing.B) {
	run := executeBench(b)
	tbl := experiments.Table2(run)
	if tbl.Rows() != 4 {
		b.Fatalf("table 2 rows = %d", tbl.Rows())
	}
	b.ReportMetric(float64(run.Cont.Both)/float64(run.Total), "bothshare")
	b.ReportMetric(float64(run.Cont.AOnly)/float64(run.Total), "aonlyshare")
	b.ReportMetric(float64(run.Cont.BOnly)/float64(run.Total), "bonlyshare")
}

// BenchmarkTable3 regenerates the paper's Table 3: alerted requests by
// HTTP status, overall.
func BenchmarkTable3(b *testing.B) {
	run := executeBench(b)
	tbl := experiments.Table3(run)
	if tbl.Rows() == 0 {
		b.Fatal("table 3 empty")
	}
	b.ReportMetric(float64(tbl.Rows()), "statusrows")
}

// BenchmarkTable4 regenerates the paper's Table 4: per-status counts of
// single-tool alerts.
func BenchmarkTable4(b *testing.B) {
	run := executeBench(b)
	tbl := experiments.Table4(run)
	b.ReportMetric(float64(tbl.Rows()), "statusrows")
}

// BenchmarkLabelledEval regenerates E5: the sensitivity/specificity
// analysis the paper names as its next step.
func BenchmarkLabelledEval(b *testing.B) {
	run := executeBench(b)
	if experiments.Table5(run).Rows() == 0 {
		b.Fatal("table 5 empty")
	}
	b.ReportMetric(run.ConfA.Sensitivity(), "sensA")
	b.ReportMetric(run.ConfB.Sensitivity(), "sensB")
	b.ReportMetric(run.ConfA.Specificity(), "specA")
	b.ReportMetric(run.ConfB.Specificity(), "specB")
}

// BenchmarkAdjudication regenerates E6: 1-out-of-2 vs 2-out-of-2 vs
// weighted fusion.
func BenchmarkAdjudication(b *testing.B) {
	run := executeBench(b)
	if experiments.Table6(run).Rows() == 0 {
		b.Fatal("table 6 empty")
	}
	b.ReportMetric(run.Conf1oo2.Sensitivity(), "sens1oo2")
	b.ReportMetric(run.Conf2oo2.Sensitivity(), "sens2oo2")
	b.ReportMetric(run.Conf1oo2.Specificity(), "spec1oo2")
	b.ReportMetric(run.Conf2oo2.Specificity(), "spec2oo2")
}

// BenchmarkTopologies regenerates E7: parallel vs serial deployments with
// inspection-cost accounting (six full passes per iteration).
func BenchmarkTopologies(b *testing.B) {
	var results []experiments.TopologyResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExecuteTopologies(experiments.BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		results = r
	}
	if experiments.Table7(results).Rows() != 6 {
		b.Fatal("table 7 incomplete")
	}
	for _, r := range results {
		if r.Name == "serial sentinel→arcane OR" {
			b.ReportMetric(float64(r.Costs[1].Inspected)/float64(r.Costs[0].Inspected), "or2ndload")
		}
	}
}

// BenchmarkDisagreement regenerates E8: the per-archetype breakdown of
// single-tool alerts.
func BenchmarkDisagreement(b *testing.B) {
	run := executeBench(b)
	tbl := experiments.Table8(run)
	if tbl.Rows() == 0 {
		b.Fatal("table 8 empty")
	}
	b.ReportMetric(float64(tbl.Rows()), "archetypes")
}

// BenchmarkDiversityMeasures regenerates E9: Yule's Q, disagreement and
// double-fault over alerting and correctness agreement.
func BenchmarkDiversityMeasures(b *testing.B) {
	run := executeBench(b)
	if experiments.Table9(run).Rows() != 5 {
		b.Fatal("table 9 incomplete")
	}
}

// BenchmarkROC regenerates E10: the threshold sweeps over both detectors'
// scores.
func BenchmarkROC(b *testing.B) {
	run := executeBench(b)
	if experiments.Table10(run).Rows() == 0 {
		b.Fatal("table 10 empty")
	}
	b.ReportMetric(run.ROCA.AUC(), "aucA")
	b.ReportMetric(run.ROCB.AUC(), "aucB")
}

// Ablations: re-run the measurement with one design element removed, so
// the contribution of each mechanism is visible in the metrics.

// BenchmarkAblationNoReputation removes the commercial detector's
// reputation feed influence by treating every address as unknown — the
// "what does the blocklist buy" question.
func BenchmarkAblationNoReputation(b *testing.B) {
	// Raising the reputation weight to ~zero is not expressible through
	// Config; instead withhold the feed by running the pair without
	// enrichment. ExecuteOpts keeps the feed, so emulate by raising the
	// alert threshold contribution: compare against a sentinel whose
	// rate/challenge/signature must carry every conviction.
	var run *experiments.Run
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExecuteOpts(experiments.BenchScale, experiments.Options{
			Sentinel: sentinel.Config{AlertThreshold: 0.19}, // reputation-only convictions fall below
		})
		if err != nil {
			b.Fatal(err)
		}
		run = r
	}
	b.SetBytes(int64(run.Total))
	b.ReportMetric(run.ConfA.Sensitivity(), "sensA")
}

// BenchmarkAblationArcaneWarmup sweeps the behavioural detector's warm-up
// length: shorter warm-up shrinks the commercial-only window on scraper
// session starts but risks noise.
func BenchmarkAblationArcaneWarmup(b *testing.B) {
	for _, warmup := range []int{3, 6, 12, 24} {
		b.Run(benchName("warmup", warmup), func(b *testing.B) {
			var run *experiments.Run
			for i := 0; i < b.N; i++ {
				r, err := experiments.ExecuteOpts(experiments.BenchScale, experiments.Options{
					Arcane: arcane.Config{WarmupRequests: warmup},
				})
				if err != nil {
					b.Fatal(err)
				}
				run = r
			}
			b.SetBytes(int64(run.Total))
			b.ReportMetric(run.ConfB.Sensitivity(), "sensB")
			b.ReportMetric(run.ConfB.Specificity(), "specB")
		})
	}
}

// BenchmarkAblationThresholds sweeps both alert thresholds jointly,
// tracing the 1oo2 operating curve the ROC experiment summarises.
func BenchmarkAblationThresholds(b *testing.B) {
	for _, mult := range []int{50, 100, 200} {
		b.Run(benchName("pct", mult), func(b *testing.B) {
			senT := 0.18 * float64(mult) / 100
			arcT := 0.30 * float64(mult) / 100
			var run *experiments.Run
			for i := 0; i < b.N; i++ {
				r, err := experiments.ExecuteOpts(experiments.BenchScale, experiments.Options{
					Sentinel: sentinel.Config{AlertThreshold: senT},
					Arcane:   arcane.Config{AlertThreshold: arcT},
				})
				if err != nil {
					b.Fatal(err)
				}
				run = r
			}
			b.SetBytes(int64(run.Total))
			b.ReportMetric(run.Conf1oo2.Sensitivity(), "sens1oo2")
			b.ReportMetric(run.Conf1oo2.Specificity(), "spec1oo2")
		})
	}
}

func benchName(prefix string, n int) string {
	const digits = "0123456789"
	if n == 0 {
		return prefix + "=0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = digits[n%10]
		n /= 10
	}
	return prefix + "=" + string(buf[i:])
}

// Pipeline throughput benchmarks: the same pre-generated event stream
// replayed through each execution mode. Requests/sec is reported as a
// metric so mode comparisons read directly off the bench output;
// allocs/op shows the pooled/flat-vector hot path at work. Relaxed's
// advantage over Sequential scales with GOMAXPROCS (≈none on one core, as
// the modes do identical per-request work).

var benchEvents struct {
	once   sync.Once
	events []workload.Event
	// logBytes is the Combined-Log-Format size of the stream — what
	// SetBytes must report so the benchmark's MB/s column means "access
	// log bytes per second", the unit a log pipeline is sized in. (It
	// used to pass the event count, which printed requests-per-second
	// mislabelled as MB/s.)
	logBytes int64
}

func pipelineBenchEvents(b *testing.B) []workload.Event {
	b.Helper()
	benchEvents.once.Do(func() {
		gen, err := workload.NewGenerator(workload.Config{
			Seed:     experiments.BenchScale.Seed,
			Duration: experiments.BenchScale.Duration,
		})
		if err != nil {
			b.Fatal(err)
		}
		benchEvents.events, err = gen.Generate()
		if err != nil {
			b.Fatal(err)
		}
		var line []byte
		for i := range benchEvents.events {
			line = logfmt.AppendCombined(line[:0], &benchEvents.events[i].Entry)
			benchEvents.logBytes += int64(len(line)) + 1 // newline
		}
	})
	if len(benchEvents.events) == 0 {
		b.Fatal("no bench events")
	}
	return benchEvents.events
}

func benchmarkPipelineMode(b *testing.B, mode pipeline.Mode, shards int) {
	events := pipelineBenchEvents(b)
	pipe, err := pipeline.New(pipeline.Config{
		Factories: []detector.Factory{
			func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) },
			func() (detector.Detector, error) { return arcane.New(arcane.Config{}) },
		},
		Reputation: iprep.BuildFeed(),
		Mode:       mode,
		Shards:     shards,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	started := time.Now()
	for i := 0; i < b.N; i++ {
		pipe.ResetDetectors()
		j := 0
		src := func() (logfmt.Entry, error) {
			if j >= len(events) {
				return logfmt.Entry{}, io.EOF
			}
			e := events[j].Entry
			j++
			return e, nil
		}
		var err error
		if mode == pipeline.ShardedRelaxed {
			// Independent per-shard sinks — the mode's whole point is that
			// no merge (and no shared sink lock) stands between a shard
			// and its output.
			sinks := make([]pipeline.Sink, pipe.Shards())
			for s := range sinks {
				sinks[s] = func(pipeline.Decision) error { return nil }
			}
			err = pipe.RunRelaxed(context.Background(), src, sinks)
		} else {
			err = pipe.Run(context.Background(), src, func(pipeline.Decision) error { return nil })
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(started)
	b.SetBytes(benchEvents.logBytes)
	if elapsed > 0 {
		b.ReportMetric(float64(len(events)*b.N)/elapsed.Seconds(), "req/s")
	}
	if mode == pipeline.ShardedRelaxed {
		// Report the worker count the pipeline actually ran with (the
		// configured count after defaulting), not GOMAXPROCS: recorded
		// results must say what executed, whatever machine ran them.
		b.ReportMetric(float64(pipe.Shards()), "shards")
	}
}

func BenchmarkPipelineSequential(b *testing.B) { benchmarkPipelineMode(b, pipeline.Sequential, 0) }
func BenchmarkPipelineRelaxed(b *testing.B)    { benchmarkPipelineMode(b, pipeline.ShardedRelaxed, 0) }

// BenchmarkPipelineRelaxedMulti records the relaxed mode's shard scaling
// curve. On a multi-core host the curve should rise toward GOMAXPROCS;
// on a single-core host it is flat (all modes do identical per-request
// work and there is no second core to win), which is itself the honest
// measurement — the structural claims (per-client identity, multiset
// equality) are pinned by the pipeline's relaxed test suite, not by this
// number.
func BenchmarkPipelineRelaxedMulti(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8, 16} {
		b.Run(benchName("shards", shards), func(b *testing.B) {
			benchmarkPipelineMode(b, pipeline.ShardedRelaxed, shards)
		})
	}
}

// BenchmarkPipelineStages replays the stream through the ShardedRelaxed
// pipeline with the tracing plane armed (spans on, flight-record capture
// off) and reports each stage's mean span in nanoseconds: parse and
// enrich on the producer, each detector and the sink on the shard
// workers.
func BenchmarkPipelineStages(b *testing.B) {
	events := pipelineBenchEvents(b)
	const shards = 4
	tracer := trace.New(trace.Config{
		Detectors: []string{"sentinel", "arcane"},
		Shards:    shards,
		Recorder:  trace.RecorderConfig{Head: -1, Rate: -1},
	})
	pipe, err := pipeline.New(pipeline.Config{
		Factories: []detector.Factory{
			func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) },
			func() (detector.Detector, error) { return arcane.New(arcane.Config{}) },
		},
		Reputation: iprep.BuildFeed(),
		Mode:       pipeline.ShardedRelaxed,
		Shards:     shards,
		Trace:      tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	started := time.Now()
	for i := 0; i < b.N; i++ {
		pipe.ResetDetectors()
		j := 0
		src := func() (logfmt.Entry, error) {
			if j >= len(events) {
				return logfmt.Entry{}, io.EOF
			}
			e := events[j].Entry
			j++
			return e, nil
		}
		if err := pipe.Run(context.Background(), src, func(pipeline.Decision) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(started)
	b.SetBytes(benchEvents.logBytes)
	if elapsed > 0 {
		b.ReportMetric(float64(len(events)*b.N)/elapsed.Seconds(), "req/s")
	}
	for _, st := range tracer.StageStats() {
		if st.Count == 0 {
			continue
		}
		b.ReportMetric(st.Mean()*1e9, st.Name()+"-ns")
	}
}

// BenchmarkSnapshotRestore measures the durable state plane: one
// iteration checkpoints a traffic-warmed ShardedRelaxed pipeline's full
// detection state (every per-client session across both detectors) and
// restores it into a second, differently sharded pipeline — the
// process-restart path. The snapshot size rides along as a metric, so
// the record tracks state-plane bloat as well as latency.
func BenchmarkSnapshotRestore(b *testing.B) {
	events := pipelineBenchEvents(b)
	build := func(shards int) *pipeline.Pipeline {
		p, err := pipeline.New(pipeline.Config{
			Factories: []detector.Factory{
				func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) },
				func() (detector.Detector, error) { return arcane.New(arcane.Config{}) },
			},
			Reputation: iprep.BuildFeed(),
			Mode:       pipeline.ShardedRelaxed,
			Shards:     shards,
		})
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	src := build(4)
	j := 0
	err := src.Run(context.Background(), func() (logfmt.Entry, error) {
		if j >= len(events) {
			return logfmt.Entry{}, io.EOF
		}
		e := events[j].Entry
		j++
		return e, nil
	}, func(pipeline.Decision) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	dst := build(8)

	w := statecodec.NewWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		if err := src.Checkpoint(w); err != nil {
			b.Fatal(err)
		}
		if err := dst.ResumeFrom(statecodec.NewReader(w.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.Len()), "snapshot-bytes")
}

// BenchmarkDetectorInspect isolates each detector's per-event judge cost
// on the shared bench stream (enrichment done up front, outside the
// timed loop) — the ns/op each side contributes to the ensemble's
// latency budget, and the alloc gate for the zero-alloc inspect paths.
func BenchmarkDetectorInspect(b *testing.B) {
	events := pipelineBenchEvents(b)
	enr := detector.NewEnricher(iprep.BuildFeed())
	reqs := make([]detector.Request, len(events))
	for i := range events {
		enr.EnrichInto(&reqs[i], events[i].Entry)
	}
	factories := []struct {
		name  string
		build detector.Factory
	}{
		{"sentinel", func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) }},
		{"arcane", func() (detector.Detector, error) { return arcane.New(arcane.Config{}) }},
		{"trajectory", func() (detector.Detector, error) { return trajectory.New(trajectory.Config{}) }},
	}
	for _, f := range factories {
		b.Run(f.name, func(b *testing.B) {
			d, err := f.build()
			if err != nil {
				b.Fatal(err)
			}
			var v detector.Verdict
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.InspectInto(&reqs[i%len(reqs)], &v)
			}
		})
	}
}

// BenchmarkTrajectory13 regenerates E13: the pair extended with the
// semantic trajectory detector — training on a held-out seed, three-way
// voting and the pairwise diversity panel, every iteration.
func BenchmarkTrajectory13(b *testing.B) {
	var run *experiments.TrajectoryRun
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExecuteTrajectory(experiments.BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		run = r
	}
	b.SetBytes(int64(run.Total))
	b.ReportMetric(run.Singles[2].Sensitivity(), "sensTraj")
	b.ReportMetric(run.Votes[1].Sensitivity(), "sens2oo3")
	b.ReportMetric(run.Votes[1].Specificity(), "spec2oo3")
}

// BenchmarkThreeWay regenerates E11: the two-tool study extended with a
// learned Naive Bayes third detector and r-out-of-3 voting. Each
// iteration includes model training on an independent seed.
func BenchmarkThreeWay(b *testing.B) {
	var run *experiments.ThreeWayRun
	for i := 0; i < b.N; i++ {
		r, err := experiments.ExecuteThreeWay(experiments.BenchScale)
		if err != nil {
			b.Fatal(err)
		}
		run = r
	}
	b.SetBytes(int64(run.Total))
	b.ReportMetric(run.Votes[1].Sensitivity(), "sens2oo3")
	b.ReportMetric(run.Votes[1].Specificity(), "spec2oo3")
}
