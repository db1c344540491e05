// Command scrapedetect replays an Apache access log (Combined Log Format)
// through both detectors and reports alert totals and the diversity
// contingency table; with a label sidecar it also reports per-tool
// sensitivity and specificity. With -follow it runs as a live service
// instead, tailing an actively written (and rotated) log with bounded
// memory.
//
// Usage:
//
//	scrapedetect -log access.log [-detectors sentinel,arcane,trajectory] [-labels labels.csv] [-parallel N] [-mode seq|relaxed] [-parse-workers N] [-out verdicts.csv] [-mitigate observe|tag|block|graduated] [-save-state f] [-load-state f] [-cpuprofile cpu.out] [-memprofile mem.out]
//	scrapedetect -follow -log access.log [-metrics-addr :9090] [-window 2h] [-checkpoint state.bin -checkpoint-every 100000] [-mitigate graduated]
//
// -detectors picks which detectors judge the stream (default the paper's
// pair, sentinel and arcane; add trajectory for the semantic navigation
// channel). Every downstream surface — the diversity table, labelled
// metrics, verdict CSV, live alert counters, mitigation quorum and trace
// records — follows the selected set.
//
// By default the log is partitioned by client IP across GOMAXPROCS worker
// shards (-parallel N>1 selects -mode relaxed); pass -parallel 0 (or 1)
// or -mode seq for the single-threaded reference pipeline. Every shard
// judges its clients in their own order and keeps its own tallies and
// -mitigate ladder engine, so every request gets the identical verdict
// and enforcement decision in both modes: the summary tables and the
// -save-state file are byte-identical. Only the cross-client
// interleaving differs, so the outputs that record one total decision
// order (-out, -trace-out, -explain) require -mode seq.
// -parse-workers additionally fans the replay's log parsing across
// goroutines (chunked on newline boundaries, order preserved) — useful
// on multi-core hosts where ingest, not detection, is the wall.
//
// -mitigate replays the decision stream through a response engine and
// reports what each policy *would have done* to the recorded traffic — a
// what-if: the logged clients never saw the enforcement, so they do not
// react to it.
//
// -save-state checkpoints every per-client detection history (and the
// -mitigate engines' ladder state) after the replay; -load-state restores
// one before it. Splitting a log at any line and replaying the halves in
// two processes with a checkpoint between them produces verdict streams
// identical to one uninterrupted run — rotated daily logs can be analysed
// day by day without losing multi-day session memory. The state file is
// topology-independent: it can be saved from a sequential run and loaded
// into a sharded one at any shard count, or vice versa.
//
// # Live operation
//
// -follow turns the replay into a long-running service: the log is
// tailed through rotation and truncation, ingestion is backpressure-aware
// (the pipeline pulls, the file buffers), and the pipeline defaults to
// sequential — a live tail is bound by the log's write rate, not by
// detection throughput (pass -parallel N explicitly to opt in to
// relaxed). Windowed eviction (-window, default two hours) bounds every
// stateful layer — detector session stores, and the -mitigate engines
// via per-shard event-time sweepers — so steady-state memory is
// O(clients active in the window) over days of uptime. -metrics-addr serves /debug/divscrape/metrics (Prometheus
// text; ?format=json for JSON) and /debug/divscrape/state.
// -checkpoint/-checkpoint-every persist the full detection state
// periodically through the durable state plane, so a restarted follower
// resumes with its session memory intact (-load-state the checkpoint).
// A checkpoint ends the current pipeline run at a segment boundary, so
// every shard has drained before the state is written, and the same
// source then continues.
// SIGINT/SIGTERM stop the tail, drain buffered lines, write a final
// checkpoint and print the summary tables.
//
// # Tracing and provenance
//
// -trace records per-stage latency histograms (parse, enrich, per-detector
// detect, ensemble, sink — plus per-shard ring occupancy in relaxed
// mode) into the metrics registry and samples decisions into a bounded
// flight recorder served at /debug/divscrape/trace and
// /debug/divscrape/explain. -trace-out writes every captured record as
// JSON lines to a file (an audit stream); -explain CLIENT always captures
// one client and prints its provenance timeline — per-detector verdicts,
// feature vectors, mitigation rung transitions — after the replay. Both
// imply -trace and require the sequential pipeline, where records arrive
// in one order and feature snapshots are coherent with the sink. -pprof additionally serves
// net/http/pprof under /debug/pprof/ on -metrics-addr;
// -block-profile-rate and -mutex-profile-fraction arm the corresponding
// runtime profiles for it.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"divscrape/internal/alertlog"
	"divscrape/internal/arcane"
	"divscrape/internal/checkpoint"
	"divscrape/internal/detector"
	"divscrape/internal/evaluate"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/metrics"
	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/report"
	"divscrape/internal/sentinel"
	"divscrape/internal/sitemodel"
	"divscrape/internal/statecodec"
	"divscrape/internal/stream"
	"divscrape/internal/trace"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// buildDetectors resolves the -detectors list into live detectors plus
// the factories the relaxed pipeline clones per-shard state from. The
// trajectory factory hands every shard the same trained model — the
// model is immutable after training, so sharing it is what keeps shard
// verdicts identical to the sequential run's.
func buildDetectors(names []string) ([]detector.Detector, []detector.Factory, error) {
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("-detectors must name at least one detector")
	}
	dets := make([]detector.Detector, 0, len(names))
	facts := make([]detector.Factory, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			return nil, nil, fmt.Errorf("duplicate detector %q in -detectors", name)
		}
		seen[name] = true
		var f detector.Factory
		switch name {
		case "sentinel":
			f = func() (detector.Detector, error) { return sentinel.New(sentinel.Config{}) }
		case "arcane":
			f = func() (detector.Detector, error) { return arcane.New(arcane.Config{}) }
		case "trajectory":
			f = func() (detector.Detector, error) {
				model, err := trajectory.DefaultModel()
				if err != nil {
					return nil, err
				}
				return trajectory.New(trajectory.Config{Model: model})
			}
		default:
			return nil, nil, fmt.Errorf("unknown detector %q (want sentinel, arcane or trajectory)", name)
		}
		d, err := f()
		if err != nil {
			return nil, nil, err
		}
		dets = append(dets, d)
		facts = append(facts, f)
	}
	return dets, facts, nil
}

// splitDetectorNames parses the -detectors flag value.
func splitDetectorNames(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// alertAgreement generalises the pair contingency table to N detectors:
// how often all alert, none alert, and exactly one alerts (per
// detector). For two detectors the four cells are exactly the paper's
// Table 2 — Both, Neither, A-only, B-only.
type alertAgreement struct {
	all, none uint64
	only      []uint64
}

func newAlertAgreement(n int) *alertAgreement {
	return &alertAgreement{only: make([]uint64, n)}
}

// add records one decision and returns the alert vote count.
func (a *alertAgreement) add(verdicts []detector.Verdict) int {
	votes, last := 0, -1
	for i := range verdicts {
		if verdicts[i].Alert {
			votes++
			last = i
		}
	}
	switch {
	case votes == 0:
		a.none++
	case votes == len(verdicts):
		a.all++
	}
	if votes == 1 {
		a.only[last]++
	}
	return votes
}

// merge folds another agreement table (same detector set) into a.
func (a *alertAgreement) merge(o *alertAgreement) {
	a.all += o.all
	a.none += o.none
	for i := range o.only {
		a.only[i] += o.only[i]
	}
}

// modeNameOf names a pipeline mode for the summary header.
func modeNameOf(m pipeline.Mode) string {
	if m == pipeline.ShardedRelaxed {
		return "relaxed"
	}
	return "seq"
}

// mitigationPolicy resolves the -mitigate flag.
func mitigationPolicy(name string) (mitigate.Policy, error) {
	switch name {
	case "observe":
		return mitigate.Observe(), nil
	case "tag":
		return mitigate.Tag(), nil
	case "block":
		return mitigate.StaticBlock(false), nil
	case "graduated":
		return mitigate.Graduated(), nil
	default:
		return mitigate.Policy{}, fmt.Errorf("invalid -mitigate %q (want observe, tag, block or graduated)", name)
	}
}

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scrapedetect:", err)
		os.Exit(1)
	}
}

// saveStateTo checkpoints the pipeline (and the -mitigate engines, when
// present) through a crash-safe saver: the versioned, checksummed frame
// is written to a temp file, fsynced and atomically renamed over the
// newest generation, with the previous generations rotated down a slot
// and transient write failures retried with backoff — a crash or a full
// disk at any instant leaves every earlier generation intact. Both
// halves are written in canonical merged form, so the bytes do not
// depend on the mode or shard count.
func saveStateTo(s *checkpoint.Saver, pipe *pipeline.Pipeline, engines *engineBackend) error {
	w := statecodec.NewWriter()
	if err := pipe.Checkpoint(w); err != nil {
		return fmt.Errorf("save state: %w", err)
	}
	w.Bool(engines != nil)
	if engines != nil {
		engines.snapshotInto(w)
	}
	return s.Save(w)
}

// loadStateFile restores a checkpoint, falling back generation by
// generation past damaged snapshots (a torn newest file after a crash
// restores from the previous generation instead of failing the boot).
// The pipeline must be configured like the saving run's (the shard
// count may differ), and the presence of -mitigate must match — an
// engine's ladder state cannot be silently dropped or invented; that
// mismatch aborts the walk rather than falling back, because an older
// generation would mismatch identically.
func loadStateFile(path string, pipe *pipeline.Pipeline, engines *engineBackend) error {
	restore := func(r *statecodec.Reader) error {
		if err := pipe.ResumeFrom(r); err != nil {
			return err
		}
		hasEngine := r.Bool()
		if err := r.Err(); err != nil {
			return err
		}
		switch {
		case hasEngine && engines == nil:
			return fmt.Errorf("file carries mitigation state; pass the same -mitigate policy it was saved with")
		case !hasEngine && engines != nil:
			return fmt.Errorf("file carries no mitigation state; drop -mitigate or re-save with it")
		case hasEngine:
			return engines.restoreFrom(r)
		}
		return nil
	}
	gen, err := checkpoint.Load(path, restore)
	if err != nil {
		return fmt.Errorf("load state: %w", err)
	}
	if gen > 0 {
		fmt.Fprintf(os.Stderr, "scrapedetect: newest checkpoint generation damaged; restored generation %d of %s\n", gen, path)
	}
	return nil
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scrapedetect", flag.ContinueOnError)
	logPath := fs.String("log", "access.log", "access log to analyse")
	detectorsFlag := fs.String("detectors", "sentinel,arcane", "comma-separated detectors to run: sentinel, arcane, trajectory")
	labelPath := fs.String("labels", "", "optional label sidecar for sensitivity/specificity")
	mode := fs.String("mode", "", "pipeline mode: seq or relaxed (default derived from -parallel)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker shards; more than 1 selects -mode relaxed, 0 or 1 runs sequentially")
	parseWorkers := fs.Int("parse-workers", 1, "parallel log-parse workers for replays (chunked on line boundaries, entry order preserved); 0 selects GOMAXPROCS, incompatible with -follow")
	outPath := fs.String("out", "", "optional per-request verdict CSV output")
	mitigateName := fs.String("mitigate", "", "replay a response policy over the decisions: observe, tag, block or graduated")
	saveState := fs.String("save-state", "", "after the replay, checkpoint all detection (and -mitigate) state to this file")
	loadState := fs.String("load-state", "", "before the replay, restore detection state from this file; the run continues as if never interrupted")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the analysis to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (taken after the analysis) to this file")
	follow := fs.Bool("follow", false, "tail -log as it is written (surviving rotation) instead of replaying it; stop with SIGINT/SIGTERM")
	metricsAddr := fs.String("metrics-addr", "", "serve /debug/divscrape/metrics and /debug/divscrape/state on this address")
	window := fs.Duration("window", 0, "windowed-eviction retention for per-client state; 0 selects 2h in follow mode and disables eviction in replay mode")
	evictEvery := fs.Duration("evict-every", 0, "eviction sweep cadence in event time; 0 selects window/4")
	checkpointPath := fs.String("checkpoint", "", "periodically checkpoint all detection (and -mitigate) state to this file while running")
	checkpointEvery := fs.Int("checkpoint-every", 100_000, "events between periodic checkpoints")
	checkpointRetain := fs.Int("checkpoint-retain", 3, "checkpoint generations to retain (the newest plus N-1 older fallbacks)")
	maxEvents := fs.Uint64("max-events", 0, "stop after this many events (0 = unlimited); mainly for smoke tests of follow mode")
	traceFlag := fs.Bool("trace", false, "record per-stage latency histograms and sample decisions into the flight recorder")
	traceOut := fs.String("trace-out", "", "write every captured flight record as JSON lines to this file (implies -trace)")
	explainClient := fs.String("explain", "", "always capture this client's decisions and print its provenance timeline after the run (implies -trace)")
	pprofHTTP := fs.Bool("pprof", false, "also serve net/http/pprof under /debug/pprof/ on -metrics-addr")
	clusterListen := fs.String("cluster-listen", "", "serve cluster state deltas on this address and replicate mitigation state with -cluster-peers (requires -follow and -mitigate); the exact string is also this node's identity in peers' -cluster-peers lists")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated peer -cluster-listen addresses to replicate with")
	clusterDegraded := fs.String("cluster-degraded", "fail-open", "quorum-loss behaviour: fail-open keeps enforcing on local state, fail-closed additionally freezes ladder escalation until the partition heals")
	blockRate := fs.Int("block-profile-rate", 0, "runtime.SetBlockProfileRate argument; 0 leaves blocking profiles off")
	mutexFrac := fs.Int("mutex-profile-fraction", 0, "runtime.SetMutexProfileFraction argument; 0 leaves mutex profiles off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	tracing := *traceFlag || *traceOut != "" || *explainClient != ""
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
		defer runtime.SetBlockProfileRate(0)
	}
	if *mutexFrac > 0 {
		runtime.SetMutexProfileFraction(*mutexFrac)
		defer runtime.SetMutexProfileFraction(0)
	}
	if *window < 0 {
		return fmt.Errorf("invalid -window %v (want >= 0)", *window)
	}
	if *window == 0 && *follow {
		*window = 2 * time.Hour
	}
	if *checkpointPath != "" && *checkpointEvery <= 0 {
		return fmt.Errorf("invalid -checkpoint-every %d (want > 0)", *checkpointEvery)
	}
	if *checkpointRetain <= 0 {
		return fmt.Errorf("invalid -checkpoint-retain %d (want > 0)", *checkpointRetain)
	}
	clusterPol, err := degradedPolicyOf(*clusterDegraded)
	if err != nil {
		return err
	}
	if *clusterListen != "" {
		switch {
		case !*follow:
			return fmt.Errorf("-cluster-listen requires -follow (the cluster plane replicates live state)")
		case *mitigateName == "":
			return fmt.Errorf("-cluster-listen requires -mitigate (the enforcement ladder is what replicates)")
		case splitPeers(*clusterPeers, *clusterListen) == nil:
			return fmt.Errorf("-cluster-listen requires at least one peer in -cluster-peers")
		}
	}
	// Profiles cover the replay itself, so hot-path regressions can be
	// diagnosed straight from the CLI: run with -cpuprofile/-memprofile
	// and feed the output to `go tool pprof`.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("create mem profile: %w", err)
		}
		defer func() {
			runtime.GC() // settle allocations so the heap profile is sharp
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scrapedetect: write mem profile:", err)
			}
			f.Close()
		}()
	}
	var policy *mitigate.Policy
	if *mitigateName != "" {
		pol, err := mitigationPolicy(*mitigateName)
		if err != nil {
			return err
		}
		policy = &pol
	}
	if *parallel < 0 {
		return fmt.Errorf("invalid -parallel %d (want >= 0)", *parallel)
	}

	// -mode wins when given; otherwise -parallel picks between the
	// sequential reference and the relaxed pipeline. Follow mode and the
	// total-order outputs default to sequential unless parallelism was
	// explicitly requested: a live tail is bound by the log's write rate,
	// not detection throughput (the sequential pipeline's end-to-end
	// median is 314k req/s in e2ebench's replay-seq workload), and -out,
	// -trace-out and -explain need one total decision order.
	parallelSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "parallel" {
			parallelSet = true
		}
	})
	ordered := *outPath != "" || *traceOut != "" || *explainClient != ""
	var pmode pipeline.Mode
	switch *mode {
	case "seq":
		pmode = pipeline.Sequential
	case "relaxed":
		pmode = pipeline.ShardedRelaxed
	case "":
		pmode = pipeline.Sequential
		if *parallel > 1 && (parallelSet || !(*follow || ordered)) {
			pmode = pipeline.ShardedRelaxed
		}
	default:
		return fmt.Errorf("invalid -mode %q (want seq or relaxed)", *mode)
	}
	if pmode == pipeline.ShardedRelaxed && ordered {
		// The one mode rule: shards deliver independently, so the verdict
		// CSV (written by sequence), the audit stream and explain
		// timelines (feature snapshots coherent with a synchronous sink)
		// have no single order to record.
		return fmt.Errorf("-out, -trace-out and -explain record one total decision order; run them with -mode seq")
	}
	if *parseWorkers < 0 {
		return fmt.Errorf("invalid -parse-workers %d (want >= 0)", *parseWorkers)
	}
	if *parseWorkers != 1 && *follow {
		return fmt.Errorf("-parse-workers applies to replays; -follow tails a live log line by line")
	}
	shards := 1
	if pmode == pipeline.ShardedRelaxed && *parallel > 1 {
		shards = *parallel
	}

	dets, factories, err := buildDetectors(splitDetectorNames(*detectorsFlag))
	if err != nil {
		return err
	}
	detNames := make([]string, len(dets))
	for i, d := range dets {
		detNames[i] = d.Name()
	}

	// The registry is created before the pipeline so the tracer's stage
	// histograms and the sink counters share one scrape page; the tracer
	// itself stays nil — the disabled plane — unless a trace mode asked
	// for it.
	reg := metrics.NewRegistry()
	var tracer *trace.Tracer
	var traceBuf *bufio.Writer
	if tracing {
		recCfg := trace.RecorderConfig{}
		if *explainClient != "" {
			recCfg.Clients = []string{*explainClient}
		}
		if *traceOut != "" {
			tf, err := os.Create(*traceOut)
			if err != nil {
				return fmt.Errorf("create -trace-out: %w", err)
			}
			defer tf.Close()
			traceBuf = bufio.NewWriterSize(tf, 1<<16)
			enc := json.NewEncoder(traceBuf)
			recCfg.Sink = func(r trace.Record) { _ = enc.Encode(r) }
		}
		tshards := 0
		if pmode == pipeline.ShardedRelaxed {
			tshards = shards
		}
		tracer = trace.New(trace.Config{
			Registry:  reg,
			Detectors: detNames,
			Shards:    tshards,
			Recorder:  recCfg,
		})
	}

	// The reputation feed is hoisted out of the pipeline config so the
	// cluster backend can replicate its dynamic overlay.
	rep := iprep.BuildFeed()
	pipe, err := pipeline.New(pipeline.Config{
		Detectors:   dets,
		Factories:   factories,
		Reputation:  rep,
		Mode:        pmode,
		Shards:      shards,
		EvictWindow: *window,
		EvictEvery:  *evictEvery,
		Trace:       tracer,
	})
	if err != nil {
		return err
	}

	// One ladder engine per pipeline shard: a client's requests all reach
	// one shard, so its ladder evolves exactly as in a single engine.
	var engines *engineBackend
	if policy != nil {
		es := make([]*mitigate.Engine, shards)
		for i := range es {
			if es[i], err = mitigate.New(*policy); err != nil {
				return err
			}
		}
		engines = newEngineBackend(es, rep)
	}

	if *loadState != "" {
		if err := loadStateFile(*loadState, pipe, engines); err != nil {
			return err
		}
	}

	var labels []detector.Label
	if *labelPath != "" {
		lf, err := os.Open(*labelPath)
		if err != nil {
			return err
		}
		labels, err = workload.ReadLabels(lf)
		lf.Close()
		if err != nil {
			return err
		}
	}

	// Build the entry source: a rotation-surviving tail in follow mode, a
	// plain streaming reader for replays. Both are pull-based, so the
	// pipeline's capacity is the only backpressure mechanism needed.
	var src pipeline.EntrySource
	var follower *stream.Follower
	if *follow {
		follower, err = stream.NewFollower(stream.FollowerConfig{Path: *logPath})
		if err != nil {
			return err
		}
		defer follower.Close()
		src = follower.Next
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigCh)
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-sigCh:
				follower.Stop()
			case <-done:
			}
		}()
	} else {
		f, err := os.Open(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if *parseWorkers != 1 {
			// Chunked parallel parse: newline-aligned chunks fan out to
			// worker goroutines and reassemble in sequence, so the entry
			// stream is byte-identical to the plain reader's.
			plr := logfmt.NewParallelReader(f, logfmt.ParallelConfig{
				Policy:  logfmt.Skip,
				Workers: *parseWorkers,
			})
			defer plr.Close()
			src = func() (logfmt.Entry, error) {
				var e logfmt.Entry
				err := plr.NextInto(&e)
				return e, err
			}
		} else {
			lr := logfmt.NewReader(f, logfmt.ReaderConfig{Policy: logfmt.Skip})
			src = lr.Next
		}
	}

	// The crash-safe saver behind periodic checkpoints, and the watchdog
	// that surfaces its failures (plus the follower's read errors) on the
	// health endpoint. Both exist only when there is something to watch.
	var ckSaver *checkpoint.Saver
	if *checkpointPath != "" {
		ckSaver, err = checkpoint.NewSaver(checkpoint.Config{
			Path:   *checkpointPath,
			Retain: *checkpointRetain,
		})
		if err != nil {
			return err
		}
	}
	wd := newWatchdog(ckSaver, follower, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "scrapedetect: watchdog: "+format+"\n", args...)
	})

	// One sink per shard over one state type; the sequential pipeline is
	// the one-shard case. Each shard's event-time sweeper bounds its
	// engine's ladder state on the same retention window the pipeline's
	// internal sweeps use.
	env := &sinkEnv{
		tracer:   tracer,
		detNames: detNames,
		labels:   labels,
		// The mitigation quorum: a strict majority of the selected
		// detectors confirms a request (both-of-two for the paper's pair,
		// two-of-three with trajectory added).
		confirmVotes: len(dets)/2 + 1,
		// Mirror httpguard: only a challenge-capable policy hosts (and
		// therefore exempts) the challenge flow; under static policies
		// those requests are ordinary traffic.
		challengeFlow: policy != nil && policy.UsesChallenge(),
	}
	if tracer != nil && pmode == pipeline.Sequential {
		// Feature snapshots are only coherent in sequential mode, where
		// the sink runs on the same goroutine as InspectInto; elsewhere
		// flight records carry verdicts and reasons but no vectors.
		// explainers aligns index-for-index with the detector list (nil
		// slots for detectors without an explainer surface).
		env.explainers = make([]detector.Explainer, len(dets))
		for i, d := range dets {
			if ex, ok := d.(detector.Explainer); ok {
				env.explainers[i] = ex
			}
		}
	}
	sinks := make([]*shardSink, shards)
	pipeSinks := make([]pipeline.Sink, shards)
	var sweepers []*stream.Sweeper
	for i := range sinks {
		sk := &shardSink{
			env:   env,
			agree: newAlertAgreement(len(dets)),
			confs: make([]evaluate.Confusion, len(dets)),
		}
		if engines != nil {
			sk.engine = &engines.shards[i]
			if *window > 0 {
				sk.sweeper, err = stream.NewSweeper(*window, *evictEvery, nil)
				if err != nil {
					return err
				}
				sk.sweeper.Register("mitigate", sk.engine)
				sweepers = append(sweepers, sk.sweeper)
			}
		}
		sinks[i] = sk
		pipeSinks[i] = sk.decide
	}

	live := newLiveMetrics(reg, pipe, follower, sweepers)
	env.live = live
	live.wireFailurePlane(wd, ckSaver, *checkpointRetain)
	live.wireTrace(tracer.Recorder(), *pprofHTTP)
	if *clusterListen != "" {
		peers := splitPeers(*clusterPeers, *clusterListen)
		clu, err := startCluster(*clusterListen, peers, clusterPol, engines, tracer.Recorder(),
			func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "scrapedetect: "+format+"\n", args...)
			})
		if err != nil {
			return err
		}
		defer clu.shutdown()
		clu.node.RegisterMetrics(reg)
		live.wireCluster(clu.node)
		fmt.Fprintf(os.Stderr, "scrapedetect: cluster node %s on %s (%d peers, %s)\n",
			*clusterListen, clu.addr, len(peers), clusterPol)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: live.handler(modeNameOf(pmode), shards, *follow, *window)}
		go func() { _ = srv.Serve(ln) }()
		// Graceful teardown: a scrape in flight when the run ends finishes
		// inside the deadline instead of seeing a reset connection.
		defer shutdownServer(srv, debugShutdownTimeout)
		fmt.Fprintf(os.Stderr, "scrapedetect: metrics on http://%s/debug/divscrape/metrics\n", ln.Addr())
	}

	if *outPath != "" {
		of, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer of.Close()
		env.verdictOut, err = alertlog.NewWriter(of, pipe.Detectors())
		if err != nil {
			return err
		}
	}

	// The segmenter ends each Run at a checkpoint boundary or at the event
	// bound; a due checkpoint is written once every shard has drained,
	// then the same source continues.
	seg := &segmenter{src: src, max: *maxEvents, poll: wd.poll}
	if ckSaver != nil {
		seg.every = uint64(*checkpointEvery)
	}
	var checkpoints uint64
	started := time.Now()
	for {
		if pmode == pipeline.ShardedRelaxed {
			err = pipe.RunRelaxed(context.Background(), seg.next, pipeSinks)
		} else {
			err = pipe.Run(context.Background(), seg.next, pipeSinks[0])
		}
		if err != nil {
			return err
		}
		if !seg.due {
			break
		}
		seg.due = false
		// A failed periodic checkpoint degrades durability, not detection:
		// the run continues on the previous generations and the watchdog
		// flags the process degraded until a save lands.
		if err := saveStateTo(ckSaver, pipe, engines); err != nil {
			fmt.Fprintf(os.Stderr, "scrapedetect: periodic checkpoint failed (state plane degraded, will retry): %v\n", err)
		} else {
			checkpoints++
			live.checkpoints.Inc()
		}
		wd.poll()
	}
	if env.verdictOut != nil {
		if err := env.verdictOut.Flush(); err != nil {
			return err
		}
	}
	if traceBuf != nil {
		if err := traceBuf.Flush(); err != nil {
			return fmt.Errorf("flush -trace-out: %w", err)
		}
	}
	// The final saves stay fatal: unlike a periodic checkpoint (where the
	// run continues and retries later), an exit without durable state is
	// exactly what -checkpoint/-save-state exist to prevent.
	if ckSaver != nil {
		if err := saveStateTo(ckSaver, pipe, engines); err != nil {
			return err
		}
		checkpoints++
		live.checkpoints.Inc()
	}
	if *saveState != "" {
		finalSaver, err := checkpoint.NewSaver(checkpoint.Config{Path: *saveState, Retain: 1})
		if err != nil {
			return err
		}
		if err := saveStateTo(finalSaver, pipe, engines); err != nil {
			return err
		}
	}
	elapsed := time.Since(started)

	// Every tally is an order-free count, so the shards' sum equals what
	// one sequential sink would have counted.
	sum := shardSink{agree: newAlertAgreement(len(dets)), confs: make([]evaluate.Confusion, len(dets))}
	for _, sk := range sinks {
		sum.agree.merge(sk.agree)
		for j := range sum.confs {
			sum.confs[j].Merge(sk.confs[j])
		}
		sum.total += sk.total
		sum.tagged += sk.tagged
		sum.passed += sk.passed
	}
	total := sum.total

	fmt.Fprintf(w, "analysed %s requests in %v (%.0f req/s, mode=%s, shards=%d)\n\n",
		report.Count(total), elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), modeNameOf(pmode), shards)
	if *follow {
		fs := follower.Stats()
		sweeps, evicted := live.evictionStats()
		fmt.Fprintf(w, "follow: rotations=%d truncations=%d skipped=%d sweeps=%d evicted=%d checkpoints=%d\n\n",
			fs.Rotations, fs.Truncations, fs.Skipped, sweeps, evicted, checkpoints)
	}

	t := &report.Table{
		Title:   "Alert diversity",
		Columns: []string{"Bucket", "Count", "Share"},
		Aligns:  []report.Align{report.Left, report.Right, report.Right},
	}
	allLabel, noneLabel := "All tools", "None"
	if len(dets) == 2 {
		allLabel, noneLabel = "Both tools", "Neither"
	}
	agree := sum.agree
	t.AddRow(allLabel, report.Count(agree.all), report.Percent(agree.all, total))
	t.AddRow(noneLabel, report.Count(agree.none), report.Percent(agree.none, total))
	for i, name := range detNames {
		t.AddRow(name+" only", report.Count(agree.only[i]), report.Percent(agree.only[i], total))
	}
	if err := t.Render(w); err != nil {
		return err
	}

	if engines != nil {
		counts := engines.counts()
		denom := counts.Total()
		fmt.Fprintln(w)
		mt := &report.Table{
			Title:   "Mitigation replay (" + *mitigateName + ", what-if)",
			Columns: []string{"Action", "Count", "Share"},
			Aligns:  []report.Align{report.Left, report.Right, report.Right},
		}
		mt.AddRow("Allow", report.Count(counts.Allowed), report.Percent(counts.Allowed, denom))
		mt.AddRow("Tarpit", report.Count(counts.Tarpitted), report.Percent(counts.Tarpitted, denom))
		mt.AddRow("Challenge", report.Count(counts.Challenged), report.Percent(counts.Challenged, denom))
		mt.AddRow("Block", report.Count(counts.Blocked), report.Percent(counts.Blocked, denom))
		mt.AddRow("Tagged", report.Count(sum.tagged), report.Percent(sum.tagged, denom))
		mt.AddRow("Challenges passed", report.Count(sum.passed), "")
		if err := mt.Render(w); err != nil {
			return err
		}
	}

	if labels != nil {
		confs := sum.confs
		fmt.Fprintln(w)
		m := &report.Table{
			Title:   "Labelled metrics",
			Columns: append([]string{"Metric"}, detNames...),
			Aligns:  append([]report.Align{report.Left}, make([]report.Align, len(dets))...),
		}
		for i := range dets {
			m.Aligns[i+1] = report.Right
		}
		row := func(name string, f func(*evaluate.Confusion) float64) {
			cells := make([]string, 0, len(confs)+1)
			cells = append(cells, name)
			for i := range confs {
				cells = append(cells, report.Metric(f(&confs[i])))
			}
			m.AddRow(cells...)
		}
		row("Sensitivity", (*evaluate.Confusion).Sensitivity)
		row("Specificity", (*evaluate.Confusion).Specificity)
		row("Precision", (*evaluate.Confusion).Precision)
		row("F1", (*evaluate.Confusion).F1)
		if err := m.Render(w); err != nil {
			return err
		}
	}

	if *explainClient != "" {
		fmt.Fprintln(w)
		printExplain(w, tracer.Recorder().Explain(*explainClient))
	}
	return nil
}

// sinkEnv is what every shard's sink shares: the run's configuration and
// the concurrency-safe planes (live metrics, the flight recorder). The
// verdict CSV and explainers are only set in sequential mode.
type sinkEnv struct {
	live          *liveMetrics
	tracer        *trace.Tracer
	detNames      []string
	explainers    []detector.Explainer
	verdictOut    *alertlog.Writer
	labels        []detector.Label
	confirmVotes  int
	challengeFlow bool
}

// shardSink is one shard's decision consumer and its share of the run's
// state: the alert-agreement table, labelled confusions and counts, the
// shard's ladder engine and its event-time sweeper. Only the shard's own
// goroutine touches it during a run.
type shardSink struct {
	env     *sinkEnv
	engine  *engineShard    // nil without -mitigate
	sweeper *stream.Sweeper // nil without -mitigate or -window
	agree   *alertAgreement
	confs   []evaluate.Confusion
	total   uint64
	tagged  uint64
	passed  uint64
}

// decide is the shard's pipeline.Sink.
func (s *shardSink) decide(d pipeline.Decision) error {
	env := s.env
	votes := s.agree.add(d.Verdicts)
	env.live.events.Inc()
	for i := range d.Verdicts {
		if d.Verdicts[i].Alert {
			env.live.alerts[i].Inc()
		}
	}
	if s.sweeper != nil {
		s.sweeper.Observe(d.Req.Entry.Time)
	}
	var dec mitigate.Decision
	var rungBefore mitigate.Action
	judged := false
	if s.engine != nil {
		// The cluster plane reaches the engine from HTTP goroutines; the
		// sink's accesses serialise on the same per-shard lock.
		s.engine.mu.Lock()
		engine := s.engine.engine
		e := &d.Req.Entry
		// The challenge flow itself is exempt, mirroring httpguard and
		// the closed-loop experiments: script fetches never count
		// against the client, beacons mark the challenge solved.
		switch {
		case env.challengeFlow && e.Path == sitemodel.ChallengeScriptPath:
		case env.challengeFlow && e.Path == sitemodel.ChallengeVerifyPath && e.Method == "POST":
			engine.ChallengePassed(e.RemoteAddr, e.Time)
			s.passed++
		default:
			if env.tracer != nil {
				rungBefore = engine.Level(e.RemoteAddr)
			}
			ts := env.tracer.Now()
			var scoreSum float64
			for i := range d.Verdicts {
				scoreSum += d.Verdicts[i].Score
			}
			dec = engine.Apply(e.RemoteAddr, e.Time, mitigate.Assessment{
				Alerted:   votes > 0,
				Confirmed: votes >= env.confirmVotes,
				Score:     scoreSum / float64(len(d.Verdicts)),
			})
			env.tracer.Lap(trace.StageEnsemble, ts)
			judged = true
			if dec.Tagged {
				s.tagged++
				env.live.tagged.Inc()
			}
		}
		s.engine.mu.Unlock()
	}
	if env.tracer != nil {
		captureDecision(env.tracer, env.detNames, &d, judged, dec, rungBefore, env.explainers)
	}
	if env.verdictOut != nil {
		if err := env.verdictOut.WriteAt(d.Req.Seq, d.Verdicts); err != nil {
			return err
		}
	}
	if env.labels != nil {
		if d.Req.Seq >= uint64(len(env.labels)) {
			return fmt.Errorf("label sidecar shorter than log (request %d)", d.Req.Seq)
		}
		malicious := env.labels[d.Req.Seq].Malicious()
		for i := range d.Verdicts {
			s.confs[i].Add(d.Verdicts[i].Alert, malicious)
		}
	}
	s.total++
	return nil
}

// segmenter wraps the entry source with the run loop's bookkeeping, so
// both modes share it and every bound is exact: it polls the watchdog
// every watchdogEvery entries, ends the stream after max entries, and
// ends a segment every `every` entries, setting due so the caller can
// checkpoint the drained pipeline and run on from the same source.
type segmenter struct {
	src   pipeline.EntrySource
	max   uint64 // 0 = unbounded
	every uint64 // 0 = no checkpoint segments
	poll  func()

	pulled uint64
	inSeg  uint64
	due    bool
}

func (s *segmenter) next() (logfmt.Entry, error) {
	if s.max > 0 && s.pulled >= s.max {
		return logfmt.Entry{}, io.EOF
	}
	if s.every > 0 && s.inSeg >= s.every {
		s.inSeg = 0
		s.due = true
		return logfmt.Entry{}, io.EOF
	}
	e, err := s.src()
	if err != nil {
		return e, err
	}
	s.pulled++
	s.inSeg++
	if s.pulled%watchdogEvery == 0 {
		s.poll()
	}
	return e, nil
}
