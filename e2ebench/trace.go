package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
	"unsafe"

	"divscrape/internal/detector"
	"divscrape/internal/statecodec"
	"divscrape/internal/trajectory"
)

// The benchmark's tracing is done entirely from outside the program: it
// stamps the clock around each layer's public call (the entry source,
// each detector through pipeline.Config.Factories, the sink, Engine.Apply,
// Checkpoint/ResumeFrom, httpguard's OnDecision hook) and keeps the
// results in memory — an aggregate for every request and full spans for
// the sampled ones — until the run ends.

var epoch = time.Now()

// now reads the monotonic clock as nanoseconds since the process started.
func now() int64 { return int64(time.Since(epoch)) }

// clockCost measures what one now() costs, as the median over batches.
func clockCost() float64 {
	const batch = 1 << 16
	costs := make([]float64, 9)
	for i := range costs {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			sinkInt += now()
		}
		costs[i] = float64(time.Since(t0).Nanoseconds()) / batch
	}
	return median(costs)
}

// sinkInt keeps the compiler from removing the calibration loop.
var sinkInt int64

// sampleShift fixes the sampled subset: every request whose sequence
// number is a multiple of 1<<sampleShift has its latency taken and, when
// tracing, its spans recorded. The cost of those clock reads is bounded
// by two reads per 16 requests.
const (
	sampleShift = 4
	sampleMask  = 1<<sampleShift - 1
)

func sampled(seq uint64) bool { return seq&sampleMask == 0 }

// timing records one pass: the source-to-action time of the
// sampled requests, and the wall and CPU time of every chunk of
// consecutive requests. Metrics are medians over chunks, so a burst of
// interference from outside the process (the host preempting the VM for
// tens of milliseconds) moves a few chunks, not the result.
type timing struct {
	begin, took []int64
	// chunk is the number of requests per chunk. Replays mark chunk
	// boundaries at the source; the guard adds each served block.
	chunk     int
	lastWall  int64
	lastCPU   int64
	wall, cpu []int64 // per complete chunk of the pass, ns
	marked    bool
}

func newTiming(n, chunk int) *timing {
	m := (n + sampleMask) >> sampleShift
	return &timing{begin: make([]int64, m), took: make([]int64, m), chunk: chunk,
		wall: make([]int64, 0, n/chunk+1), cpu: make([]int64, 0, n/chunk+1)}
}

// reset forgets the previous pass's chunks.
func (l *timing) reset() {
	l.wall, l.cpu, l.marked = l.wall[:0], l.cpu[:0], false
}

// mark closes a chunk every chunk requests; replays call it from the
// source, before reading request seq.
func (l *timing) mark(seq uint64) {
	if seq%uint64(l.chunk) != 0 {
		return
	}
	t, c := now(), cpuNow()
	if l.marked {
		l.add(t-l.lastWall, c-l.lastCPU)
	}
	l.lastWall, l.lastCPU, l.marked = t, c, true
}

// start stamps a sampled request's start.
func (l *timing) start(seq uint64) {
	if sampled(seq) {
		l.begin[seq>>sampleShift] = now()
	}
}

func (l *timing) stop(seq uint64) {
	if sampled(seq) {
		i := seq >> sampleShift
		l.took[i] = now() - l.begin[i]
	}
}

// add records one complete chunk's wall and CPU time.
func (l *timing) add(wall, cpu int64) {
	l.wall = append(l.wall, wall)
	l.cpu = append(l.cpu, cpu)
}

// cpuNow reads the process's CPU time (all threads, user and system).
func cpuNow() int64 {
	var ts syscall.Timespec
	// CLOCK_PROCESS_CPUTIME_ID is 2 on Linux.
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

// layer names one traced call site.
type layer uint8

const (
	layerSource layer = iota
	layerEnrich
	layerDetector // first of numDetectors layers, in detectorNames order
)

const (
	layerSink = layerDetector + numDetectors + iota
	layerApply
	layerCheckpoint
	layerRestore
	layerDecide
	layerRespond
	numLayers
)

var layerNames = [numLayers]string{
	"logfmt.parse", "detector.enrich",
	"sentinel.inspect", "arcane.inspect", "trajectory.inspect",
	"pipeline.sink", "mitigate.apply",
	"statecodec.checkpoint", "statecodec.restore",
	"httpguard.decide", "httpguard.respond",
}

// span is one recorded layer call of a sampled request.
type span struct {
	layer      layer
	pass       int32
	seq        uint64
	start, end int64
}

// lane is the trace state of one goroutine: the time of its last stamp,
// and per layer the time spent inside the call (busy), the time between
// the goroutine's previous stamp and the call (gap) and the call count.
// A nil lane records nothing, so untraced runs share the code path at the
// cost of a nil check.
type lane struct {
	prev  int64
	busy  [numLayers]int64
	gap   [numLayers]int64
	calls [numLayers]int64
	pass  int32
	spans []span
	_     [64]byte // keeps lanes of different goroutines off one cache line
}

// maxSpansPerLane bounds the in-memory span record.
const maxSpansPerLane = 1 << 14

func newLane() *lane { return &lane{spans: make([]span, 0, maxSpansPerLane)} }

// begin stamps the start of a nested call.
func (l *lane) begin() int64 {
	if l == nil {
		return 0
	}
	return now()
}

// enter stamps the start of a top-level call on the lane, charging the
// time since the previous stamp to k's gap.
func (l *lane) enter(k layer) int64 {
	if l == nil {
		return 0
	}
	t := now()
	l.gap[k] += t - l.prev
	return t
}

// leave closes a top-level call begun by enter.
func (l *lane) leave(k layer, start int64, seq uint64) {
	if l == nil {
		return
	}
	t := now()
	l.prev = t
	l.record(k, start, t, seq)
}

// nested closes a call begun by begin without moving the lane's anchor.
func (l *lane) nested(k layer, start int64, seq uint64) {
	if l == nil {
		return
	}
	l.record(k, start, now(), seq)
}

// mark re-anchors the lane, so time spent outside any traced layer on
// purpose (between passes) is not charged to the next call's gap.
func (l *lane) mark() {
	if l != nil {
		l.prev = now()
	}
}

func (l *lane) record(k layer, start, end int64, seq uint64) {
	l.busy[k] += end - start
	l.calls[k]++
	if sampled(seq) && len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, span{layer: k, pass: l.pass, seq: seq, start: start, end: end})
	}
}

// tracer owns the lanes of one traced run: lanes[0] is the producer (the
// only lane in single-goroutine modes), lanes[1+i] shard i of a relaxed
// pipeline.
type tracer struct {
	lanes []*lane
}

func newTracer(n int) *tracer {
	t := &tracer{lanes: make([]*lane, n)}
	for i := range t.lanes {
		t.lanes[i] = newLane()
	}
	return t
}

func (t *tracer) setPass(p int32) {
	for _, l := range t.lanes {
		l.pass = p
		l.prev = now()
	}
}

// sum adds every lane's aggregates.
func (t *tracer) sum() (busy, gap, calls [numLayers]int64) {
	for _, l := range t.lanes {
		for k := range busy {
			busy[k] += l.busy[k]
			gap[k] += l.gap[k]
			calls[k] += l.calls[k]
		}
	}
	return busy, gap, calls
}

// clear zeroes every lane's aggregates and spans.
func (t *tracer) clear() {
	for _, l := range t.lanes {
		l.busy, l.gap, l.calls = [numLayers]int64{}, [numLayers]int64{}, [numLayers]int64{}
		l.spans = l.spans[:0]
	}
}

// timedDetector times a detector's InspectInto on a lane. It forwards the
// snapshot and eviction capabilities so checkpoints and eviction sweeps
// reach the wrapped detector exactly as without tracing.
type timedDetector struct {
	detector.Detector
	k  layer
	ln *lane
}

func (t *timedDetector) InspectInto(req *detector.Request, out *detector.Verdict) {
	start := t.ln.enter(t.k)
	t.Detector.InspectInto(req, out)
	t.ln.leave(t.k, start, req.Seq)
}

func (t *timedDetector) SnapshotInto(w *statecodec.Writer) {
	t.Detector.(detector.Snapshotter).SnapshotInto(w)
}

func (t *timedDetector) RestoreFrom(r *statecodec.Reader) error {
	return t.Detector.(detector.Snapshotter).RestoreFrom(r)
}

func (t *timedDetector) EvictBefore(cutoff time.Time) int {
	return t.Detector.(detector.Evictable).EvictBefore(cutoff)
}

// timedFactories wraps the benchmark's factories so that the c-th
// instance a factory builds (the pipeline builds one per shard, in shard
// order) is timed on laneOf(c). A nil laneOf returns the plain factories.
func timedFactories(model *trajectory.Model, laneOf func(instance int) *lane) []detector.Factory {
	fs := factories(model)
	if laneOf == nil {
		return fs
	}
	for i, f := range fs {
		built := 0
		fs[i] = func() (detector.Detector, error) {
			d, err := f()
			if err != nil {
				return nil, err
			}
			ln := laneOf(built)
			built++
			return &timedDetector{Detector: d, k: layerDetector + layer(i), ln: ln}, nil
		}
	}
	return fs
}

// spanRecord is one span as written out: requests get a synthetic root
// span covering their layer spans, and Engine.Apply nests under the sink.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request string `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes every lane's sampled spans as JSON lines to path.
func writeSpans(path string, lanes []*lane) (int, error) {
	var all []span
	for _, l := range lanes {
		all = append(all, l.spans...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := &all[i], &all[j]
		if a.pass != b.pass {
			return a.pass < b.pass
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		return a.start < b.start
	})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for i := 0; i < len(all); {
		j := i
		root := spanRecord{ID: id, Parent: -1, Request: fmt.Sprintf("pass%d/seq%d", all[i].pass, all[i].seq),
			Name: "request", StartNs: all[i].start, EndNs: all[i].end}
		for ; j < len(all) && all[j].pass == all[i].pass && all[j].seq == all[i].seq; j++ {
			root.StartNs = min(root.StartNs, all[j].start)
			root.EndNs = max(root.EndNs, all[j].end)
		}
		if err := enc.Encode(root); err != nil {
			return 0, err
		}
		rootID, sinkID := id, -1
		id++
		for _, s := range all[i:j] {
			parent := rootID
			if s.layer == layerApply && sinkID >= 0 {
				parent = sinkID
			}
			if s.layer == layerSink {
				sinkID = id
			}
			rec := spanRecord{ID: id, Parent: parent, Request: root.Request, Name: layerNames[s.layer], StartNs: s.start, EndNs: s.end}
			if err := enc.Encode(rec); err != nil {
				return 0, err
			}
			id++
		}
		i = j
	}
	if err := w.Flush(); err != nil {
		return 0, err
	}
	return id, f.Close()
}
