// Command e2ebench is divscrape's end-to-end benchmark. It generates one
// workload's traffic from a seed, runs it through the repository's public
// entry points, checks every decision against a reference built by calling
// the layer functions directly, and prints the workload's metrics.
//
// Run it from the repository root through its build script:
//
//	bash e2ebench/run.sh --workload replay-seq --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object holding
// every end-to-end metric; with --trace 1 it holds the per-layer metrics of
// a traced run instead, and the sampled spans are written under
// .bench_build/spans/. Every line before it is a human-readable record of
// the host, the input and all metrics. A failed correctness check prints
// "correct": false and exits 1. README.md lists the workloads and says
// which per-layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"divscrape/internal/mitigate"
	"divscrape/internal/pipeline"
	"divscrape/internal/trajectory"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's input is generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := config{
		def:    def,
		seed:   *seed,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *traced == 1,
		spans:  fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", def.name, *seed),
	}
	res, err := run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// workloadDef is one workload: its input and the program that serves it.
type workloadDef struct {
	name, why string
	spec      inputSpec
	// replay configures the offline pipeline; nil runs httpguard.
	replay *replayConfig
	// chunk is the number of consecutive requests each chunk metric
	// covers (a multiple of the latency sampling period): the guard's
	// request pool size, and on churn-ckpt the checkpoint interval, so
	// every chunk pays one hand-off.
	chunk int
}

// workloads lists the benchmark's workloads. Shard counts follow the
// host: relaxed and the guard use one shard per CPU.
func workloads() []workloadDef {
	nproc := runtime.NumCPU()
	return []workloadDef{
		{
			name:   "replay-seq",
			why:    "calibrated 24h mix from CLF bytes through Sequential and the graduated ladder; every layer on one goroutine's critical path",
			spec:   inputSpec{window: 24 * time.Hour, population: 1},
			replay: &replayConfig{mode: pipeline.Sequential},
			chunk:  4096,
		},
		{
			name:   "replay-relaxed",
			why:    "same bytes through ShardedRelaxed with one shard per CPU and a ladder per shard sink; serial producer, SPSC rings, shard skew",
			spec:   inputSpec{window: 24 * time.Hour, population: 1},
			replay: &replayConfig{mode: pipeline.ShardedRelaxed, shards: nproc},
			chunk:  4096,
		},
		{
			name:   "churn-ckpt",
			why:    "100x humans and stealth bots over 6h: many short-lived clients, windowed eviction and a checkpoint/resume hand-off every 64Ki requests",
			spec:   inputSpec{window: 6 * time.Hour, population: 100},
			replay: &replayConfig{mode: pipeline.Sequential, evictWindow: 2 * time.Hour, checkpointEvery: 1 << 16},
			chunk:  1 << 16,
		},
		{
			name:  "guard",
			why:   "calibrated 24h mix as http.Requests through httpguard ServeHTTP with three detectors, one closed-loop caller; no pipeline or logfmt",
			spec:  inputSpec{window: 24 * time.Hour, population: 1, guard: true},
			chunk: 4096,
		},
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func lookup(name string) (workloadDef, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// config is one invocation.
type config struct {
	def    workloadDef
	seed   uint64
	window time.Duration
	trace  bool
	spans  string
}

// setups is how many times set-up is repeated to take its median.
const setups = 21

// runner is a workload's program, built once and replayed pass by pass.
type runner interface {
	// reset returns the program to its just-built state (not timed).
	reset() error
	// pass serves the whole input once, timing the program's work in m.
	pass(m *meter) (passStats, error)
}

// lanesFor is the number of trace lanes def's program needs.
func lanesFor(def workloadDef) int {
	if def.replay != nil && def.replay.mode == pipeline.ShardedRelaxed {
		return 1 + runtime.NumCPU()
	}
	return 1
}

// setup builds def's program on in from scratch, including the trajectory
// detector's benign model, which every detector would otherwise train on
// first use. A nil tracer builds it untraced.
func setup(def workloadDef, in *input, out []outcome, tm *timing, tr *tracer) (runner, error) {
	model, err := trajectory.Train(trajectory.TrainConfig{Seed: trajectory.DefaultModelSeed})
	if err != nil {
		return nil, fmt.Errorf("train trajectory model: %w", err)
	}
	if def.replay == nil {
		return newGuardRun(in, out, tm, model, runtime.NumCPU(), def.chunk, tr)
	}
	return newReplay(*def.replay, in, out, tm, model, tr)
}

// meter accumulates wall time, process CPU time and heap allocations over
// the timed parts of a window. Its readings allocate nothing.
type meter struct {
	wall, cpu time.Duration
	allocs    uint64
	t0, cpu0  int64
	allocs0   uint64
	ms        runtime.MemStats
}

func (m *meter) start() {
	m.allocs0 = m.mallocs()
	m.cpu0 = cpuNow()
	m.t0 = now()
}

func (m *meter) stop() {
	m.wall += time.Duration(now() - m.t0)
	m.cpu += time.Duration(cpuNow() - m.cpu0)
	m.allocs += m.mallocs() - m.allocs0
}

// mallocs reads the exact allocation count; ReadMemStats flushes every
// P's cache, which the cheaper runtime/metrics counters do not.
func (m *meter) mallocs() uint64 {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs
}

// window is what one measured window of passes yields.
type window struct {
	passes     int
	requests   uint64
	failed     uint64
	mismatched int
	m          meter
	passRate   []float64 // requests per second of each pass
	// Per chunk of consecutive requests, over all passes: requests per
	// second, CPU µs per request, and latency percentiles in µs.
	rate, cpu, p50, p90, p99 []float64
	last                     passStats
	gcCycles                 uint32
	gcPauseNs                uint64
}

// addChunks folds one pass's chunks into the window.
func (w *window) addChunks(l *timing) {
	per := l.chunk >> sampleShift
	for j := range l.wall {
		w.rate = append(w.rate, float64(l.chunk)/(float64(l.wall[j])/1e9))
		w.cpu = append(w.cpu, float64(l.cpu[j])/1e3/float64(l.chunk))
		took := make([]float64, per)
		for i, t := range l.took[j*per : (j+1)*per] {
			took[i] = float64(t) / 1e3
		}
		sort.Float64s(took)
		w.p50 = append(w.p50, percentile(took, 50))
		w.p90 = append(w.p90, percentile(took, 90))
		w.p99 = append(w.p99, percentile(took, 99))
	}
}

// measure replays passes until the timed wall time reaches length (at
// least one pass), checking every pass's decisions against the reference.
func measure(r runner, in *input, refDigests []uint64, out []outcome, tm *timing, length time.Duration, tr *tracer) (window, error) {
	var w window
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	for w.passes == 0 || w.m.wall < length {
		if err := r.reset(); err != nil {
			return w, err
		}
		if tr != nil {
			tr.setPass(int32(w.passes))
		}
		tm.reset()
		var m meter
		st, err := r.pass(&m)
		if err != nil {
			return w, err
		}
		w.passes++
		w.requests += uint64(in.n)
		w.failed += st.failed
		w.m.wall += m.wall
		w.m.cpu += m.cpu
		w.m.allocs += m.allocs
		w.passRate = append(w.passRate, float64(in.n)/m.wall.Seconds())
		w.addChunks(tm)
		w.mismatched = max(w.mismatched, mismatches(digests(out, in.client, in.clients), refDigests))
		w.last = st
	}
	runtime.ReadMemStats(&ms)
	w.gcCycles, w.gcPauseNs = ms.NumGC-gc0, ms.PauseTotalNs-pause0
	return w, nil
}

// result is one invocation's outcome.
type result struct {
	correct   bool
	attempted uint64
	failed    uint64
	metrics   []metric
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) summary() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

// run executes one invocation, printing the human-readable record to w.
func run(cfg config, w io.Writer) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Fprintf(w, "host nproc=%d gomaxprocs=%d cpu=%q go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version())
	in, err := buildInput(cfg.def.spec, cfg.seed)
	if err != nil {
		return nil, err
	}
	return runOn(cfg, in, w)
}

// runOn measures cfg's workload on an already generated input.
func runOn(cfg config, in *input, w io.Writer) (*result, error) {
	def := cfg.def
	if in.n == 0 {
		return nil, errors.New("generated input is empty")
	}
	p := in.props()
	fmt.Fprintf(w, "input workload=%s seed=%d requests=%d clf_bytes=%d clients=%d req_per_client=%.1f malicious_share=%.4f top_client_share=%.4f\n",
		def.name, cfg.seed, p.requests, p.clfBytes, p.clients, p.reqPerClient, p.maliciousShare, p.topClientShare)
	refDigests := digests(in.ref, in.client, in.clients)
	out := make([]outcome, in.n)
	tm := newTiming(in.n, def.chunk)
	clock := clockCost()
	fmt.Fprintf(w, "clock read=%.1fns latency_sampling=1/%d (%.2f ns/request of clock reads)\n",
		clock, 1<<sampleShift, 2*clock/float64(1<<sampleShift))

	heap0 := liveHeap()
	var setupS []float64
	var r runner
	var err error
	for i := 0; i < setups; i++ {
		r = nil // the previous program is garbage before the next is timed
		runtime.GC()
		t0 := now()
		if r, err = setup(def, in, out, tm, nil); err != nil {
			return nil, err
		}
		setupS = append(setupS, float64(now()-t0)/1e9)
	}
	// One untimed pass warms caches and grows the program's maps. The
	// live heap is taken after it: the detectors recycle session values
	// with the capacity they grew, so the heap after more passes would
	// depend on how many passes a window fits, that is on speed.
	warm, err := measure(r, in, refDigests, out, tm, 0, nil)
	if err != nil {
		return nil, err
	}
	heapMB := float64(liveHeap()-heap0) / (1 << 20)
	length := cfg.window
	if cfg.trace {
		length /= 2
	}
	plain, err := measure(r, in, refDigests, out, tm, length, nil)
	if err != nil {
		return nil, err
	}
	res := &result{attempted: plain.requests, failed: plain.failed}
	e2e := []metric{
		{"setup_s", median(setupS), "s"},
		{"req_per_s", median(plain.rate), "1/s"},
		{"latency_p50_us", median(plain.p50), "us"},
		{"latency_p90_us", median(plain.p90), "us"},
		{"cpu_us_per_req", median(plain.cpu), "us"},
		{"allocs_per_req", float64(plain.m.allocs) / float64(plain.requests), "count"},
		{"heap_mb", heapMB, "MB"},
	}
	rates := sortedCopy(plain.passRate)
	fmt.Fprintf(w, "window passes=%d requests=%d timed_s=%.3f cpu_s=%.3f setups=%d chunks=%d of %d requests, %d latency samples each; pass req/s min=%.0f median=%.0f max=%.0f\n",
		plain.passes, plain.requests, plain.m.wall.Seconds(), plain.m.cpu.Seconds(), setups, len(plain.rate),
		tm.chunk, tm.chunk>>sampleShift, rates[0], median(rates), rates[len(rates)-1])
	for _, m := range e2e {
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
	}
	// Printed but kept out of the gated metrics (README.md): failed_frac
	// is 0 on every workload, p99 sits on the edge between the common path
	// and the first request of each client, and the two quality shares
	// follow the seed's actor population far more than the program.
	fmt.Fprintf(w, "latency_p99_us %.6g us\n", median(plain.p99))
	leak, collateral := quality(in, out)
	fmt.Fprintf(w, "failed_frac %.6g frac (%d of %d)\n", float64(plain.failed)/float64(plain.requests), plain.failed, plain.requests)
	fmt.Fprintf(w, "leak_frac %.6g frac\ncollateral_frac %.6g frac\n", leak, collateral)
	mismatched := max(warm.mismatched, plain.mismatched)
	res.metrics = e2e

	if cfg.trace {
		layers, tw, err := traced(cfg, in, refDigests, out, tm, plain, clock, w)
		if err != nil {
			return nil, err
		}
		mismatched = max(mismatched, tw.mismatched)
		res.attempted += tw.requests
		res.failed += tw.failed
		res.metrics = layers
	}
	res.correct = mismatched == 0
	fmt.Fprintf(w, "correct %v (clients whose decisions differ from the direct-call reference: %d of %d)\n",
		res.correct, mismatched, in.clients)
	return res, nil
}

// quality is the enforcement quality of the last pass: the share of
// malicious requests allowed, and of benign requests slowed or refused.
func quality(in *input, out []outcome) (leak, collateral float64) {
	var mal, leaked, benign, hit int
	for i, o := range out {
		if in.malicious[i] {
			mal++
			if o.action == mitigate.Allow {
				leaked++
			}
		} else {
			benign++
			if o.action != mitigate.Allow {
				hit++
			}
		}
	}
	return ratio(leaked, mal), ratio(hit, benign)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// liveHeap is the live heap after forced collections; two cycles empty
// the sync.Pool victim caches too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuModel names the host CPU from /proc/cpuinfo, where it exists.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
