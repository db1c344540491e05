package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"divscrape/internal/mitigate"
)

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its argument: %v", xs)
	}
}

func TestDigestsFollowEachClientsOrder(t *testing.T) {
	a := outcome{score: [numDetectors]float64{0.1, 0.2, 0.3}, alerts: 1, action: mitigate.Tarpit}
	b := outcome{score: [numDetectors]float64{0.4, 0.5, 0.6}, alerts: 6, action: mitigate.Block}
	c := outcome{action: mitigate.Allow}
	// Clients 0 and 1 interleave; only each client's own order matters.
	base := digests([]outcome{a, c, b, c}, []int32{0, 1, 0, 1}, 2)
	regrouped := digests([]outcome{a, b, c, c}, []int32{0, 0, 1, 1}, 2)
	if mismatches(base, regrouped) != 0 {
		t.Fatal("reordering across clients changed a digest")
	}
	swapped := digests([]outcome{b, c, a, c}, []int32{0, 1, 0, 1}, 2)
	if got := mismatches(base, swapped); got != 1 {
		t.Fatalf("swapping client 0's decisions: %d mismatched clients, want 1", got)
	}
	dropped := digests([]outcome{a, c, {}, c}, []int32{0, 1, 0, 1}, 2)
	if got := mismatches(base, dropped); got != 1 {
		t.Fatalf("a dropped (zero) decision: %d mismatched clients, want 1", got)
	}
	nudged := b
	nudged.score[2] = math.Nextafter(nudged.score[2], 1)
	if got := mismatches(base, digests([]outcome{a, c, nudged, c}, []int32{0, 1, 0, 1}, 2)); got != 1 {
		t.Fatalf("a one-ulp score change: %d mismatched clients, want 1", got)
	}
	if got := mismatches(base, base[:1]); got == 0 {
		t.Fatal("digest sets of different length compare equal")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the names are checked against.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAreValidAndMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	seen := map[string]bool{}
	check := func(name string) {
		if !metricName.MatchString(name) {
			t.Errorf("invalid metric or workload name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	defs := workloads()
	if len(b.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(b.Workloads), len(defs))
	}
	for i, w := range b.Workloads {
		check(w.Name)
		if w.Name != defs[i].name || w.Why != defs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, defs[i].name, defs[i].why)
		}
	}
	if len(b.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayerMetrics))
	}
	for i, m := range b.PerLayer {
		check(m.Name)
		if m != (struct{ Name, Unit string }{perLayerMetrics[i].name, perLayerMetrics[i].unit}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %v, the benchmark %v", i, m, perLayerMetrics[i])
		}
	}
	for _, m := range b.EndToEnd {
		check(m.Name)
	}
}

// tiny shrinks a workload to a few thousand requests, with checkpoint
// hand-offs close enough together to happen several times.
func tiny(t *testing.T, name string) workloadDef {
	t.Helper()
	def, ok := lookup(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	def.spec.window = 40 * time.Minute
	def.chunk = 256
	if def.spec.population > 1 {
		def.spec.population = 5
	}
	if def.replay != nil && def.replay.checkpointEvery > 0 {
		r := *def.replay
		r.checkpointEvery = def.chunk
		r.evictWindow = time.Hour
		def.replay = &r
	}
	return def
}

func tinyConfig(t *testing.T, def workloadDef, traced bool) config {
	return config{def: def, seed: 3, window: 20 * time.Millisecond, trace: traced,
		spans: filepath.Join(t.TempDir(), "spans.jsonl")}
}

// metricNames returns the metric names of r in print order.
func metricNames(r *result) []string {
	var names []string
	for _, m := range r.metrics {
		names = append(names, m.name)
	}
	return names
}

func TestSmokeEveryWorkload(t *testing.T) {
	b := readBenchmarkJSON(t)
	var e2e, layers []string
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		layers = append(layers, m.Name)
	}
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			def := tiny(t, name)
			for _, traced := range []bool{false, true} {
				var buf bytes.Buffer
				res, err := run(tinyConfig(t, def, traced), &buf)
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d attempted=%d\n%s", traced, res.correct, res.failed, res.attempted, buf.String())
				}
				want := e2e
				if traced {
					want = layers
				}
				if got := metricNames(res); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("trace=%v metrics %v, want %v", traced, got, want)
				}
				for _, m := range res.metrics {
					if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
						t.Errorf("trace=%v: %s = %v", traced, m.name, m.value)
					}
				}
				if !traced {
					for _, m := range res.metrics {
						if m.value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
						}
					}
				}
			}
		})
	}
}

func TestCheckpointChainHandsOff(t *testing.T) {
	def := tiny(t, "churn-ckpt")
	var buf bytes.Buffer
	res, err := run(tinyConfig(t, def, true), &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.metrics {
		if m.name == "statecodec.snapshot_bytes" && m.value <= 0 {
			t.Fatalf("no checkpoint was taken:\n%s", buf.String())
		}
	}
}

// TestChecksCatchPerturbedReference proves every workload's correctness
// gate can fail: one flipped outcome in the reference fails the run.
func TestChecksCatchPerturbedReference(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			def := tiny(t, name)
			in, err := buildInput(def.spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			in.ref[in.n/2].action ^= 1
			res, err := runOn(tinyConfig(t, def, false), in, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct {
				t.Fatal("a perturbed reference passed the correctness check")
			}
		})
	}
}

// TestChecksCatchDroppedDecision proves the replays' gate catches a
// request the program never decides: a corrupted log line is skipped,
// counted as failed, and every later decision of its client misaligns.
func TestChecksCatchDroppedDecision(t *testing.T) {
	for _, name := range []string{"replay-seq", "replay-relaxed", "churn-ckpt"} {
		t.Run(name, func(t *testing.T) {
			def := tiny(t, name)
			in, err := buildInput(def.spec, 3)
			if err != nil {
				t.Fatal(err)
			}
			lines := bytes.SplitAfter(in.clf, []byte("\n"))
			lines[len(lines)/3] = []byte("garbage\n")
			in.clf = bytes.Join(lines, nil)
			res, err := runOn(tinyConfig(t, def, false), in, &bytes.Buffer{})
			if err != nil {
				t.Fatal(err)
			}
			if res.correct || res.failed == 0 {
				t.Fatalf("a dropped request passed: correct=%v failed=%d", res.correct, res.failed)
			}
		})
	}
}

func TestCLIRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "replay-seq", "--trace", "2"},
		{"--workload", "replay-seq", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := cli(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("cli(%q) = %d with output %q, want a non-zero exit and no result", args, code, out.String())
		}
	}
}
