package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"divscrape/internal/workload"
)

// writeDataset generates a small labelled dataset into dir.
func writeDataset(t *testing.T, dir string) (logPath, labelPath string) {
	t.Helper()
	gen, err := workload.NewGenerator(workload.Config{Seed: 13, Duration: 90 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	logPath = filepath.Join(dir, "access.log")
	labelPath = filepath.Join(dir, "labels.csv")
	lf, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	gf, err := os.Create(labelPath)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	if _, err := workload.WriteDataset(gen, lf, gf); err != nil {
		t.Fatal(err)
	}
	return logPath, labelPath
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)
	outPath := filepath.Join(dir, "verdicts.csv")

	for _, args := range [][]string{{"-mode", "relaxed", "-parallel", "3"}, {"-mode", "seq", "-out", outPath}} {
		mode := args[1]
		var sb strings.Builder
		err := run(&sb, append([]string{"-log", logPath, "-labels", labelPath}, args...))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		out := sb.String()
		for _, want := range []string{"Alert diversity", "Both tools", "Labelled metrics", "Sensitivity"} {
			if !strings.Contains(out, want) {
				t.Errorf("mode %s: output missing %q", mode, want)
			}
		}
	}

	verdicts, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(verdicts)), "\n")
	if lines[0] != "seq,sentinel_alert,sentinel_score,arcane_alert,arcane_score" {
		t.Errorf("verdict header = %q", lines[0])
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	logLines := strings.Count(string(logBytes), "\n")
	if len(lines)-1 != logLines {
		t.Errorf("verdict rows %d != log lines %d", len(lines)-1, logLines)
	}
}

// The -parallel flag selects the relaxed pipeline; every table it prints
// must match the sequential run exactly, only the summary header differs.
func TestRunParallelFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)

	var seq strings.Builder
	if err := run(&seq, []string{"-log", logPath, "-labels", labelPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(seq.String(), "mode=seq, shards=1") {
		t.Errorf("-parallel 0 did not run sequentially:\n%s", firstLine(seq.String()))
	}

	var shard strings.Builder
	if err := run(&shard, []string{"-log", logPath, "-labels", labelPath, "-parallel", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(shard.String(), "mode=relaxed, shards=3") {
		t.Errorf("-parallel 3 summary missing shard count:\n%s", firstLine(shard.String()))
	}

	// Everything below the timing header must be byte-identical.
	if tablesOf(seq.String()) != tablesOf(shard.String()) {
		t.Errorf("sharded tables differ from sequential:\n--- seq ---\n%s\n--- shard ---\n%s",
			tablesOf(seq.String()), tablesOf(shard.String()))
	}

	if err := run(&shard, []string{"-log", logPath, "-parallel", "-1"}); err == nil {
		t.Error("negative -parallel accepted")
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// tablesOf strips the run-dependent timing header, keeping the tables.
// -max-events bounds the source, not the shards' sinks, so a relaxed run
// analyses exactly N requests however the shards interleave.
func TestRunMaxEventsExactUnderRelaxed(t *testing.T) {
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		err := run(&sb, []string{
			"-log", "testdata/access.log", "-mode", "relaxed", "-parallel", "8", "-max-events", "1000",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(sb.String(), "analysed 1,000 requests") {
			t.Fatalf("run %d: %s", i, firstLine(sb.String()))
		}
	}
}

func tablesOf(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// The -mitigate flag replays a response policy over the decision stream;
// the detection tables must be unchanged and the replay table present.
func TestRunMitigateFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)

	var plain strings.Builder
	if err := run(&plain, []string{"-log", logPath, "-parallel", "0"}); err != nil {
		t.Fatal(err)
	}
	var mit strings.Builder
	if err := run(&mit, []string{"-log", logPath, "-parallel", "0", "-mitigate", "graduated"}); err != nil {
		t.Fatal(err)
	}
	out := mit.String()
	for _, want := range []string{"Mitigation replay (graduated", "Tarpit", "Challenge", "Block"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "Alert diversity") {
		t.Error("detection tables missing from mitigate run")
	}
	// The replay must classify something: a dataset with scrapers cannot
	// be all-Allow under the graduated policy.
	if tableCount(t, out, "Tarpit")+tableCount(t, out, "Challenge")+tableCount(t, out, "Block") == 0 {
		t.Error("graduated replay took no adverse action on a scraper-bearing log")
	}

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-mitigate", "warp"}); err == nil {
		t.Error("invalid -mitigate accepted")
	}
}

// tableCount extracts the Count cell of the named row from rendered
// report output, tolerant of column widths.
func tableCount(t *testing.T, out, row string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 2 && fields[0] == row {
			n, err := strconv.Atoi(strings.ReplaceAll(fields[1], ",", ""))
			if err != nil {
				t.Fatalf("row %q count %q not numeric", row, fields[1])
			}
			return n
		}
	}
	t.Fatalf("row %q not found in output:\n%s", row, out)
	return 0
}

func TestRunWithoutLabels(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Labelled metrics") {
		t.Error("labelled metrics printed without labels")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, []string{"-log", "/does/not/exist"}); err == nil {
		t.Error("missing log accepted")
	}
	if err := run(&sb, []string{"-mode", "warp"}); err == nil {
		t.Error("invalid mode accepted")
	}

	// A label sidecar shorter than the log must be reported.
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	short := filepath.Join(dir, "short.csv")
	if err := os.WriteFile(short, []byte("seq,actor_id,archetype\n0,1,human\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-labels", short}); err == nil {
		t.Error("truncated label sidecar accepted")
	}

	// A parallel run refuses the outputs that record one total decision
	// order, whether relaxed was asked for by -mode or by -parallel, and
	// the error names the mode that serves them; the truncated sidecar is
	// caught in relaxed mode too.
	for _, extra := range [][]string{
		{"-out", filepath.Join(dir, "v.csv")},
		{"-trace-out", filepath.Join(dir, "t.jsonl")},
		{"-explain", "10.0.0.1"},
	} {
		for _, par := range [][]string{{"-mode", "relaxed"}, {"-parallel", "4"}} {
			args := append(append([]string{"-log", logPath}, par...), extra...)
			err := run(&sb, args)
			if err == nil {
				t.Errorf("%v accepted %v", par, extra)
			} else if !strings.Contains(err.Error(), "-mode seq") {
				t.Errorf("%v %v: error %q does not name -mode seq", par, extra, err)
			}
		}
	}
	if err := run(&sb, []string{"-log", logPath, "-mode", "relaxed", "-labels", short}); err == nil {
		t.Error("relaxed run accepted truncated label sidecar")
	}
	if err := run(&sb, []string{"-log", logPath, "-parse-workers", "-1"}); err == nil {
		t.Error("negative -parse-workers accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-follow", "-parse-workers", "2"}); err == nil {
		t.Error("-parse-workers accepted with -follow")
	}
}

// The -detectors flag swaps the detector set end to end: three-way runs
// print three-way tables and a three-column verdict CSV, mitigation uses
// a 2-of-3 quorum without erroring, modes agree with each other, and bad
// selections are rejected up front.
func TestRunDetectorsFlag(t *testing.T) {
	dir := t.TempDir()
	logPath, labelPath := writeDataset(t, dir)
	outPath := filepath.Join(dir, "verdicts3.csv")

	var seq strings.Builder
	err := run(&seq, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory",
		"-mode", "seq", "-out", outPath, "-mitigate", "graduated",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := seq.String()
	for _, want := range []string{
		"All tools", "None",
		"sentinel only", "arcane only", "trajectory only",
		"Labelled metrics", "Mitigation replay",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("three-way output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Both tools") {
		t.Error("three-way run printed the pair-shaped row label")
	}

	verdicts, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(strings.TrimSpace(string(verdicts)), "\n", 2)[0]
	want := "seq,sentinel_alert,sentinel_score,arcane_alert,arcane_score,trajectory_alert,trajectory_score"
	if header != want {
		t.Errorf("verdict header = %q, want %q", header, want)
	}

	// A relaxed run must print the identical tables (headers aside):
	// every aggregate is an order-free count, and each shard's ladder
	// engine sees its clients in their own order.
	tablesOf := func(s string) string {
		i := strings.Index(s, "Alert diversity")
		if i < 0 {
			t.Fatalf("no diversity table in output:\n%s", s)
		}
		return s[i:]
	}
	var relaxed strings.Builder
	err = run(&relaxed, []string{
		"-log", logPath, "-labels", labelPath,
		"-detectors", "sentinel,arcane,trajectory",
		"-mode", "relaxed", "-parallel", "3", "-mitigate", "graduated",
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tablesOf(relaxed.String()), tablesOf(out); got != want {
		t.Errorf("relaxed tables differ from sequential:\n got:\n%s\n want:\n%s", got, want)
	}

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-detectors", "sentinel,arcana"}); err == nil {
		t.Error("unknown detector name accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-detectors", "arcane,arcane"}); err == nil {
		t.Error("duplicate detector accepted")
	}
	if err := run(&sb, []string{"-log", logPath, "-detectors", " , "}); err == nil {
		t.Error("empty detector list accepted")
	}
}
