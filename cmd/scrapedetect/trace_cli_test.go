package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divscrape/internal/trace"
)

// readTraceRecords decodes a -trace-out JSONL file.
func readTraceRecords(t *testing.T, path string) []trace.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []trace.Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r trace.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not a flight record: %v\n%s", len(recs)+1, err, sc.Text())
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// -trace-out streams every captured flight record as JSON lines, in
// capture order, with per-detector verdicts attached.
func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	tracePath := filepath.Join(dir, "flight.jsonl")

	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	// The recorder modes default to the sequential pipeline so feature
	// snapshots stay coherent.
	if !strings.Contains(sb.String(), "mode=seq") {
		t.Errorf("-trace-out did not default to sequential:\n%s", firstLine(sb.String()))
	}

	recs := readTraceRecords(t, tracePath)
	if len(recs) == 0 {
		t.Fatal("no flight records written")
	}
	var sawFeatures bool
	for i, r := range recs {
		if r.Sampled == "" {
			t.Fatalf("record %d written without a sampling reason: %+v", i, r)
		}
		if len(r.Detectors) != 2 {
			t.Fatalf("record %d carries %d detector records, want 2: %+v", i, len(r.Detectors), r)
		}
		if r.Client == "" || r.Time.IsZero() {
			t.Fatalf("record %d missing identity: %+v", i, r)
		}
		if i > 0 && r.Seq <= recs[i-1].Seq {
			t.Fatalf("records out of capture order: seq %d after %d", r.Seq, recs[i-1].Seq)
		}
		for _, dr := range r.Detectors {
			if len(dr.Features) > 0 {
				sawFeatures = true
			}
		}
	}
	if !sawFeatures {
		t.Error("no sequential flight record carries a feature snapshot")
	}
}

// -explain always captures the named client and prints its provenance
// timeline — per-detector verdicts, features and rung transitions —
// after the report tables.
func TestRunExplain(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	tracePath := filepath.Join(dir, "flight.jsonl")

	// Use the flight recorder itself to pick a client that alerted, so
	// the explain run has a story to tell.
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-trace-out", tracePath}); err != nil {
		t.Fatal(err)
	}
	client := ""
	for _, r := range readTraceRecords(t, tracePath) {
		if r.Alerted {
			client = r.Client
			break
		}
	}
	if client == "" {
		t.Fatal("dataset produced no alerted flight record to explain")
	}

	sb.Reset()
	if err := run(&sb, []string{"-log", logPath, "-mitigate", "graduated", "-explain", client}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "provenance for "+client+":") {
		t.Fatalf("explain timeline missing from output:\n%s", out)
	}
	tail := out[strings.Index(out, "provenance for "):]
	for _, want := range []string{"alerted=", "sentinel", "arcane", "features:", "action="} {
		if !strings.Contains(tail, want) {
			t.Errorf("explain timeline missing %q:\n%s", want, tail)
		}
	}
	// The report tables still precede the timeline.
	if !strings.Contains(out, "Alert diversity") {
		t.Error("detection tables missing from explain run")
	}
}

// -explain without the sequential pipeline would serve feature-less
// timelines in no single order; the CLI refuses the degraded form.
func TestRunExplainRequiresSequential(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	var sb strings.Builder
	if err := run(&sb, []string{"-log", logPath, "-mode", "relaxed", "-explain", "10.0.0.1"}); err == nil {
		t.Error("-explain accepted with -mode relaxed")
	}
	if err := run(&sb, []string{"-log", logPath, "-parallel", "4", "-explain", "10.0.0.1"}); err == nil {
		t.Error("-explain accepted with -parallel 4")
	}
}
