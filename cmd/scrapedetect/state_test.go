package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divscrape/internal/checkpoint"
)

// splitLog writes the first k lines of src to head and the rest to tail.
func splitLog(t *testing.T, src string, k int, head, tail string) int {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if k <= 0 || k >= len(lines) {
		t.Fatalf("cannot split %d lines at %d", len(lines), k)
	}
	if err := os.WriteFile(head, []byte(strings.Join(lines[:k], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, []byte(strings.Join(lines[k:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return len(lines)
}

// TestSaveLoadStateSmoke is the CLI's stop-at-k proof: replaying a log in
// two halves with -save-state / -load-state between the processes ends in
// the same state file as one uninterrupted run — including when the
// resumed half runs at a different shard count, since the state file is
// topology-independent — and, for sequential runs, writes the same
// verdict CSV.
func TestSaveLoadStateSmoke(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	headLog := filepath.Join(dir, "head.log")
	tailLog := filepath.Join(dir, "tail.log")

	for _, tc := range []struct {
		name               string
		fullArgs, headArgs []string
		tailArgs           []string
	}{
		{
			name:     "shard3-resume-shard5",
			fullArgs: []string{"-parallel", "3"},
			headArgs: []string{"-parallel", "3"},
			tailArgs: []string{"-parallel", "5"},
		},
		{
			name:     "seq-mitigate-resume-seq",
			fullArgs: []string{"-parallel", "0", "-mitigate", "graduated"},
			headArgs: []string{"-parallel", "0", "-mitigate", "graduated"},
			tailArgs: []string{"-parallel", "0", "-mitigate", "graduated"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The verdict CSV needs one total order, so only sequential
			// runs write it; every run writes its final state.
			sequential := tc.fullArgs[1] == "0"
			outArgs := func(name string) []string {
				args := []string{"-save-state", filepath.Join(dir, tc.name+"-"+name+".state")}
				if sequential {
					args = append(args, "-out", filepath.Join(dir, tc.name+"-"+name+".csv"))
				}
				return args
			}
			var full strings.Builder
			if err := run(&full, append(append([]string{"-log", logPath}, outArgs("full")...), tc.fullArgs...)); err != nil {
				t.Fatal(err)
			}

			data, err := os.ReadFile(logPath)
			if err != nil {
				t.Fatal(err)
			}
			k := strings.Count(string(data), "\n") / 2
			splitLog(t, logPath, k, headLog, tailLog)

			state := filepath.Join(dir, tc.name+"-head.state")
			var head, tail strings.Builder
			if err := run(&head, append(append([]string{"-log", headLog}, outArgs("head")...), tc.headArgs...)); err != nil {
				t.Fatal(err)
			}
			if err := run(&tail, append(append([]string{"-log", tailLog, "-load-state", state}, outArgs("tail")...), tc.tailArgs...)); err != nil {
				t.Fatal(err)
			}

			fullState := readFileT(t, filepath.Join(dir, tc.name+"-full.state"))
			if tailState := readFileT(t, filepath.Join(dir, tc.name+"-tail.state")); tailState != fullState {
				t.Fatalf("stop-at-%d + resume ends in a different state than the uninterrupted run (%d vs %d bytes)",
					k, len(tailState), len(fullState))
			}
			if !sequential {
				return
			}
			fullOut := readFileT(t, filepath.Join(dir, tc.name+"-full.csv"))
			headOut := readFileT(t, filepath.Join(dir, tc.name+"-head.csv"))
			tailOut := readFileT(t, filepath.Join(dir, tc.name+"-tail.csv"))
			// Each CSV opens with one header line; drop the resumed half's
			// when stitching.
			_, tailBody, ok := strings.Cut(tailOut, "\n")
			if !ok {
				t.Fatal("tail CSV empty")
			}
			if stitched := headOut + tailBody; stitched != fullOut {
				t.Fatalf("stop-at-%d + resume differs from uninterrupted run (%d vs %d bytes)",
					k, len(stitched), len(fullOut))
			}
		})
	}
}

// TestLoadStateMitigatePresenceMismatch: engine ladder state must not be
// silently dropped or invented across a resume.
func TestLoadStateMitigatePresenceMismatch(t *testing.T) {
	dir := t.TempDir()
	logPath, _ := writeDataset(t, dir)
	var sb strings.Builder

	withEngine := filepath.Join(dir, "with-engine.state")
	if err := run(&sb, []string{"-log", logPath, "-save-state", withEngine, "-mitigate", "graduated"}); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-load-state", withEngine}); err == nil {
		t.Error("state with engine loaded into run without -mitigate")
	}

	withoutEngine := filepath.Join(dir, "without-engine.state")
	if err := run(&sb, []string{"-log", logPath, "-save-state", withoutEngine}); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-load-state", withoutEngine, "-mitigate", "graduated"}); err == nil {
		t.Error("state without engine loaded into run with -mitigate")
	}

	// A corrupt state file must fail loudly, not half-restore.
	if err := os.WriteFile(withEngine, []byte("DVSCgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&sb, []string{"-log", logPath, "-load-state", withEngine}); err == nil {
		t.Error("corrupt state file accepted")
	}
}

// TestSaveStateBytesTopologyIndependent: with the graduated ladder on,
// a sequential run and a relaxed run write byte-identical state files —
// the detectors' checkpoint and the per-shard engines' merged snapshot
// are both canonical, and every client's ladder saw its own requests in
// its own order.
func TestSaveStateBytesTopologyIndependent(t *testing.T) {
	dir := t.TempDir()
	var states [][]byte
	for _, args := range [][]string{
		{"-mode", "seq"},
		{"-mode", "relaxed", "-parallel", "3"},
	} {
		state := filepath.Join(dir, args[1]+".state")
		var sb strings.Builder
		err := run(&sb, append([]string{
			"-log", "testdata/access.log", "-mitigate", "graduated", "-save-state", state,
		}, args...))
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		states = append(states, []byte(readFileT(t, state)))
	}
	if !bytes.Equal(states[0], states[1]) {
		t.Fatalf("relaxed state file differs from sequential (%d vs %d bytes)", len(states[1]), len(states[0]))
	}
}

// TestRelaxedPeriodicCheckpoint: a relaxed run with the ladder on takes
// periodic checkpoints — each one ends the run at a segment boundary,
// drains every shard and continues from the same source — and every
// generation holds exactly the state a sequential run over the same
// prefix of the log saves.
func TestRelaxedPeriodicCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const every = 500
	ckpt := filepath.Join(dir, "relaxed.ckpt")
	var sb strings.Builder
	err := run(&sb, []string{
		"-log", "testdata/access.log", "-mitigate", "graduated",
		"-mode", "relaxed", "-parallel", "3",
		"-checkpoint", ckpt, "-checkpoint-every", "500", "-checkpoint-retain", "2",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Generation 0 is the final save over the whole log; generation 1 is
	// the last periodic checkpoint, taken after the last full segment.
	lines := countLines(t, "testdata/access.log")
	head := filepath.Join(dir, "head.log")
	splitLog(t, "testdata/access.log", lines/every*every, head, filepath.Join(dir, "tail.log"))
	for gen, log := range []string{"testdata/access.log", head} {
		want := filepath.Join(dir, "seq.state")
		if err := run(&sb, []string{
			"-log", log, "-mitigate", "graduated", "-mode", "seq", "-save-state", want,
		}); err != nil {
			t.Fatal(err)
		}
		if got := readFileT(t, checkpoint.GenPath(ckpt, gen)); got != readFileT(t, want) {
			t.Errorf("checkpoint generation %d differs from the sequential state over %s", gen, log)
		}
	}
}

func readFileT(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
