package divscrape_test

import (
	"bytes"
	"testing"
	"time"

	"divscrape"
)

func TestAnalyzeEndToEnd(t *testing.T) {
	gen, err := divscrape.NewGenerator(divscrape.GeneratorConfig{
		Seed:     11,
		Duration: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	pair, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	summary, err := divscrape.Analyze(gen, pair)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Total == 0 {
		t.Fatal("empty run")
	}
	if summary.Contingency.Total() != summary.Total {
		t.Error("contingency does not partition the stream")
	}
	if !summary.Labelled {
		t.Error("generator runs carry labels")
	}
	com := summary.Commercial()
	if com.Total() != summary.Total {
		t.Error("confusion matrix incomplete")
	}
}

// The file-based path must agree exactly with the in-memory path: write a
// dataset, re-read it through AnalyzeLog, and compare contingency tables.
func TestAnalyzeLogMatchesInMemory(t *testing.T) {
	cfg := divscrape.GeneratorConfig{Seed: 23, Duration: 90 * time.Minute}

	genA, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairA, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := divscrape.Analyze(genA, pairA)
	if err != nil {
		t.Fatal(err)
	}

	genB, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf, labelBuf bytes.Buffer
	n, err := divscrape.WriteDataset(genB, &logBuf, &labelBuf)
	if err != nil {
		t.Fatal(err)
	}
	pairB, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	fromLog, err := divscrape.AnalyzeLog(&logBuf, pairB)
	if err != nil {
		t.Fatal(err)
	}

	if fromLog.Total != n || fromLog.Total != inMemory.Total {
		t.Fatalf("totals differ: log %d, in-memory %d, written %d",
			fromLog.Total, inMemory.Total, n)
	}
	if fromLog.Contingency != inMemory.Contingency {
		t.Errorf("contingency differs:\n log:       %+v\n in-memory: %+v",
			fromLog.Contingency, inMemory.Contingency)
	}
	if fromLog.Labelled {
		t.Error("raw logs carry no labels")
	}
}

// The relaxed facade entry points must reproduce the sequential tables
// exactly: every aggregate is a commutative count, so dropping the
// cross-client delivery order changes nothing. This is the facade-level
// face of the pipeline's relaxed-equivalence suite.
func TestAnalyzeShardedRelaxedMatchesSequential(t *testing.T) {
	cfg := divscrape.GeneratorConfig{Seed: 31, Duration: 2 * time.Hour}

	genA, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := divscrape.Analyze(genA, pair)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 3, 8} {
		genB, err := divscrape.NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		relaxed, err := divscrape.AnalyzeShardedRelaxed(genB, shards)
		if err != nil {
			t.Fatal(err)
		}
		if relaxed.Total != seq.Total {
			t.Fatalf("shards=%d: totals differ: relaxed %d, sequential %d",
				shards, relaxed.Total, seq.Total)
		}
		if relaxed.Contingency != seq.Contingency {
			t.Errorf("shards=%d: contingency differs:\n relaxed:    %+v\n sequential: %+v",
				shards, relaxed.Contingency, seq.Contingency)
		}
		if relaxed.Commercial() != seq.Commercial() || relaxed.Behavioural() != seq.Behavioural() {
			t.Errorf("shards=%d: labelled confusion matrices differ between modes", shards)
		}
		if !relaxed.Labelled {
			t.Error("generator runs carry labels")
		}
	}

	// Log replay — parallel parse feeding the relaxed pipeline — must
	// agree too.
	genC, err := divscrape.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var logBuf, labelBuf bytes.Buffer
	if _, err := divscrape.WriteDataset(genC, &logBuf, &labelBuf); err != nil {
		t.Fatal(err)
	}
	fromLog, err := divscrape.AnalyzeLogShardedRelaxed(&logBuf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if fromLog.Total != seq.Total || fromLog.Contingency != seq.Contingency {
		t.Errorf("relaxed log replay differs: %+v vs %+v", fromLog.Contingency, seq.Contingency)
	}
	if fromLog.Labelled {
		t.Error("raw logs carry no labels")
	}
}

func TestDetectorPairInspectAndReset(t *testing.T) {
	pair, err := divscrape.NewDetectorPair()
	if err != nil {
		t.Fatal(err)
	}
	entry := divscrape.Entry{
		RemoteAddr: "172.16.0.9", Identity: "-", AuthUser: "-",
		Time:   time.Date(2018, 3, 11, 12, 0, 0, 0, time.UTC),
		Method: "GET", Path: "/api/price/1", Proto: "HTTP/1.1",
		Status: 200, Bytes: 400, Referer: "-",
		UserAgent: "python-requests/2.18.4",
	}
	vc, vb := pair.Inspect(entry)
	if !vc.Alert {
		t.Error("commercial detector should convict a tool UA from a datacenter")
	}
	if vb.Alert {
		t.Error("behavioural detector should still be warming up")
	}
	req := pair.Enrich(entry)
	if req.IP == 0 {
		t.Error("Enrich did not parse the address")
	}
	pair.Reset()
	vc2, _ := pair.Inspect(entry)
	if vc2.Alert != vc.Alert {
		t.Error("reset changed first-request behaviour")
	}
}

func TestCalibratedProfileExported(t *testing.T) {
	p := divscrape.CalibratedProfile(1)
	if p.Total() == 0 {
		t.Error("empty calibrated profile")
	}
}
