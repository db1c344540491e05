package arcane

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/statecodec"
)

// TestRecycledSessionsMatchFresh pins the Recycle contract: session values
// recycled from catalogue sweeps of 10k+ distinct products must behave
// exactly as freshly constructed ones. A detector that hosted the sweeps
// and a fresh detector then see the same workload, and their verdicts and
// final snapshots must be identical.
func TestRecycledSessionsMatchFresh(t *testing.T) {
	events := snapEvents(t, 23)
	recycled := newDet(t)
	enr := detector.NewEnricher(iprep.BuildFeed())
	at := events[0].Entry.Time.Add(-24 * time.Hour)
	swept := map[*session]bool{}
	for s := 0; s < 4; s++ {
		ip := "198.51.100." + strconv.Itoa(10+s)
		var req detector.Request
		for id := 0; id < 10050; id++ {
			at = at.Add(50 * time.Millisecond)
			enr.EnrichInto(&req, logfmt.Entry{
				RemoteAddr: ip, Identity: "-", AuthUser: "-", Time: at, Method: "GET",
				Path: "/product/" + strconv.Itoa(id*7+s), Proto: "HTTP/1.1",
				Status: 200, Bytes: 1000, Referer: "-", UserAgent: "python-requests/2.18.4",
			})
			recycled.Inspect(&req)
		}
		st := recycled.store.Peek(req.SessionKey())
		if st == nil || st.products.Len() < 10000 {
			t.Fatalf("sweep %d did not build a 10k-product session", s)
		}
		swept[st] = true
	}
	if n := recycled.EvictBefore(at.Add(time.Second)); n != len(swept) {
		t.Fatalf("evicted %d sessions, want the %d sweeps", n, len(swept))
	}

	fresh := newDet(t)
	enrR := detector.NewEnricher(iprep.BuildFeed())
	enrF := detector.NewEnricher(iprep.BuildFeed())
	reused := 0
	for i := range events {
		var reqR, reqF detector.Request
		enrR.EnrichInto(&reqR, events[i].Entry)
		enrF.EnrichInto(&reqF, events[i].Entry)
		got, want := recycled.Inspect(&reqR), fresh.Inspect(&reqF)
		if got != want {
			t.Fatalf("event %d: recycled detector %+v, fresh detector %+v", i, got, want)
		}
		if st := recycled.store.Peek(reqR.SessionKey()); swept[st] {
			delete(swept, st)
			reused++
		}
	}
	if len(swept) != 0 {
		t.Fatalf("only %d of the recycled sweep sessions went back into service", reused)
	}

	wr, wf := statecodec.NewWriter(), statecodec.NewWriter()
	recycled.SnapshotInto(wr)
	fresh.SnapshotInto(wf)
	if err := wr.Err(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wr.Bytes(), wf.Bytes()) {
		t.Fatal("snapshot of the recycled detector differs from the fresh detector's")
	}
}
