package main

import (
	"sync/atomic"
	"time"

	"divscrape/internal/checkpoint"
	"divscrape/internal/cluster"
	"divscrape/internal/stream"
)

// The follow-mode failure plane's operator surface: a watchdog that
// notices the state plane or the tail degrading — checkpoint saves
// failing, log reads erroring — and logs + counts each healthy ↔
// degraded transition, plus the /debug/divscrape/health document
// reporting both alongside the checkpoint generation age. The process
// keeps running through either failure (a missed checkpoint degrades
// durability, not detection; a read error is retried with backoff), so
// the watchdog is how an operator learns the service is limping.

// watchdogEvery is the source-entry period between watchdog polls.
const watchdogEvery = 256

// watchdog tracks failure counters across polls. All state is atomic:
// poll runs on the sink goroutine, the health endpoint reads
// concurrently.
type watchdog struct {
	saver *checkpoint.Saver // nil without -checkpoint
	fl    *stream.Follower  // nil without -follow
	logf  func(format string, args ...any)

	degraded    atomic.Bool
	transitions atomic.Uint64
	seenFails   atomic.Uint64
	seenReads   atomic.Uint64
}

func newWatchdog(saver *checkpoint.Saver, fl *stream.Follower, logf func(string, ...any)) *watchdog {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &watchdog{saver: saver, fl: fl, logf: logf}
}

// poll compares the failure counters against the previous poll: new
// failures flip the watchdog degraded (logged and counted once per
// transition), a quiet interval flips it back.
func (w *watchdog) poll() {
	var fails, reads uint64
	if w.saver != nil {
		fails = w.saver.Stats().Failures
	}
	if w.fl != nil {
		reads = w.fl.Stats().ReadErrors
	}
	// Both swaps run unconditionally: short-circuiting the second would
	// skip recording read errors whenever checkpoint failures already
	// tripped the watchdog, and the stale baseline would re-detect them
	// next poll — a spurious extra degraded interval.
	newFails := fails > w.seenFails.Swap(fails)
	newReads := reads > w.seenReads.Swap(reads)
	unhealthy := newFails || newReads
	was := w.degraded.Swap(unhealthy)
	switch {
	case unhealthy && !was:
		w.transitions.Add(1)
		w.logf("degraded: checkpoint failures=%d, follower read errors=%d", fails, reads)
	case !unhealthy && was:
		w.logf("recovered: state plane and tail healthy")
	}
}

// checkpointHealth is the state-plane section of the health document.
type checkpointHealth struct {
	Saves    uint64 `json:"saves"`
	Retries  uint64 `json:"retries"`
	Failures uint64 `json:"failures"`
	// AgeSeconds is how stale the newest generation is; -1 before the
	// first save. Durability going stale shows here long before a
	// restart needs the checkpoint.
	AgeSeconds float64   `json:"age_seconds"`
	LastSave   time.Time `json:"last_save,omitzero"`
	Retain     int       `json:"retain"`
}

// followerHealth is the ingestion section of the health document.
type followerHealth struct {
	ReadErrors  uint64 `json:"read_errors"`
	Rotations   uint64 `json:"rotations"`
	Truncations uint64 `json:"truncations"`
	Skipped     uint64 `json:"skipped"`
}

// healthDoc is the JSON served at /debug/divscrape/health. Healthy is
// mirrored in the HTTP status (200/503) so a load-balancer check needs
// no parsing.
type healthDoc struct {
	Healthy             bool              `json:"healthy"`
	DegradedTransitions uint64            `json:"degraded_transitions"`
	Checkpoint          *checkpointHealth `json:"checkpoint,omitempty"`
	Follower            *followerHealth   `json:"follower,omitempty"`
	// Cluster is the replication plane's membership and delta-flow
	// snapshot; nil without -cluster-listen. A degraded cluster node does
	// not flip Healthy — it keeps enforcing on local state by design, and
	// the section itself says so.
	Cluster *cluster.Status `json:"cluster,omitempty"`
}

// health assembles the document from the watchdog's sources.
func (w *watchdog) health(retain int) healthDoc {
	doc := healthDoc{
		Healthy:             !w.degraded.Load(),
		DegradedTransitions: w.transitions.Load(),
	}
	if w.saver != nil {
		st := w.saver.Stats()
		ch := &checkpointHealth{
			Saves:      st.Saves,
			Retries:    st.Retries,
			Failures:   st.Failures,
			AgeSeconds: -1,
			LastSave:   st.LastSave,
			Retain:     retain,
		}
		if age := w.saver.Age(); age >= 0 {
			ch.AgeSeconds = age.Seconds()
		}
		doc.Checkpoint = ch
	}
	if w.fl != nil {
		fs := w.fl.Stats()
		doc.Follower = &followerHealth{
			ReadErrors:  fs.ReadErrors,
			Rotations:   fs.Rotations,
			Truncations: fs.Truncations,
			Skipped:     fs.Skipped,
		}
	}
	return doc
}
