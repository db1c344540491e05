package main

import (
	"fmt"
	"net/http"
	"time"

	"divscrape/httpguard"
	"divscrape/internal/detector"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/trajectory"
)

// guardRun drives the generated requests through
// httpguard.Guard.Wrap(...).ServeHTTP from one caller, in a closed loop,
// under an event-time clock the harness sets before every request.
type guardRun struct {
	in     *input
	model  *trajectory.Model
	shards int
	out    []outcome
	tm     *timing
	ln     *lane

	guard *httpguard.Guard
	h     http.Handler
	slots []reqSlot
	rw    respWriter
	// clock is the event time of the request being served and cur its
	// sequence number; decided stamps the OnDecision call when tracing.
	clock   time.Time
	cur     int
	decided int64
}

// newGuardRun builds the guard workload with a pool of block requests:
// the closed loop refills the pool's slots outside the timed window, then
// serves them.
func newGuardRun(in *input, out []outcome, tm *timing, model *trajectory.Model, shards, block int, tr *tracer) (*guardRun, error) {
	g := &guardRun{in: in, model: model, shards: shards, out: out, tm: tm,
		slots: make([]reqSlot, block), rw: respWriter{h: make(http.Header, 8)}}
	if tr != nil {
		g.ln = tr.lanes[0]
	}
	for i := range g.slots {
		g.slots[i].init()
	}
	return g, g.build()
}

// build makes a fresh guard: the guard has no reset, so every pass gets a
// new one, built outside the timed window from the already trained model.
func (g *guardRun) build() error {
	policy := mitigate.Graduated()
	guard, err := httpguard.New(httpguard.Config{
		Policy:           &policy,
		EnableTrajectory: true,
		Trajectory:       trajectory.Config{Model: g.model},
		Shards:           g.shards,
		Now:              func() time.Time { return g.clock },
		Sleep:            func(time.Duration) {},
		OnDecision:       g.onDecision,
	})
	if err != nil {
		return fmt.Errorf("guard: %w", err)
	}
	g.guard = guard
	g.h = guard.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	return nil
}

func (g *guardRun) onDecision(_ logfmt.Entry, v httpguard.Verdicts, d mitigate.Decision) {
	if g.ln != nil {
		g.decided = now()
	}
	verdicts := [numDetectors]detector.Verdict{v.Commercial, v.Behavioural, v.Trajectory}
	g.out[g.cur] = outcomeOf(verdicts[:], d.Action)
}

func (g *guardRun) reset() error {
	clear(g.out)
	return g.build()
}

// pass serves every request once. The meter runs only while requests are
// being served, never while the pool is refilled.
func (g *guardRun) pass(m *meter) (passStats, error) {
	in := g.in
	block := len(g.slots)
	for base := 0; base < in.n; base += block {
		k := min(block, in.n-base)
		for i := 0; i < k; i++ {
			seq := base + i
			g.slots[i].fill(&in.views[seq], in.remote[in.client[seq]], in.auth[in.views[seq].AuthUser])
		}
		g.ln.mark()
		m.start()
		t0, c0 := now(), cpuNow()
		for i := 0; i < k; i++ {
			seq := base + i
			g.clock, g.cur = in.views[seq].Time, seq
			g.tm.start(uint64(seq))
			start := g.ln.enter(layerDecide)
			g.h.ServeHTTP(&g.rw, &g.slots[i].req)
			if g.ln != nil {
				g.ln.record(layerDecide, start, g.decided, uint64(seq))
				g.ln.leave(layerRespond, g.decided, uint64(seq))
			}
			g.tm.stop(uint64(seq))
			g.rw.reset()
		}
		if k == block {
			g.tm.add(now()-t0, cpuNow()-c0)
		}
		m.stop()
	}
	h := g.guard.Health()
	st := passStats{failed: h.Shed + h.DegradedRequests}
	for _, s := range g.guard.State().PerShard {
		st.clients += s.EngineClients
	}
	return st, nil
}

// respWriter is the one ResponseWriter the closed loop reuses: it keeps
// the status and discards the body.
type respWriter struct {
	h      http.Header
	status int
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func (w *respWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
}
