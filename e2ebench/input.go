package main

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"divscrape/internal/detector"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/mitigate"
	"divscrape/internal/trajectory"
	"divscrape/internal/workload"
)

// inputSpec says how one workload's traffic is generated from a seed.
type inputSpec struct {
	// window is the capture length of the generated log.
	window time.Duration
	// population multiplies the human visitors and stealth bots of the
	// calibrated mix; every other actor stays as calibrated.
	population float64
	// guard keeps the request view httpguard builds (provisional status
	// 200, no byte count) for every request, and judges the reference the
	// way the guard does.
	guard bool
}

// input is one workload's generated traffic plus everything the harness
// needs to check the program's answers. The program only ever sees clf
// (replays) or the requests built from views (guard); labels, client
// indices and the reference stay on the harness side.
type input struct {
	clf []byte
	n   int
	// client is the client index (distinct address) of every request, in
	// stream order; clients is their number.
	client  []int32
	clients int
	// malicious is the ground-truth label of every request.
	malicious []bool
	// views are the guard's per-request log view (guard inputs only).
	views []logfmt.Entry
	// remote is each client's "ip:port" peer address and auth maps an
	// authenticated user to its Authorization header (guard inputs only).
	remote []string
	auth   map[string]string
	// ref is the reference outcome of every request, computed by calling
	// the layer functions directly while the traffic is generated.
	ref []outcome
}

// props summarises the traffic properties a performance result depends on.
type props struct {
	requests       int
	clfBytes       int
	clients        int
	reqPerClient   float64
	maliciousShare float64
	topClientShare float64
}

func (in *input) props() props {
	p := props{requests: in.n, clfBytes: len(in.clf), clients: in.clients}
	if in.n == 0 || in.clients == 0 {
		return p
	}
	perClient := make([]int, in.clients)
	mal := 0
	for i, c := range in.client {
		perClient[c]++
		if in.malicious[i] {
			mal++
		}
	}
	top := 0
	for _, k := range perClient {
		top = max(top, k)
	}
	p.reqPerClient = float64(in.n) / float64(in.clients)
	p.maliciousShare = float64(mal) / float64(in.n)
	p.topClientShare = float64(top) / float64(in.n)
	return p
}

// buildInput generates spec's traffic for seed and its reference outcomes.
func buildInput(spec inputSpec, seed uint64) (*input, error) {
	profile := workload.CalibratedProfile(1)
	if spec.population != 1 {
		profile.HumanVisitors = int(float64(profile.HumanVisitors)*spec.population + 0.5)
		profile.StealthBots = int(float64(profile.StealthBots)*spec.population + 0.5)
	}
	gen, err := workload.NewGenerator(workload.Config{Seed: seed, Duration: spec.window, Profile: profile})
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	model, err := trajectory.DefaultModel()
	if err != nil {
		return nil, fmt.Errorf("input: trajectory model: %w", err)
	}
	ref, err := newDirect(model, detector.NewEnricher(iprep.BuildFeed()))
	if err != nil {
		return nil, err
	}
	in := &input{}
	if spec.guard {
		in.auth = make(map[string]string)
	}
	ids := make(map[string]int32)
	var slot reqSlot
	slot.init()
	err = gen.Run(func(ev workload.Event) error {
		e := &ev.Entry
		in.clf = logfmt.AppendCombined(in.clf, e)
		in.clf = append(in.clf, '\n')
		id, ok := ids[e.RemoteAddr]
		if !ok {
			id = int32(len(ids))
			ids[e.RemoteAddr] = id
			if spec.guard {
				in.remote = append(in.remote, e.RemoteAddr+":40000")
			}
		}
		in.client = append(in.client, id)
		in.malicious = append(in.malicious, ev.Label.Malicious())
		if !spec.guard {
			in.ref = append(in.ref, ref.step(e, replayFlow(e), nil))
			return nil
		}
		if e.AuthUser != "-" && e.AuthUser != "" {
			if _, ok := in.auth[e.AuthUser]; !ok {
				in.auth[e.AuthUser] = "Basic " + base64.StdEncoding.EncodeToString([]byte(e.AuthUser+":x"))
			}
		}
		view, err := guardView(e)
		if err != nil {
			return err
		}
		in.views = append(in.views, view)
		slot.fill(&view, in.remote[id], in.auth[view.AuthUser])
		in.ref = append(in.ref, ref.step(&view, guardFlow(&slot.req), nil))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("input: %w", err)
	}
	in.n = len(in.client)
	in.clients = len(ids)
	return in, nil
}

// guardView is the log entry httpguard derives from a request built from
// e: it judges before the response exists, so the status is the
// provisional 200 and the size 0, and the identity is always "-".
func guardView(e *logfmt.Entry) (logfmt.Entry, error) {
	v := *e
	v.Identity, v.Status, v.Bytes = "-", http.StatusOK, 0
	if v.AuthUser == "" {
		v.AuthUser = "-"
	}
	if v.Referer == "" {
		v.Referer = "-"
	}
	if v.UserAgent == "" {
		v.UserAgent = "-"
	}
	if v.Method == "" || v.Proto == "" {
		return v, fmt.Errorf("request %q has no request line a client could send", e.RawRequest)
	}
	var u url.URL
	u.Path, u.RawQuery, _ = strings.Cut(v.Path, "?")
	if got := u.RequestURI(); got != v.Path {
		return v, fmt.Errorf("path %q would reach the guard as %q", v.Path, got)
	}
	return v, nil
}

// reqSlot is one reusable request of the guard's bounded pool. Refilling
// a slot reuses its URL, header map and header value slices, so the
// guard's closed loop allocates nothing on the harness side.
type reqSlot struct {
	req                http.Request
	url                url.URL
	ua, referer, authz [1]string
}

func (s *reqSlot) init() {
	s.req.URL = &s.url
	s.req.Header = make(http.Header, 4)
}

// fill turns s into the request a client would have sent for view.
func (s *reqSlot) fill(view *logfmt.Entry, remote, authz string) {
	r := &s.req
	r.Method, r.Proto, r.RemoteAddr = view.Method, view.Proto, remote
	s.url.Path, s.url.RawQuery, _ = strings.Cut(view.Path, "?")
	clear(r.Header)
	if view.UserAgent != "-" {
		s.ua[0] = view.UserAgent
		r.Header["User-Agent"] = s.ua[:]
	}
	if view.Referer != "-" {
		s.referer[0] = view.Referer
		r.Header["Referer"] = s.referer[:]
	}
	if authz != "" {
		s.authz[0] = authz
		r.Header["Authorization"] = s.authz[:]
	}
}

// numDetectors is the number of judging sides: sentinel, arcane and
// trajectory, in that order everywhere in the benchmark.
const numDetectors = 3

var detectorNames = [numDetectors]string{"sentinel", "arcane", "trajectory"}

// outcome is what the program decided for one request: every detector's
// score and alert, and the enforcement action.
type outcome struct {
	score  [numDetectors]float64
	alerts uint8
	action mitigate.Action
}

func outcomeOf(v []detector.Verdict, a mitigate.Action) outcome {
	o := outcome{action: a}
	for i := range v {
		o.score[i] = v[i].Score
		if v[i].Alert {
			o.alerts |= 1 << i
		}
	}
	return o
}
