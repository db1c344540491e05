package detector

import (
	"testing"

	"divscrape/internal/iprep"
	"divscrape/internal/sessions"
)

var sessionKeyUAs = []string{
	"curl/7.58.0",
	"Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/64.0.3282.186 Safari/537.36",
	"",
	"-",
}

// TestSessionKeyEnrichedMatchesHandBuilt: an enriched request — on the
// cache's miss and hit paths alike — and a hand-built one carrying the
// same address and User-Agent land in the same session.
func TestSessionKeyEnrichedMatchesHandBuilt(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	for _, ua := range sessionKeyUAs {
		want := sessions.KeyFor(0x0A000001, ua)
		for pass := 0; pass < 2; pass++ {
			req := e.Enrich(entry("10.0.0.1", ua))
			if got := req.SessionKey(); got != want {
				t.Errorf("UA %q pass %d: enriched key %+v, want %+v", ua, pass, got, want)
			}
		}
		hand := Request{Entry: entry("10.0.0.1", ua), IP: 0x0A000001}
		if got := hand.SessionKey(); got != want {
			t.Errorf("UA %q: hand-built key %+v, want %+v", ua, got, want)
		}
	}
}

// TestSessionKeyFollowsEditedUserAgent: the cached hash belongs to the
// string it was computed for, so editing Entry.UserAgent after
// enrichment must move the request to the new agent's session.
func TestSessionKeyFollowsEditedUserAgent(t *testing.T) {
	e := NewEnricher(nil)
	req := e.Enrich(entry("10.0.0.1", "curl/7.58.0"))
	for _, ua := range []string{"python-requests/2.18.4", "", "curl/7.58.1"} {
		req.Entry.UserAgent = ua
		if got, want := req.SessionKey(), sessions.KeyFor(req.IP, ua); got != want {
			t.Errorf("after editing the UA to %q: key %+v, want %+v", ua, got, want)
		}
	}
	// An equal string at another address is the same agent.
	req.Entry.UserAgent = string([]byte("curl/7.58.0"))
	if got, want := req.SessionKey(), sessions.KeyFor(req.IP, "curl/7.58.0"); got != want {
		t.Errorf("after restoring an equal UA: key %+v, want %+v", got, want)
	}
}

// TestSessionKeySharedEnricherAgrees: the live middleware's enricher and
// the pipeline's key a client identically, so state moves between them
// (checkpoints, rebalancing) without splitting sessions.
func TestSessionKeySharedEnricherAgrees(t *testing.T) {
	e := NewEnricher(iprep.BuildFeed())
	se := NewSharedEnricher(iprep.BuildFeed())
	for pass := 0; pass < 2; pass++ {
		for _, ua := range sessionKeyUAs {
			a := e.Enrich(entry("192.0.2.9", ua))
			var b Request
			se.EnrichInto(&b, entry("192.0.2.9", ua))
			if a.SessionKey() != b.SessionKey() {
				t.Errorf("UA %q pass %d: Enricher key %+v, SharedEnricher key %+v",
					ua, pass, a.SessionKey(), b.SessionKey())
			}
		}
	}
}
