package detector

import (
	"divscrape/internal/fnvhash"
	"divscrape/internal/iprep"
	"divscrape/internal/logfmt"
	"divscrape/internal/uaparse"
)

// Enricher turns raw log entries into Requests, caching the expensive
// parses: User-Agent strings repeat heavily (a handful of browser strings
// cover most human traffic) and reputation lookups repeat per client.
// The UA cache also holds each string's session-key hash, so the
// detectors keying sessions by (IP, UA) share one hash per distinct
// string instead of each hashing every request's UA.
// Enricher is not safe for concurrent use; the pipeline owns one.
type Enricher struct {
	rep     *iprep.DB
	uaCache map[string]uaInfo
	ipCache map[string]ipInfo
	seq     uint64
}

// uaInfo is a cached User-Agent: its parse and its FNV-1a hash.
type uaInfo struct {
	info uaparse.Info
	hash uint64
}

// parseUA builds the cache entry for a User-Agent string.
func parseUA(userAgent string) uaInfo {
	return uaInfo{info: uaparse.Parse(userAgent), hash: fnvhash.String64(userAgent)}
}

// setUA fills the request's User-Agent fields from a cache entry.
func (req *Request) setUA(ua uaInfo) {
	req.UA = ua.info
	req.uaHash = ua.hash
	req.uaHashOf = req.Entry.UserAgent
}

type ipInfo struct {
	ip  uint32
	cat iprep.Category
}

// NewEnricher returns an enricher resolving reputation against rep, which
// may be nil to disable reputation enrichment.
func NewEnricher(rep *iprep.DB) *Enricher {
	return &Enricher{
		rep:     rep,
		uaCache: make(map[string]uaInfo, 1024),
		ipCache: make(map[string]ipInfo, 4096),
	}
}

// Enrich converts one entry, assigning the next sequence number.
func (e *Enricher) Enrich(entry logfmt.Entry) Request {
	var req Request
	e.EnrichInto(&req, entry)
	return req
}

// EnrichInto is Enrich with a caller-owned destination, so hot loops can
// reuse one Request (or a pooled one) instead of allocating per record.
// Every field of *req is overwritten.
func (e *Enricher) EnrichInto(req *Request, entry logfmt.Entry) {
	req.Seq = e.seq
	req.Entry = entry
	e.seq++

	ua, ok := e.uaCache[entry.UserAgent]
	if !ok {
		ua = parseUA(entry.UserAgent)
		// Bound the cache against adversarial UA churn.
		if len(e.uaCache) < 1<<16 {
			e.uaCache[entry.UserAgent] = ua
		}
	}
	req.setUA(ua)

	info, ok := e.ipCache[entry.RemoteAddr]
	if !ok {
		if ip, err := iprep.ParseIPv4(entry.RemoteAddr); err == nil {
			info.ip = ip
			if e.rep != nil {
				info.cat, _ = e.rep.Lookup(ip)
			}
		}
		if len(e.ipCache) < 1<<20 {
			e.ipCache[entry.RemoteAddr] = info
		}
	}
	req.IP = info.ip
	req.IPCat = info.cat
}

// Seq returns the number of entries enriched so far.
func (e *Enricher) Seq() uint64 { return e.seq }

// Reset clears caches and the sequence counter. The cache maps are cleared
// in place — their buckets stay allocated, so replaying a dataset after a
// reset re-warms without re-growing them.
func (e *Enricher) Reset() {
	clear(e.uaCache)
	clear(e.ipCache)
	e.seq = 0
}
