// Package iprep provides an IP reputation substrate: IPv4 parsing, a
// longest-prefix-match CIDR trie, reputation categories, and synthetic feed
// construction. Commercial bot-mitigation products (the paper's Distil
// Networks) lean heavily on reputation feeds — datacenter ranges, known
// proxy exits, verified search-engine ranges — so the commercial-style
// detector consumes this database on every request.
package iprep

import (
	"fmt"
	"strconv"
	"strings"

	"divscrape/internal/fnvhash"
)

// ParseIPv4 parses dotted-quad notation into a big-endian uint32.
func ParseIPv4(s string) (uint32, error) {
	var ip uint32
	rest := s
	for octet := 0; octet < 4; octet++ {
		var part string
		if octet < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("iprep: invalid IPv4 %q: missing octet %d", s, octet+2)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		if len(part) == 0 || len(part) > 3 {
			return 0, fmt.Errorf("iprep: invalid IPv4 %q: bad octet %q", s, part)
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("iprep: invalid IPv4 %q: bad octet %q", s, part)
		}
		ip = ip<<8 | uint32(n)
	}
	return ip, nil
}

// FormatIPv4 renders a big-endian uint32 as dotted-quad notation.
func FormatIPv4(ip uint32) string {
	var b [15]byte
	out := strconv.AppendUint(b[:0], uint64(ip>>24), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>16&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip>>8&0xff), 10)
	out = append(out, '.')
	out = strconv.AppendUint(out, uint64(ip&0xff), 10)
	return string(out)
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	// IP is the network address with host bits zeroed.
	IP uint32
	// Bits is the prefix length in [0, 32].
	Bits int
}

// ParseCIDR parses "a.b.c.d/len" notation.
func ParseCIDR(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: missing '/'", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: %w", s, err)
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("iprep: invalid CIDR %q: bad prefix length", s)
	}
	return Prefix{IP: ip & maskFor(bits), Bits: bits}, nil
}

// MustCIDR parses a CIDR literal and panics on error; for package-level
// tables of well-formed constants only.
func MustCIDR(s string) Prefix {
	p, err := ParseCIDR(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Contains reports whether ip falls inside the prefix.
func (p Prefix) Contains(ip uint32) bool {
	return ip&maskFor(p.Bits) == p.IP
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 {
	return uint64(1) << (32 - uint(p.Bits))
}

// String renders the prefix in CIDR notation.
func (p Prefix) String() string {
	return FormatIPv4(p.IP) + "/" + strconv.Itoa(p.Bits)
}

// Nth returns the nth address within the prefix (wrapping within its size).
func (p Prefix) Nth(n uint64) uint32 {
	return p.IP + uint32(n%p.Size())
}

func maskFor(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}

// ShardOf maps a client address string onto one of n shards with
// fnvhash.Shard. An address that does not parse as IPv4 hashes as 0,
// the numeric address enrichment gives it, so state keyed by the string
// lands on the shard the client's requests route to.
func ShardOf(addr string, n int) int {
	ip, err := ParseIPv4(addr)
	if err != nil {
		ip = 0
	}
	return fnvhash.Shard(ip, n)
}
