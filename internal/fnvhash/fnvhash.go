// Package fnvhash provides inline, allocation-free FNV-1a hashing. It is
// the single home of the FNV constants so every component that partitions
// or keys by client — session keying, pipeline sharding, the HTTP guard's
// shard routing — folds bytes the same way, and of Shard, the one rule
// that maps a client to its shard.
package fnvhash

const (
	offset32 = 2166136261
	prime32  = 16777619
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// String32 returns the 32-bit FNV-1a hash of s.
func String32(s string) uint32 {
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// String64 returns the 64-bit FNV-1a hash of s.
func String64(s string) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Bytes64 returns the 64-bit FNV-1a hash of b; the state snapshot
// container uses it as its integrity checksum.
func Bytes64(b []byte) uint64 {
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	return h
}

// IP32 returns the 32-bit FNV-1a hash of a numeric IPv4 address, folding
// its four bytes low-to-high.
func IP32(ip uint32) uint32 {
	h := uint32(offset32)
	for i := 0; i < 4; i++ {
		h ^= ip >> (8 * i) & 0xff
		h *= prime32
	}
	return h
}

// Shard maps a numeric IPv4 address onto one of n shards (n > 0). It is
// the partition rule every sharded component shares — the relaxed
// pipeline, httpguard's shard routing and resharding, and per-shard
// state restores — so one client's state lands on the same shard index
// whichever of them placed it.
func Shard(ip uint32, n int) int {
	return int(IP32(ip) % uint32(n))
}
