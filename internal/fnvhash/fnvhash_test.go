package fnvhash

import (
	"hash/fnv"
	"testing"
)

// The inline folds must agree with the stdlib implementation bit for bit.
func TestMatchesStdlib(t *testing.T) {
	for _, s := range []string{"", "a", "Mozilla/5.0 (X11; Linux x86_64)", "10.1.2.3"} {
		h32 := fnv.New32a()
		h32.Write([]byte(s))
		if got := String32(s); got != h32.Sum32() {
			t.Errorf("String32(%q) = %#x, want %#x", s, got, h32.Sum32())
		}
		h64 := fnv.New64a()
		h64.Write([]byte(s))
		if got := String64(s); got != h64.Sum64() {
			t.Errorf("String64(%q) = %#x, want %#x", s, got, h64.Sum64())
		}
	}
}

func TestIP32FoldsLowByteFirst(t *testing.T) {
	ip := uint32(0x0a010203) // 10.1.2.3 big-endian numeric
	h := fnv.New32a()
	h.Write([]byte{0x03, 0x02, 0x01, 0x0a})
	if got := IP32(ip); got != h.Sum32() {
		t.Errorf("IP32 = %#x, want %#x", got, h.Sum32())
	}
	if IP32(1) == IP32(2) {
		t.Error("adjacent IPs collide")
	}
}

func TestShardIsIP32ModN(t *testing.T) {
	for _, n := range []int{1, 3, 8} {
		for _, ip := range []uint32{0, 1, 0x0a010203, ^uint32(0)} {
			if got, want := Shard(ip, n), int(IP32(ip)%uint32(n)); got != want {
				t.Errorf("Shard(%#x, %d) = %d, want %d", ip, n, got, want)
			}
		}
	}
}

func TestNoAllocs(t *testing.T) {
	s := "Mozilla/5.0 (X11; Linux x86_64)"
	if a := testing.AllocsPerRun(100, func() { String64(s) }); a != 0 {
		t.Errorf("String64 allocates %.1f/op", a)
	}
}
