package nub

import (
	"encoding/binary"
	"sort"

	"ldb/internal/amem"
)

// memCache is the client-side read-through cache over the wire's fetch
// requests. It holds raw target bytes keyed by address range, one range
// list per space (only code and data travel on the wire). Stores write
// through: the cached copy is patched or evicted before the store's
// reply even returns, so a read after a write always sees the write.
// A continue invalidates everything — the target ran, so no cached
// state may survive the resume.
//
// Values are byte images in the target's own order; FetchInt requests
// are served by decoding with the target's byte order, exactly what the
// nub's own Load does on the other end of the wire.
type memCache struct {
	spaces map[amem.Space][]cacheRange
	bytes  int // total cached payload, to bound growth
}

type cacheRange struct {
	addr uint32
	data []byte
}

// end is one past the last cached address, in uint64: a range abutting
// 0xFFFFFFFF ends at 1<<32, which uint32 arithmetic would wrap to 0
// and turn every comparison against it inside out.
func (r cacheRange) end() uint64 { return uint64(r.addr) + uint64(len(r.data)) }

// maxCacheBytes bounds the cache; past it the whole cache is dropped
// rather than managed — a debugger's working set never gets near it.
const maxCacheBytes = 4 << 20

func newMemCache() *memCache {
	return &memCache{spaces: make(map[amem.Space][]cacheRange)}
}

// lookup returns the cached bytes for [addr, addr+n) if some single
// range holds them all.
func (c *memCache) lookup(space amem.Space, addr uint32, n int) ([]byte, bool) {
	ranges := c.spaces[space]
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].end() > uint64(addr) })
	if i == len(ranges) || ranges[i].addr > addr || uint64(addr)+uint64(n) > ranges[i].end() {
		return nil, false
	}
	off := addr - ranges[i].addr
	return ranges[i].data[off : off+uint32(n)], true
}

// insert records freshly fetched (or freshly stored) bytes, coalescing
// with overlapping and adjacent ranges so coverage grows into contiguous
// runs instead of fragmenting.
func (c *memCache) insert(space amem.Space, addr uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	if c.bytes+len(data) > maxCacheBytes {
		c.reset()
	}
	nr := cacheRange{addr: addr, data: append([]byte(nil), data...)}
	ranges := c.spaces[space]
	var merged []cacheRange
	for _, r := range ranges {
		switch {
		case r.end() < uint64(nr.addr) || uint64(r.addr) > nr.end():
			merged = append(merged, r) // disjoint, not even adjacent
		default:
			// Overlapping or adjacent: fold r into nr, with nr's bytes
			// winning where they overlap (they are newer).
			lo := min(r.addr, nr.addr)
			hi := max(r.end(), nr.end())
			buf := make([]byte, hi-uint64(lo))
			copy(buf[r.addr-lo:], r.data)
			copy(buf[nr.addr-lo:], nr.data)
			nr = cacheRange{addr: lo, data: buf}
		}
	}
	merged = append(merged, nr)
	sort.Slice(merged, func(i, j int) bool { return merged[i].addr < merged[j].addr })
	c.set(space, merged)
}

// patch applies a store to the cached copy: ranges fully covering the
// write are updated in place; ranges partially overlapping it are
// evicted (correct and simpler than splitting).
func (c *memCache) patch(space amem.Space, addr uint32, data []byte) {
	if len(data) == 0 {
		return
	}
	end := uint64(addr) + uint64(len(data))
	ranges := c.spaces[space]
	var kept []cacheRange
	for _, r := range ranges {
		switch {
		case r.end() <= uint64(addr) || uint64(r.addr) >= end:
			kept = append(kept, r)
		case r.addr <= addr && r.end() >= end:
			copy(r.data[addr-r.addr:], data)
			kept = append(kept, r)
		default:
			// partial overlap: evict
		}
	}
	c.set(space, kept)
}

// invalidate evicts every range overlapping [addr, addr+n).
func (c *memCache) invalidate(space amem.Space, addr uint32, n int) {
	end := uint64(addr) + uint64(n)
	ranges := c.spaces[space]
	var kept []cacheRange
	for _, r := range ranges {
		if r.end() <= uint64(addr) || uint64(r.addr) >= end {
			kept = append(kept, r)
		}
	}
	c.set(space, kept)
}

// reset drops everything — called when the target resumes.
func (c *memCache) reset() {
	c.spaces = make(map[amem.Space][]cacheRange)
	c.bytes = 0
}

// set replaces one space's ranges, keeping the payload total current.
func (c *memCache) set(space amem.Space, ranges []cacheRange) {
	c.bytes += payload(ranges) - payload(c.spaces[space])
	c.spaces[space] = ranges
}

func payload(ranges []cacheRange) int {
	n := 0
	for _, r := range ranges {
		n += len(r.data)
	}
	return n
}

// serveInt decodes a cached integer in the target's byte order. Sizes
// past the wire's 4-byte word are never served: the nub rejects them,
// and the cache must not succeed where the wire would error.
func (c *memCache) serveInt(order binary.ByteOrder, space amem.Space, addr uint32, size int) (uint64, bool) {
	if order == nil || size <= 0 || size > 4 {
		return 0, false
	}
	b, ok := c.lookup(space, addr, size)
	if !ok {
		return 0, false
	}
	return amem.ReadInt(order, b), true
}
