package core

import (
	"container/list"
	"hash/maphash"
	"slices"
	"sync"

	"ldb/internal/symtab"
)

// Shared symbol-table images. Reading a loader table is the dominant
// cost of attaching (§7), and a long-running debugger attaches the same
// programs again and again. A table is read-only once loaded (see
// symtab.Table), so the process keeps the ones it reads again, keyed by
// the loader text itself, and every debugger and target that attaches a
// program with that text shares one: the loader dictionary, the type
// dictionaries and environment, the entry bodies realized so far, the
// parsed proctable and the validation result. What depends on a
// target's memory — where results — stays with each target.
//
// A text is kept from its second attach on, when that comes soon:
// within the next 64 first attaches of other texts. An image costs an
// order of magnitude more memory than its text, and a process that
// attaches many programs once or twice each, far apart (a scenario
// corpus, a batch of core files), would otherwise fill the cache with
// images nobody asks for again.

// imageCacheBytes bounds the loader text of the images the cache keeps,
// least recently attached first out: one lcc-sized table (2.6 MB of
// loader text) beside hundreds of small ones.
const imageCacheBytes = 4 << 20

var images = imageCache{byText: make(map[string]*image)}

type imageCache struct {
	mu     sync.Mutex        //ldb:lock core.images 60
	byText map[string]*image // guarded by mu
	lru    list.List         // of *image, most recently used first; guarded by mu
	bytes  int               // loader text held; guarded by mu
	// seen holds the hashes of the texts most recently attached for
	// the first time, next the slot the next one overwrites. Guarded by
	// mu.
	seen [64]uint64
	next int
}

var seenSeed = maphash.MakeSeed()

// image is one cache slot; once reads its table.
type image struct {
	text  string
	elem  *list.Element
	once  sync.Once
	table *symtab.Table
	err   error
}

// sharedTable returns the table read from loaderPS. The first attach of
// a text reads it for itself; from the second on (see above), attaches
// share one table, read once (concurrent attaches wait for the one
// read). A text too large for the cache is always read afresh.
func sharedTable(loaderPS string) (*symtab.Table, error) {
	if len(loaderPS) > imageCacheBytes {
		return LoadTable(loaderPS)
	}
	im := images.slot(loaderPS)
	if im == nil {
		return LoadTable(loaderPS)
	}
	im.once.Do(func() { im.table, im.err = LoadTable(loaderPS) })
	return im.table, im.err
}

// slot returns the cache slot for text, making it most recently used,
// or nil when text was not attached recently. A new slot evicts the
// least recently used ones past the bound.
func (c *imageCache) slot(text string) *image {
	c.mu.Lock()
	defer c.mu.Unlock()
	if im, ok := c.byText[text]; ok {
		c.lru.MoveToFront(im.elem)
		return im
	}
	h := maphash.String(seenSeed, text)
	if !slices.Contains(c.seen[:], h) {
		c.seen[c.next] = h
		c.next = (c.next + 1) % len(c.seen)
		return nil
	}
	im := &image{text: text}
	im.elem = c.lru.PushFront(im)
	c.byText[text] = im
	c.bytes += len(text)
	for c.bytes > imageCacheBytes {
		old := c.lru.Remove(c.lru.Back()).(*image)
		delete(c.byText, old.text)
		c.bytes -= len(old.text)
	}
	return im
}

// LoadTable reads a loader table afresh, in forks of the shared base:
// the uncached read that attach shares across debuggers, and what
// cold-connect measurements time. No debugger owns those forks, so a
// table that calls a debugging operator gets notarget, whoever attaches
// it.
func LoadTable(loaderPS string) (*symtab.Table, error) {
	b, err := sharedBase()
	if err != nil {
		return nil, err
	}
	return symtab.Load(b.in, loaderPS)
}
