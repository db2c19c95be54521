package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the packages self CPU time is split into, as cpu.<b>
// metrics. Functions outside ldb's layers and the allocator and
// collector land in "other".
var cpuBuckets = []string{
	"ps", "symtab", "core", "expr", "cc", "amem", "frame", "bpt", "nub", "machine", "arch",
	"runtime.malloc", "runtime.gc", "other",
}

// cpuShares reads a runtime/pprof CPU profile and returns each bucket's
// share of the samples, as cpu.<bucket> metrics summing to 1. A missing
// or unreadable profile yields all shares in "other".
func cpuShares(prof []byte) map[string]float64 {
	m := map[string]float64{}
	for _, b := range cpuBuckets {
		m["cpu."+b] = 0
	}
	samples, err := readProfile(prof)
	var total int64
	byBucket := map[string]int64{}
	for _, s := range samples {
		byBucket[classify(s.stack)] += s.count
		total += s.count
	}
	if err != nil || total == 0 {
		m["cpu.other"] = 1
		return m
	}
	for b, n := range byBucket {
		m["cpu."+b] = float64(n) / float64(total)
	}
	return m
}

// classify charges a sample (its stack, innermost function first) to
// the first frame that names a bucket: an ldb layer's package, or the
// runtime's collector or allocator. Library helpers on the way (copies,
// hashing, maps, fmt, strings, ...) are charged to the layer that
// called them; any other runtime frame (scheduler, syscalls, profiler)
// and frames outside ldb end the walk in "other".
func classify(stack []string) string {
	for _, fn := range stack {
		if b := bucket(fn); b != "" {
			return b
		}
		if !helper(fn) {
			break
		}
	}
	return "other"
}

// bucket names the bucket a function belongs to, or "" for none.
func bucket(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "ldb/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets[:11] {
			if pkg == b {
				return b
			}
		}
		return "other"
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, s := range gcFuncs {
			if strings.Contains(rest, s) {
				return "runtime.gc"
			}
		}
		for _, s := range mallocFuncs {
			if strings.Contains(rest, s) {
				return "runtime.malloc"
			}
		}
	}
	return ""
}

// helper reports whether fn is library code working for its caller.
func helper(fn string) bool {
	if !strings.ContainsAny(fn, "./") {
		return true // the runtime's assembly bodies: aeshashbody, memeqbody, ...
	}
	if rest, ok := strings.CutPrefix(fn, "runtime."); ok {
		for _, s := range runtimeHelpers {
			if strings.HasPrefix(rest, s) {
				return true
			}
		}
		return false
	}
	for _, p := range libraryHelpers {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// Prefixes and substrings of function names, by role.
var (
	gcFuncs = []string{
		"gcBgMarkWorker", "gcDrain", "gcAssist", "gcMark", "gcWork", "gcWriteBarrier", "gcFlush",
		"scanobject", "scanblock", "scanstack", "scanframe", "greyobject", "markroot", "markBits",
		"findObject", "wbBuf", "bulkBarrier", "sweep", "(*gcBits)", "typePointers", "gcStart", "gcResetMarkState", "deductSweepCredit",
	}
	mallocFuncs = []string{
		"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "mcache", "mcentral",
		"mheap", "nextFree", "heapSetType", "writeHeapBits", "memclrNoHeapPointers", "rawstring",
		"rawbyteslice", "rawruneslice", "(*spanSet)", "(*pageAlloc)",
	}
	runtimeHelpers = []string{
		"memmove", "memequal", "memhash", "aeshash", "strhash", "nilinterhash", "interhash", "typehash",
		"duffcopy", "duffzero", "typedmemmove", "typedslicecopy", "efaceeq", "ifaceeq", "cmpstring",
		"concatstring", "slicebytetostring", "stringtoslicebyte", "intstring", "convT", "assertE2I",
		"typeAssert", "map", "(*hmap)", "growWork", "evacuate", "(*mspan).base", "spanOf",
		"(*mspan).heapBitsSmallForAddr", "memclr", "spanClass", "headTailIndex",
		// stack unwinding and growth, for the collector's stack scans
		// and for the goroutine whose stack grows
		"(*unwinder)", "pcvalue", "funcspdelta", "step", "findfunc", "funcMaxSPDelta", "readvarint",
		"newstack", "morestack", "copystack",
		// the race detector's instrumentation of the caller's accesses
		"race",
	}
	libraryHelpers = []string{
		"internal/runtime/maps.", "internal/bytealg.", "internal/stringslite.", "fmt.", "strings.",
		"bytes.", "strconv.", "sort.", "slices.", "maps.", "bufio.", "unicode", "encoding/binary.",
		"math.", "errors.", "io.", "sync.", "sync/atomic.", "internal/sync.", "internal/runtime/atomic.",
		"time.", "net.", "type:.",
	}
)

type stackSample struct {
	stack []string // function names, innermost first (inlined frames included)
	count int64
}

// readProfile decodes a gzipped profile.proto into its samples. Only the
// fields it needs are read: Profile.sample (2), .location (4),
// .function (5), .string_table (6); Sample.location_id (1), .value (2);
// Location.id (1), .line (4); Line.function_id (1); Function.id (1),
// .name (2). Repeated scalars may come packed or one per field.
func readProfile(prof []byte) ([]stackSample, error) {
	if len(prof) == 0 {
		return nil, errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var s sample
			var vals []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					ids, err := varints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2:
					vs, err := varints(v, b)
					vals = append(vals, vs...)
					return err
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					stack = append(stack, strs[i])
				}
			}
		}
		out = append(out, stackSample{stack: stack, count: s.count})
	}
	return out, nil
}

// fields walks one protobuf message, calling f with each field's number
// and either its varint value or its length-delimited bytes (b != nil
// only for wire type 2). Fixed-width fields are skipped.
func fields(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errBadProto
		}
		msg = msg[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errBadProto
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wt == 5 {
				w = 4
			}
			if len(msg) < w {
				return errBadProto
			}
			msg = msg[w:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errBadProto
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: wire type %d", errBadProto, wt)
		}
	}
	return nil
}

var errBadProto = errors.New("malformed profile")

// varints returns a repeated varint field's values: one unpacked value
// (b == nil) or a packed run.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errBadProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
