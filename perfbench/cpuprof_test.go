package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"ldb/internal/ps"
)

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ldb/internal/ps.(*Dict).Get"}, "ps"},
		{[]string{"ldb/internal/arch/vax.(*Vax).Decode"}, "arch"},
		{[]string{"ldb/internal/nub/faultrw.(*RW).Read"}, "nub"},
		{[]string{"ldb/internal/codegen.GenUnit"}, "other"},
		// library helpers are charged to the layer that called them
		{[]string{"aeshashbody", "type:.hash.ldb/internal/ps.dictKey", "runtime.mapaccess2", "ldb/internal/ps.(*Dict).Get"}, "ps"},
		{[]string{"runtime.memmove", "bytes.(*Buffer).Write", "ldb/internal/machine.(*Process).syscall"}, "machine"},
		{[]string{"strconv.formatBits", "fmt.(*pp).printArg", "fmt.Sprintf", "ldb/internal/core.(*Target).Print"}, "core"},
		// the allocator and the collector have their own buckets
		{[]string{"runtime.mallocgc", "runtime.newobject", "ldb/internal/ps.New"}, "runtime.malloc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ldb/internal/ps.New"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.pcvalue", "runtime.(*unwinder).next", "runtime.scanstack", "runtime.markroot"}, "runtime.gc"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "ldb/internal/ps.New"}, "runtime.gc"},
		// scheduler, the benchmark's own code, and unknown frames
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep"}, "other"},
		{[]string{"runtime.selectgo", "net.(*pipe).read", "ldb/internal/nub.ReadMsg"}, "other"},
		{[]string{"time.Now", "ldb/perfbench.(*clientTap).Read", "ldb/internal/nub.ReadMsg"}, "other"},
		{nil, "other"},
	} {
		if got := classify(tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUShares profiles a PostScript loop and checks that the bucket
// shares sum to 1 and put the interpreter first among ldb's layers.
func TestCPUShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profile unavailable: %v", err)
	}
	in := ps.New()
	for end := time.Now().Add(400 * time.Millisecond); time.Now().Before(end); {
		if err := in.RunString("0 1 1 20000 { add } for pop"); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("profile holds no samples")
	}
	m := cpuShares(buf.Bytes())
	if len(m) != len(cpuBuckets) {
		t.Errorf("%d shares, want one per bucket (%d)", len(m), len(cpuBuckets))
	}
	sum, top, topShare := 0.0, "", 0.0
	for k, v := range m {
		sum += v
		// The largest ldb layer; "other" and the runtime's buckets are
		// left out (under -race the detector's runtime outweighs all).
		if v > topShare && k != "cpu.other" && !strings.HasPrefix(k, "cpu.runtime.") {
			top, topShare = k, v
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1: %v", sum, m)
	}
	if top != "cpu.ps" {
		t.Errorf("largest layer share is %s, want cpu.ps: %v", top, m)
	}
}

func TestCPUSharesWithoutProfile(t *testing.T) {
	for _, prof := range [][]byte{nil, []byte("not a profile")} {
		m := cpuShares(prof)
		if m["cpu.other"] != 1 || len(m) != len(cpuBuckets) {
			t.Errorf("cpuShares(%q) = %v, want everything in cpu.other", prof, m)
		}
	}
}
