// Command perfbench is ldb's end-to-end benchmark: scripted debug
// sessions driven through core's public API, timed per command
// (startup, attach, break, continue, print, eval, where, step, exit),
// with a separate traced mode that breaks each command's wall time down
// across the layers it crosses. README.md describes the workloads, the
// metrics, and which layer metric should move which end-to-end metric.
//
//	perfbench --workload fig1|corpus|service --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records
// the run's environment (GOMAXPROCS, NumCPU, Go version, GOGC).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	_ "ldb/internal/arch/m68k"
	_ "ldb/internal/arch/mips"
	_ "ldb/internal/arch/sparc"
	_ "ldb/internal/arch/vax"
)

// configs are the five target configurations every workload rotates
// through in equal shares.
var configs = []string{"mips", "mipsbe", "sparc", "m68k", "vax"}

// commands is the shared command vocabulary, in script order.
var commands = []string{"startup", "attach", "break", "continue", "print", "eval", "where", "step", "exit"}

const (
	// A run builds its fixture at least minSetups times and until
	// setupBudget has passed (at most maxSetups times); setup_s is the
	// median.
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 200 * time.Millisecond
	// minSessions keeps at least ten sessions beyond session_p90.
	minSessions = 100
	// warmup is how long a run drives untimed sessions before the
	// timed phase, so that the collector's pacing and the caches have
	// settled when timing starts.
	warmup = 2 * time.Second
)

// fixture is one workload's prepared state: built images, references,
// and (for service) a running debug service.
type fixture interface {
	// limit is the most sessions a run may hold (0: no limit).
	limit() int
	// session runs the script of the k-th session of the run.
	session(s *session, k int)
	// layers adds fixture-wide per-layer metrics after a traced run.
	layers(m map[string]float64)
	close()
}

// workloads maps each workload to its set-up for a run of d, warm-up
// included.
var workloads = map[string]func(seed int64, d time.Duration, traced bool) (fixture, error){
	"fig1":    setupFig1,
	"corpus":  setupCorpus,
	"service": setupService,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig1, corpus or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	env := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "numcpu": runtime.NumCPU(),
		"go": runtime.Version(), "gogc": gogc(),
	}
	out, err := runOne(setup, *seed, time.Duration(*seconds)*time.Second, *trace == 1, env, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: setup %s: %v\n", *name, err)
		return 1
	}
	if err := printJSON(stdout, map[string]any{"env": env}); err != nil {
		return 1
	}
	if err := printJSON(stdout, out); err != nil {
		return 1
	}
	return 0
}

// runOne sets the workload up (timing each set-up; the fixture of the
// last is kept), measures for d, and returns the result.
func runOne(setup func(int64, time.Duration, bool) (fixture, error), seed int64, d time.Duration, traced bool, env map[string]any, stderr io.Writer) (result, error) {
	var fx fixture
	var setups []float64
	for began := time.Now(); len(setups) < minSetups || len(setups) < maxSetups && time.Since(began) < setupBudget; {
		runtime.GC()
		start := time.Now()
		f, err := setup(seed, warmup+d, traced)
		if err != nil {
			if fx != nil {
				fx.close()
			}
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if fx != nil {
			fx.close()
		}
		fx = f
	}
	defer fx.close()

	res := measure(fx, d, traced)
	env["sessions"], env["setup_runs"] = res.sessions, len(setups)
	out := result{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for k, v := range res.layers {
			out.Metrics[k] = metric{v, layerUnit(k)}
		}
		if !coverageOK(res.layers) {
			fmt.Fprintln(stderr, "perfbench: layer parts do not cover 95-105% of some command's wall time")
			out.Correct = false
		}
		return out, nil
	}
	for k, v := range res.e2e {
		out.Metrics[k] = metric{v, e2eUnits[k]}
	}
	out.Metrics["setup_s"] = metric{median(setups), "s"}
	return out, nil
}

func gogc() string {
	if v := os.Getenv("GOGC"); v != "" {
		return v
	}
	return "100"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

var e2eUnits = map[string]string{
	"session_ms": "ms", "session_p90_ms": "ms", "sessions_per_s": "sessions/s", "heap_peak_mb": "MB",
}

func init() {
	for _, c := range commands {
		e2eUnits[c+"_ms"] = "ms"
	}
}

// outcome is what one timed phase produced.
type outcome struct {
	attempted, failed, sessions int
	e2e                         map[string]float64 // untraced run
	layers                      map[string]float64 // traced run
}

// measure runs the fixture's sessions one after another (a closed loop
// with one client): untimed for the warm-up, then timed until the
// deadline has passed and at least minSessions sessions have completed.
// In a traced run every other timed session is traced: the traced ones
// give the per-layer metrics, the untraced ones the baseline for the
// tracing overhead. The warm-up sessions are checked like the others
// and count towards attempted and failed.
func measure(fx fixture, d time.Duration, traced bool) outcome {
	warm := newWorker()
	k := 0
	for start := time.Now(); time.Since(start) < warmup; k++ {
		if lim := fx.limit(); lim > 0 && k >= lim {
			break
		}
		s := warm.newSession(false)
		fx.session(s, k)
		s.finish()
	}
	runtime.GC()
	var prof []byte
	stopProf := func() {}
	if traced {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err == nil {
			stopProf = func() { pprof.StopCPUProfile(); prof = buf.Bytes() }
		}
	}
	heap := startHeapSampler()
	w := newWorker()
	start := time.Now()
	for first := k; time.Since(start) < d || k-first < minSessions; k++ {
		if lim := fx.limit(); lim > 0 && k >= lim {
			logf("all %d prepared sessions used before the deadline", lim)
			break
		}
		s := w.newSession(traced && (k-first)%2 == 0)
		fx.session(s, k)
		s.finish()
	}
	elapsed := time.Since(start)
	samples := heap()
	stopProf()

	plain, tr, lay := w.plain, w.traced, w.lay
	o := outcome{
		attempted: warm.plain.attempted + plain.attempted + tr.attempted,
		failed:    warm.plain.failed + plain.failed + tr.failed,
		sessions:  len(plain.recs) + len(tr.recs),
	}
	if traced {
		o.layers = lay.metrics(plain, tr)
		for k, v := range cpuShares(prof) {
			o.layers[k] = v
		}
		fx.layers(o.layers)
		return o
	}
	o.e2e = endToEnd(plain.recs, elapsed, samples)
	return o
}

// endToEnd computes a run's end-to-end metrics. A command's latency,
// and session_ms, is the median over the configurations of each
// configuration's median: ISAs can tie in clusters (on service, where
// takes 0.08 ms on both mips configurations and 0.25 ms on the other
// three), and a pooled median would then sit at the edge of a cluster
// and jump between runs. session_p90_ms is pooled over all sessions: at
// least 100, so ten lie beyond it, and with five equal shares it lies in
// the middle of the slowest configuration's cluster.
func endToEnd(recs []sessionRec, elapsed time.Duration, heap []heapSample) map[string]float64 {
	byCfg := map[int]*recorder{}
	for _, r := range recs {
		if byCfg[r.cfg] == nil {
			byCfg[r.cfg] = newRecorder()
		}
		byCfg[r.cfg].recs = append(byCfg[r.cfg].recs, r)
	}
	perCfg := func(xs func(*recorder) []float64) float64 {
		var ms []float64
		for _, r := range byCfg {
			if x := xs(r); len(x) > 0 {
				ms = append(ms, median(x))
			}
		}
		return median(ms)
	}
	all := recorder{recs: recs}
	m := map[string]float64{
		"session_ms":     perCfg((*recorder).sessions),
		"session_p90_ms": highPercentile(all.sessions(), 0.9),
		"sessions_per_s": float64(len(recs)) / elapsed.Seconds(),
		"heap_peak_mb":   float64(heapPeak(heap)) / (1 << 20),
	}
	for _, c := range commands {
		m[c+"_ms"] = perCfg(func(r *recorder) []float64 { return r.walls(c) })
	}
	return m
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

// startHeapSampler reads the bytes of heap objects every millisecond
// and returns a function that stops sampling and returns the samples.
func startHeapSampler() func() []heapSample {
	stop := make(chan struct{})
	done := make(chan []heapSample)
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var out []heapSample
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			out = append(out, heapSample{time.Now(), s[0].Value.Uint64()})
			select {
			case <-stop:
				done <- out
				return
			case <-t.C:
			}
		}
	}()
	return func() []heapSample { close(stop); return <-done }
}

// heapPeak is the median over the run's one-second windows of the
// highest heap sampled in each: the collector's cycles put a peak in
// every window, and the median keeps one late or early cycle from
// setting the result.
func heapPeak(samples []heapSample) uint64 {
	if len(samples) == 0 {
		return 0
	}
	var peaks []float64
	from, hi := samples[0].at, uint64(0)
	for _, s := range samples {
		if s.at.Sub(from) >= time.Second {
			peaks = append(peaks, float64(hi))
			from, hi = s.at, 0
		}
		hi = max(hi, s.bytes)
	}
	peaks = append(peaks, float64(hi))
	return uint64(median(peaks))
}
