package main

import (
	"strings"
	"time"

	"ldb/internal/nub"
)

// partSample is one traced command's breakdown.
type partSample struct {
	wall, wireWait, exprWait, serve, run time.Duration
	alloc                                uint64
	roundTrips, bytes, psBytes           int64
}

// parts returns the command's layer parts: core self, expression
// server, wire transit, nub serve, machine run. Core self and transit
// are what remains of the wall and wire waits, floored at zero.
func (p partSample) parts() (self, expr, transit, serve, run time.Duration) {
	self = max(0, p.wall-p.wireWait-p.exprWait)
	transit = max(0, p.wireWait-p.serve-p.run)
	return self, p.exprWait, transit, p.serve, p.run
}

// cmdSums totals one command's traced samples.
type cmdSums struct {
	n                                     int
	wall, self, expr, transit, serve, run time.Duration
	wireWait                              time.Duration
	alloc                                 uint64
	roundTrips, bytes, psBytes, insns     int64
}

// layerSums totals the traced sessions of one worker.
type layerSums struct {
	cmds map[string]*cmdSums
	// simulator counter deltas over the commands that run the target
	steps, hits, blockInsns int64
	// client-side counters at the end of each traced session
	cacheHits, cacheMisses, batched, msgs int64
}

func newLayerSums() *layerSums { return &layerSums{cmds: map[string]*cmdSums{}} }

func (l *layerSums) of(cmd string) *cmdSums {
	c := l.cmds[cmd]
	if c == nil {
		c = &cmdSums{}
		l.cmds[cmd] = c
	}
	return c
}

func (l *layerSums) add(cmd string, p partSample) {
	c := l.of(cmd)
	self, expr, transit, serve, run := p.parts()
	c.n++
	c.wall += p.wall
	c.self += self
	c.expr += expr
	c.transit += transit
	c.serve += serve
	c.run += run
	c.wireWait += p.wireWait
	c.alloc += p.alloc
	c.roundTrips += p.roundTrips
	c.bytes += p.bytes
	c.psBytes += p.psBytes
}

// sim adds the simulator counters a command moved.
func (l *layerSums) sim(cmd string, now, before nub.SimStatsReport) {
	l.of(cmd).insns += now.Steps - before.Steps
	l.steps += now.Steps - before.Steps
	l.hits += now.Hits - before.Hits
	l.blockInsns += now.BlockInsns - before.BlockInsns
}

// client adds a traced session's client-side counters; the SimStats
// requests the trace itself sent are not the session's traffic.
func (l *layerSums) client(st nub.StatsSnapshot, simCalls int64) {
	l.cacheHits += st.CacheHits
	l.cacheMisses += st.CacheMisses
	l.batched += st.BatchedMsgs
	l.msgs += st.MsgsSent - st.Batches + st.BatchedMsgs - simCalls
}

// metrics turns the traced sums into the per-layer metrics: per-command
// means (so the parts add up to the mean wall time), ratios, and the
// tracing overhead — the traced minus the untraced median of each
// command, from the sessions of the same run.
func (l *layerSums) metrics(plain, traced *recorder) map[string]float64 {
	m := map[string]float64{}
	var runTime time.Duration
	for _, cmd := range commands {
		c := l.of(cmd)
		n := float64(max(c.n, 1))
		mean := func(d time.Duration) float64 { return ms(d) / n }
		m["core."+cmd+".self_ms"] = mean(c.self)
		m["core."+cmd+".alloc_kb"] = float64(c.alloc) / 1024 / n
		m["trace."+cmd+".wall_ms"] = mean(c.wall)
		m["trace."+cmd+".coverage"] = ratio(float64(c.self+c.expr+c.transit+c.serve+c.run), float64(c.wall))
		m["trace."+cmd+".overhead_ms"] = median(traced.walls(cmd)) - median(plain.walls(cmd))
		if cmd != "startup" {
			m["wire."+cmd+".round_trips"] = float64(c.roundTrips) / n
			m["wire."+cmd+".bytes"] = float64(c.bytes) / n
			m["wire."+cmd+".wait_ms"] = mean(c.wireWait)
			m["nub."+cmd+".serve_ms"] = mean(c.serve)
		}
		if machineCmds[cmd] {
			m["machine."+cmd+".run_ms"] = mean(c.run)
			m["machine."+cmd+".insns"] = float64(c.insns) / n
			runTime += c.run
		}
	}
	ev := l.of("eval")
	m["expr.eval.wait_ms"] = ms(ev.expr) / float64(max(ev.n, 1))
	m["expr.eval.ps_bytes"] = float64(ev.psBytes) / float64(max(ev.n, 1))
	m["trace.session.overhead_ms"] = median(traced.sessions()) - median(plain.sessions())
	m["nub.client.cache_hit_ratio"] = ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses))
	m["nub.client.batched_frac"] = ratio(float64(l.batched), float64(l.msgs))
	m["machine.mips"] = ratio(float64(l.steps)/1e6, runTime.Seconds())
	m["machine.decode_hit_ratio"] = ratio(float64(l.hits), float64(l.steps))
	m["machine.fused_frac"] = ratio(float64(l.blockInsns), float64(l.steps))
	m["nub.service.shared_hit_ratio"] = 0 // no service: set by the service fixture
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coverageOK reports whether every command's parts cover 95-105% of its
// wall time.
func coverageOK(m map[string]float64) bool {
	for _, cmd := range commands {
		c := m["trace."+cmd+".coverage"]
		if c < 0.95 || c > 1.05 {
			return false
		}
	}
	return true
}

// layerUnit names the unit of a per-layer metric from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_kb"):
		return "KiB"
	case strings.HasSuffix(name, "_bytes"), strings.HasSuffix(name, ".bytes"):
		return "bytes"
	case strings.HasSuffix(name, ".round_trips"), strings.HasSuffix(name, ".insns"):
		return "count"
	case name == "machine.mips":
		return "Minsn/s"
	}
	return "ratio"
}
