package main

import (
	"testing"
	"time"
)

// TestWorkloads runs a few sessions of every workload, plain and traced,
// and requires every command to succeed with the expected values.
func TestWorkloads(t *testing.T) {
	corpus := &corpusFix{cases: make([]corpusCase, 10)}
	for k := range 2 {
		if err := buildCases(int64(k), corpus.cases[k*5:k*5+5]); err != nil {
			t.Fatal(err)
		}
	}
	fig1, err := setupFig1(2, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := setupService(3, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	for name, fx := range map[string]fixture{"fig1": fig1, "corpus": corpus, "service": svc} {
		w := newWorker()
		for k := range 10 {
			s := w.newSession(k%2 == 1)
			fx.session(s, k)
			s.finish()
		}
		for _, r := range []*recorder{w.plain, w.traced} {
			if r.failed != 0 || len(r.recs) != 5 {
				t.Errorf("%s: %d of %d operations failed, %d of 5 sessions completed", name, r.failed, r.attempted, len(r.recs))
			}
		}
		m := w.lay.metrics(w.plain, w.traced)
		fx.layers(m)
		for _, cmd := range commands {
			if name == "corpus" && w.lay.of(cmd).n == 0 {
				continue // a handful of scenarios need not use every command
			}
			if c := m["trace."+cmd+".coverage"]; c < 0.95 || c > 1.05 {
				t.Errorf("%s: %s parts cover %.3f of its wall time", name, cmd, c)
			}
		}
		if name == "service" && m["nub.service.shared_hit_ratio"] <= 0 {
			t.Errorf("service: shared decode cache never hit")
		}
	}
}
