package main

import (
	"encoding/binary"
	"testing"
	"time"

	"ldb/internal/nub"
)

func frame(kind nub.MsgKind, payload int) []byte {
	b := make([]byte, 31+payload)
	b[0] = byte(kind)
	binary.LittleEndian.PutUint32(b[27:], uint32(payload))
	return b
}

// TestFrameScanner feeds two requests split at every possible point and
// checks that each kind is reported once its header is complete.
func TestFrameScanner(t *testing.T) {
	stream := append(frame(nub.MFetchInt, 0), frame(nub.MContinue, 5)...)
	for cut := 0; cut <= len(stream); cut++ {
		var f frameScanner
		var kinds []nub.MsgKind
		for _, part := range [][]byte{stream[:cut], stream[cut:]} {
			for len(part) > 0 {
				n := min(len(part), 7) // reads as short as a server may see
				if k, ok := f.feed(part[:n]); ok {
					kinds = append(kinds, k)
				}
				part = part[n:]
			}
		}
		if len(kinds) != 2 || kinds[0] != nub.MFetchInt || kinds[1] != nub.MContinue {
			t.Fatalf("cut %d: kinds %v", cut, kinds)
		}
	}
}

func TestParts(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		p                               partSample
		self, expr, transit, serve, run time.Duration
	}{
		{partSample{wall: 10 * ms, wireWait: 4 * ms, exprWait: 3 * ms, serve: 1 * ms, run: 2 * ms}, 3 * ms, 3 * ms, 1 * ms, 1 * ms, 2 * ms},
		// server busy beyond the client's wait: transit floors at zero
		{partSample{wall: 10 * ms, wireWait: 2 * ms, serve: 1 * ms, run: 2 * ms}, 8 * ms, 0, 0, 1 * ms, 2 * ms},
		// waits beyond the wall: self floors at zero
		{partSample{wall: 5 * ms, wireWait: 4 * ms, exprWait: 2 * ms, run: 4 * ms}, 0, 2 * ms, 0, 0, 4 * ms},
	} {
		self, expr, transit, serve, run := tc.p.parts()
		if self != tc.self || expr != tc.expr || transit != tc.transit || serve != tc.serve || run != tc.run {
			t.Errorf("%+v: parts %v %v %v %v %v, want %v %v %v %v %v", tc.p,
				self, expr, transit, serve, run, tc.self, tc.expr, tc.transit, tc.serve, tc.run)
		}
	}
	l := newLayerSums()
	l.add("step", partSample{wall: 10 * ms, wireWait: 4 * ms, serve: 1 * ms, run: 3 * ms})
	l.add("step", partSample{wall: 10 * ms, wireWait: 2 * ms, serve: 1 * ms, run: 2 * ms})
	m := l.metrics(newRecorder(), newRecorder())
	if got := m["trace.step.coverage"]; got != 1.05 {
		t.Errorf("coverage %v, want 1.05 (1 ms of server time the client did not wait for)", got)
	}
	if got := m["core.step.self_ms"]; got != 7 {
		t.Errorf("mean self %v ms, want 7", got)
	}
}

// tapSession runs session k of fx traced and returns it.
func tapSession(t *testing.T, fx fixture, k int) *session {
	t.Helper()
	s := newWorker().newSession(true)
	fx.session(s, k)
	if !s.ok || !s.exited {
		t.Fatalf("session %d failed", k)
	}
	return s
}

// TestWireTapMatchesClient checks the client-side tap against the nub
// client's own counters for whole sessions, over the in-memory pipe and
// over loopback TCP to the debug service.
func TestWireTapMatchesClient(t *testing.T) {
	local, err := setupFig1(1, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := setupService(1, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	for name, fx := range map[string]fixture{"fig1": local, "service": svc} {
		for k := range 5 {
			s := tapSession(t, fx, k)
			st := s.tgt.Client.Stats()
			if s.tr.wire.roundTrips != st.RoundTrips {
				t.Errorf("%s session %d: tap counted %d round trips, client %d", name, k, s.tr.wire.roundTrips, st.RoundTrips)
			}
			if s.tr.wire.bytes != st.BytesSent+st.BytesReceived {
				t.Errorf("%s session %d: tap counted %d bytes, client %d", name, k, s.tr.wire.bytes, st.BytesSent+st.BytesReceived)
			}
			if s.tr.wire.roundTrips == 0 {
				t.Errorf("%s session %d: no traffic seen", name, k)
			}
		}
	}
}
