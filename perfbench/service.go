package main

import (
	"fmt"
	"net"
	"slices"
	"time"

	"ldb/internal/driver"
	"ldb/internal/nub"
	"ldb/internal/workload"
)

// Expected values of the service session on queens.c. The breakpoint is
// place's `return 1`, reached only when r == 8: every hit is a solution
// and the stack is ten frames deep (nine place frames and main).
const (
	queensStop   = "place@2"
	queensStep   = "place@11"
	queensFirst  = "{0, 4, 7, 5, 2, 6, 1, 3}"
	queensEval   = "cols[7] + r"
	queensEvalV  = 3 + 8
	queensOutput = "92\n"
)

var queensWhere = []string{"place", "place", "place", "place", "place", "place", "place", "place", "place", "main"}

// service is a nub.Service on loopback TCP with queens.c registered once
// per configuration; each session is on its own connection.
type service struct {
	progs  []*driver.Program
	svc    *nub.Service
	ln     *tapListener // nil when the run is not traced
	addr   string
	served chan struct{}
	off    int
}

// setupService builds queens.c for every configuration, checks each
// image's output by running it to exit in this process (the nub
// protocol carries no target output), starts the service, and runs one
// session per image so the service's shared decode cache is warm.
func setupService(seed int64, _ time.Duration, traced bool) (fixture, error) {
	f := &service{off: int(uint64(seed) % uint64(len(configs)))}
	svc := nub.NewService()
	for _, cfg := range configs {
		p, err := driver.Build([]driver.Source{{Name: "queens.c", Text: workload.Queens}},
			driver.Options{Arch: cfg, Debug: true})
		if err != nil {
			return nil, fmt.Errorf("build queens.c for %s: %w", cfg, err)
		}
		out, status, err := runToExit(p)
		if err != nil || status != 0 || out != queensOutput {
			return nil, fmt.Errorf("queens.c on %s: exit %d, output %q (%v), want 0 and %q", cfg, status, out, err, queensOutput)
		}
		f.progs = append(f.progs, p)
		svc.Register("queens-"+cfg, p.Arch, p.Image.Text, p.Image.Data, p.Image.Entry)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.svc, f.addr, f.served = svc, l.Addr().String(), make(chan struct{})
	if traced {
		f.ln = &tapListener{Listener: l}
		l = f.ln
	}
	go func() {
		defer close(f.served)
		svc.ServeListener(l)
	}()
	for _, cfg := range configs {
		if err := f.warm("queens-" + cfg); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up session of queens-%s: %w", cfg, err)
		}
	}
	return f, nil
}

// warm runs one session of program to exit without a debugger.
func (f *service) warm(program string) error {
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		return err
	}
	defer closeQuietly(conn)
	c, err := nub.Connect(conn)
	if err != nil {
		return err
	}
	ev, err := c.OpenSession(program)
	for err == nil && !ev.Exited {
		ev, err = c.Continue()
	}
	if err != nil {
		return err
	}
	return c.CloseSession()
}

func (f *service) limit() int { return 0 }

func (f *service) close() {
	f.svc.Shutdown()
	<-f.served
}

// layers adds the service's shared decode-cache hit ratio.
func (f *service) layers(m map[string]float64) {
	conn, err := net.Dial("tcp", f.addr)
	if err != nil {
		return
	}
	defer closeQuietly(conn)
	c, err := nub.Connect(conn)
	if err != nil {
		return
	}
	if st, err := c.ServiceStats(); err == nil {
		m["nub.service.shared_hit_ratio"] = ratio(float64(st.SharedHits), float64(st.SharedHits+st.SharedMisses))
	}
}

func (f *service) session(s *session, k int) {
	s.cfg = (f.off + k) % len(f.progs)
	prog := f.progs[s.cfg]
	var conn net.Conn
	var client *nub.Client
	defer func() {
		if client != nil && client.SessionID() != 0 {
			if err := client.CloseSession(); err != nil {
				s.fail("exit", "close session: %v", err)
			}
		}
		if conn != nil {
			if s.tr != nil {
				f.ln.traces.Delete(conn.LocalAddr().String())
			}
			closeQuietly(conn)
		}
	}()
	if !s.startup() {
		return
	}
	if !s.cmd("attach", func() error {
		c, err := net.Dial("tcp", f.addr)
		if err != nil {
			return err
		}
		conn = c
		if s.tr != nil {
			f.ln.traces.Store(c.LocalAddr().String(), s.tr)
			c = &clientTap{Conn: c, tr: s.tr}
		}
		if client, err = nub.Connect(c); err != nil {
			return err
		}
		if _, err := client.OpenSession("queens-" + configs[s.cfg]); err != nil {
			return err
		}
		t, err := s.d.AttachClient("queens", client, prog.LoaderPS)
		if err != nil {
			return err
		}
		s.attached(t)
		return nil
	}) {
		return
	}
	tgt := s.tgt
	s.cmd("break", func() error {
		_, err := tgt.BreakStop("place", 2)
		return err
	})
	s.cmd("continue", func() error { return continueTo(s, queensStop) })
	s.cmd("print", func() error {
		v, err := s.printed("cols")
		if err == nil {
			s.check("print", v == queensFirst, "print cols = %q, want %q", v, queensFirst)
		}
		return err
	})
	s.cmd("eval", func() error {
		v, err := tgt.EvalInt(queensEval)
		if err == nil {
			s.check("eval", v == queensEvalV, "eval %s = %d, want %d", queensEval, v, queensEvalV)
		}
		return err
	})
	s.cmd("where", func() error {
		bt, err := s.backtrace(16)
		if err == nil {
			s.check("where", slices.Equal(bt, queensWhere), "where = %v, want %v", bt, queensWhere)
		}
		return err
	})
	s.cmd("continue", func() error { return continueTo(s, queensStop) })
	s.cmd("continue", func() error { return continueTo(s, queensStop) })
	s.cmd("step", func() error { return stepTo(s, queensStep) })
	s.cmd("exit", func() error {
		ev, err := s.exitTarget()
		if err == nil {
			s.exited = true
			s.check("exit", ev.Status == 0, "exit %d, want 0", ev.Status)
		}
		return err
	})
}
