// The multi-session debug service: one endpoint, many targets. Hanson's
// follow-up ("A Machine-Independent Debugger—Revisited") reframes the
// nub as a server that outlives any single client; Service is that
// server. Connections are served concurrently, each in its own
// goroutine with its own panic containment; session ids ride the wire
// (MOpenSession/MAttachSession, negotiated by the WelcomeSessions
// capability bit); a target pool spawns simulated processes on demand
// from a registry of named programs and evicts the least recently used
// idle session under a configurable cap.
//
// The perf core is the shared decode cache: when a session leaves the
// pool, its predecoded instructions and superblocks are published to a
// machine.TextCache keyed by (arch, text content hash), and every later
// session debugging the same binary adopts them — a warm attach does
// zero decode work. Per-session generation counters keep breakpoint
// invalidation session-local (one user's breakpoint never slows
// another's fused run), and per-session statistics are plain atomic
// counters aggregated only when asked, so the request path takes no
// global mutex — only the bound session's own.
//
// Legacy fallback: a service given a legacy target (SetLegacyTarget)
// greets each connection with that target's welcome, so clients that
// ignore the sessions bit debug it unchanged; session-aware clients may
// still open pool sessions on the same connection. A service with a
// legacy target and no registered programs is a single-target nub on
// the wire: its welcome carries no sessions bit, the session kinds go
// to the target's nub (which refuses them), a connection arriving while
// the target is bound waits for it, and a terminated target refuses
// connections. Nub.Serve is exactly that service on one connection.
//
// Sessions are crash-only. Every pooled session auto-checkpoints at a
// configurable instruction interval and carries a compact log of the
// replayable inputs accepted since (stores, plants, resumes); there is
// no graceful teardown path that the correctness of anything depends
// on. Eviction passivates: the victim's checkpoint is serialized into a
// bounded in-service store (optionally spilled to disk), and a later
// MAttachSession to the evicted id resurrects it transparently —
// breakpoints, registers, memory, and the latched stop event included.
// A request that panics mid-flight rolls the session back to its last
// checkpoint and replays the log, so the client sees a retryable
// CodeRolledBack error instead of a corrupted target. MCloseSession is
// idempotent: closing a dead, unknown, or passivated session is a clean
// success, because the close's postcondition — the session is gone —
// already holds.
package nub

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ldb/internal/arch"
	"ldb/internal/machine"
)

// DefaultMaxSessions bounds the target pool when Service.MaxSessions is
// unset.
const DefaultMaxSessions = 256

// DefaultServeTimeout is how long a connection may take to deliver the
// rest of a frame once its first byte arrives. Service.ReadTimeout
// overrides it.
const DefaultServeTimeout = 30 * time.Second

// defaultAttachWait bounds how long an attach waits for a session whose
// previous connection has not yet noticed it is dead (a reconnecting
// client redials before the service's read on the old connection
// fails).
const defaultAttachWait = 2 * time.Second

// session is one pooled target: a nub plus the binding token that makes
// a connection the session's sole driver. The busy channel holds a
// token when the session is idle; binding takes it, unbinding returns
// it. lastUsed is the service clock at the last unbind — the LRU key —
// written only while the token is held, so the evictor (which acquires
// the token before reading) never races it.
//
// The checkpoint fields are likewise guarded by the token: the bound
// connection is the only writer, whether it mutates them between
// requests (logRequest, rollback) or from inside Run via the
// auto-checkpoint callback.
type session struct {
	id       uint64
	program  string
	nub      *Nub
	busy     chan struct{}
	lastUsed uint64

	// ck is the session's latest checkpoint, ckPending the stop event
	// that was latched when it was taken, and ckLog the replayable
	// inputs accepted since: ck + ckLog always reaches the current
	// state. replayLog/replayIdx are live only while a rollback walks
	// the log, so a mid-replay auto-checkpoint can rebase onto the
	// events that still remain; resumeCovered marks that the resume
	// request being served is already covered by a mid-run checkpoint's
	// EvResume and must not be logged a second time.
	ck            *machine.Checkpoint
	ckPending     *Msg
	ckLog         []machine.Event
	replayLog     []machine.Event
	replayIdx     int
	resumeCovered bool
}

// Service is a concurrent, session-multiplexed debug server.
type Service struct {
	// MaxSessions caps the pool; opening past it evicts the least
	// recently used idle session, and fails when none is idle. Zero
	// means DefaultMaxSessions.
	MaxSessions int
	// ReadTimeout bounds how long a connection may take to deliver the
	// REST of a frame once its first byte has arrived (the idle wait
	// between requests is unbounded — a debugger may sit at its prompt
	// forever). A peer that starts a frame and trickles it cannot hold a
	// session hostage. Zero means DefaultServeTimeout; negative disables
	// the deadline.
	ReadTimeout time.Duration
	// CheckpointInterval paces per-session auto-checkpoints, in
	// executed instructions. Zero means
	// machine.DefaultCheckpointInterval; negative disables checkpoints
	// entirely — and with them rollback, passivation, and resurrection.
	CheckpointInterval int64
	// PassivateDir, when set, spills passivated checkpoints to disk
	// (one session-<id>.ck file each), so a session can outlive both
	// the pool and the bounded in-memory store.
	PassivateDir string
	// FaultHook, when set, runs before dispatching a bound session's
	// request; returning true simulates a crash mid-request — the hook
	// may corrupt target state through n — and forces a rollback. Chaos
	// tests inject failures here; production leaves it nil.
	FaultHook func(id uint64, n *Nub, req *Msg) bool

	legacy *session

	share *machine.TextCache

	mu       sync.Mutex //ldb:lock service.mu 10
	programs map[string]spawnSpec
	sessions map[uint64]*session
	nextID   uint64
	peak     int

	// passive stores the serialized checkpoints of evicted sessions,
	// keyed by session id; passiveSeq orders them for bounded-store
	// eviction. Guarded by mu.
	passive    map[uint64]*passiveRec
	passiveSeq uint64

	clock   atomic.Uint64
	opened  atomic.Int64
	evicted atomic.Int64
	// closedRequests accumulates the request counts of sessions that
	// have left the pool, so the aggregate survives eviction.
	closedRequests atomic.Int64
	// Crash-only lifecycle counters: sessions passivated on eviction,
	// sessions resurrected from a stored checkpoint, and per-request
	// rollbacks to the last checkpoint.
	passivated  atomic.Int64
	resurrected atomic.Int64
	rollbacks   atomic.Int64

	lnMu     sync.Mutex //ldb:lock service.lnMu 40
	listener net.Listener
	closing  bool
	conns    map[*drainConn]struct{}
	wg       sync.WaitGroup
	closeCh  chan struct{}
}

// spawnSpec is the stored form of a registered program.
type spawnSpec struct {
	arch  arch.Arch
	text  []byte
	data  []byte
	entry uint32
}

// passiveRec is one passivated session: its serialized checkpoint and
// its age in the bounded store.
type passiveRec struct {
	seq  uint64
	blob []byte
}

// DefaultMaxPassivated bounds the in-service store of passivated
// session checkpoints; the oldest record is dropped past it.
const DefaultMaxPassivated = 64

// maxCkLog bounds the replay log between checkpoints: past it the
// service takes a fresh checkpoint instead of letting rollback replay
// an unbounded tail.
const maxCkLog = 1024

// NewService returns an empty service with a fresh shared decode cache.
func NewService() *Service {
	return &Service{
		programs: make(map[string]spawnSpec),
		sessions: make(map[uint64]*session),
		passive:  make(map[uint64]*passiveRec),
		conns:    make(map[*drainConn]struct{}),
		closeCh:  make(chan struct{}),
		share:    machine.NewTextCache(),
	}
}

// Register adds a spawnable program to the service's registry under
// name. The images are referenced, not copied; callers must not mutate
// them afterwards.
func (s *Service) Register(name string, a arch.Arch, text, data []byte, entry uint32) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.programs[name] = spawnSpec{arch: a, text: text, data: data, entry: entry}
}

// SetLegacyTarget installs a single target that every connection is
// bound to on arrival, the way a classic single-target nub greets its
// debugger. Legacy clients debug it unchanged; session-aware clients
// can rebind with MOpenSession. Call before serving.
func (s *Service) SetLegacyTarget(n *Nub) {
	b := make(chan struct{}, 1)
	b <- struct{}{}
	s.legacy = &session{nub: n, busy: b}
}

// SharedCache exposes the service's shared decode cache (for tests and
// embedders that pre-publish programs).
func (s *Service) SharedCache() *machine.TextCache { return s.share }

// Serve handles one connection to the debug service: it binds the
// connection to the legacy target or greets it from the lobby, then
// runs the request loop, serving the session kinds itself whenever the
// loop hands one back. The function is deliberately named Serve: the
// wireproto analyzer accepts a dispatch arm for a request kind only
// inside a function by that name, which keeps the session kinds'
// dispatch visible to the kind-table totality proof.
func (s *Service) Serve(conn io.ReadWriter) (err error) {
	defer func() {
		// Per-session containment: a panic on this connection's
		// goroutine must not take down the service or any other
		// session. The nub's own dispatch already contains handler
		// panics; this guards the service layer itself.
		if r := recover(); r != nil {
			err = fmt.Errorf("nub: service connection panicked: %v", r)
		}
	}()
	var sess *session
	unbind := func() {
		if sess == nil {
			return
		}
		sess.lastUsed = s.clock.Add(1)
		sess.busy <- struct{}{}
		sess = nil
	}
	defer func() { unbind() }()

	// With no programs to open, the service is a single-target nub.
	s.mu.Lock()
	single := s.legacy != nil && len(s.programs) == 0
	s.mu.Unlock()
	if leg := s.legacy; leg != nil {
		if single {
			// Nowhere else to go: wait for the target's current debugger
			// to let go, as a classic nub's next connection would.
			select {
			case <-leg.busy:
				sess = leg
			case <-s.closeCh:
				return errShutdown
			}
		} else {
			select {
			case <-leg.busy:
				sess = leg
			default:
				// The legacy target is bound to another live connection;
				// this one lands in the lobby instead of queueing behind it.
			}
		}
	}
	if sess != nil {
		caps := uint64(WelcomeBatch)
		if !single {
			caps |= WelcomeSessions
		}
		switch err := sess.nub.announce(conn, MWelcome, caps); {
		case errors.Is(err, errTerminated) && !single:
			// The legacy target was killed; fall back to the lobby so
			// session-aware clients can still open pool targets.
			unbind()
		case err != nil:
			return err
		}
	}
	if sess == nil {
		// Lobby welcome: capabilities only, no target, no event. A
		// session-aware client proceeds to MOpenSession/MAttachSession;
		// a legacy client rejects the empty architecture name cleanly.
		if err := WriteMsg(conn, &Msg{Kind: MWelcome, Val: WelcomeBatch | WelcomeSessions}); err != nil {
			return err
		}
	}

	for {
		req, err := s.serveRequests(conn, sess, !single)
		if err != nil {
			return err // connection broken; session state preserved
		}
		switch req.Kind {
		case MOpenSession, MAttachSession:
			unbind()
			var rep *Msg
			if req.Kind == MOpenSession {
				sess, rep = s.openSession(string(req.Data))
			} else {
				sess, rep = s.attachSession(req.Val)
			}
			if rep != nil {
				err = WriteMsg(conn, rep)
			} else {
				err = sess.nub.announce(conn, MSession, sess.id)
			}
		case MCloseSession:
			// Idempotent by design: close means "make the session not
			// exist", and if it already does not — unknown id, already
			// closed, or passivated (Val names it) — the postcondition
			// holds and the answer is a clean MOK. A stored checkpoint is
			// dropped either way, so a closed session cannot resurrect.
			if sess != nil && sess.id != 0 {
				id := sess.id
				s.kill(sess)
				s.remove(sess)
				sess = nil
				s.dropPassivated(id)
			} else {
				s.dropPassivated(req.Val)
			}
			err = WriteMsg(conn, &Msg{Kind: MOK})
		case MServiceStats:
			err = WriteMsg(conn, s.statsReply(sess))
		default:
			// MKill or MDetach finished the connection. MKill leaves the
			// nub dead: drop the session from the pool. MDetach leaves it
			// stopped for a later attach.
			if sess.id != 0 && s.dead(sess) {
				s.remove(sess)
				sess = nil
			}
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// serveRequests is the request loop every connection runs — a
// service's, and a lone nub's through Nub.Serve. It reads requests
// under the two-phase read deadline and dispatches them to the bound
// session's nub until the connection breaks or a request is not the
// target's to serve. That request is returned: MKill or MDetach once
// served, which finish the connection, or — when sessions is set — a
// session kind, which the service serves itself. Without sessions the
// nub gets the session kinds too, and refuses them. With no session
// bound, the target's requests are refused.
func (s *Service) serveRequests(conn io.ReadWriter, sess *session, sessions bool) (*Msg, error) {
	for {
		req, err := s.readRequest(conn, sess)
		if err != nil {
			if errors.Is(err, errOversize) {
				// An attacker-chosen payload length. Reply, then close:
				// the stream cannot be resynced past the bogus frame, and
				// draining it would read however many bytes the peer
				// declared.
				_ = WriteMsg(conn, &Msg{Kind: MError, Data: []byte(err.Error())})
				if sess != nil {
					sess.nub.Stats.OversizeRejects.Add(1)
					sess.nub.Stats.MsgsSent.Add(1)
				}
			}
			return nil, err
		}
		if sessions && sessionKind(req.Kind) {
			return req, nil
		}
		if sess == nil {
			if err := WriteMsg(conn, errMsg("no session bound")); err != nil {
				return nil, err
			}
			continue
		}
		n := sess.nub
		if h := s.FaultHook; h != nil && sess.ck != nil && h(sess.id, n, req) {
			// Injected crash: the hook may have corrupted target state
			// through n, exactly as a mid-request panic would.
			n.Stats.RecoveredPanics.Add(1)
			s.rollback(sess)
			if err := WriteMsg(conn, rolledBack(req.Kind)); err != nil {
				return nil, err
			}
			continue
		}
		sess.resumeCovered = false
		// A session that can roll back gets its reply through a buffer,
		// so a dispatch that panicked can be answered with a rollback
		// error instead of its contained-panic reply: the panic left the
		// target in an unknown state, and nothing of it may reach the
		// wire.
		var buf bytes.Buffer
		var w io.Writer = conn
		if sess.ck != nil {
			w = &buf
		}
		n.mu.Lock()
		n.recovered = false
		done, err := n.serveOneLocked(w, req)
		rolled := sess.ck != nil && !done && n.recovered
		n.mu.Unlock()
		if err != nil {
			return nil, err
		}
		if rolled {
			s.rollback(sess)
			if err := WriteMsg(conn, rolledBack(req.Kind)); err != nil {
				return nil, err
			}
			continue
		}
		if buf.Len() > 0 {
			if _, err := conn.Write(buf.Bytes()); err != nil {
				return nil, err
			}
		}
		if done {
			return req, nil
		}
		s.logRequest(sess, req)
	}
}

// sessionKind reports whether k is one of the debug service's own
// requests.
func sessionKind(k MsgKind) bool {
	return k == MOpenSession || k == MAttachSession || k == MCloseSession || k == MServiceStats
}

// errShutdown ends a connection still waiting for its target when
// Shutdown began.
var errShutdown = errors.New("nub: service shutting down")

// readRequest reads one request from conn under the two-phase read
// deadline: the idle wait for a frame's first byte is unbounded — a
// debugger may sit at its prompt for hours — but once a frame has
// started the rest must arrive within ReadTimeout, so a peer that opens
// a frame and trickles bytes (slowloris) is dropped instead of pinning
// its session forever. Slow reads are charged to the bound session, if
// any. Connections without deadline support (in-memory pipes wrapped by
// fault injectors) are served without the defence.
func (s *Service) readRequest(conn io.ReadWriter, sess *session) (*Msg, error) {
	var first [1]byte
	if _, err := io.ReadFull(conn, first[:]); err != nil {
		return nil, err
	}
	timeout := s.ReadTimeout
	if timeout == 0 {
		timeout = DefaultServeTimeout
	}
	d, ok := conn.(interface{ SetReadDeadline(time.Time) error })
	armed := ok && timeout > 0 && d.SetReadDeadline(time.Now().Add(timeout)) == nil
	m, err := readMsgRest(first[0], conn)
	if armed {
		_ = d.SetReadDeadline(time.Time{})
		if err != nil && isTimeout(err) {
			if sess != nil {
				sess.nub.Stats.SlowReads.Add(1)
			}
			err = fmt.Errorf("nub: dropped slow read after %v: %w", timeout, err)
		}
	}
	return m, err
}

// openSession spawns the named program into a new session and returns
// it with its binding token held. A non-nil reply is the error to send
// instead.
func (s *Service) openSession(name string) (*session, *Msg) {
	s.mu.Lock()
	spec, ok := s.programs[name]
	if !ok {
		s.mu.Unlock()
		return nil, errMsg("unknown program %q", name)
	}
	if rep := s.makeRoomLocked(); rep != nil {
		s.mu.Unlock()
		return nil, rep
	}
	s.nextID++
	id := s.nextID
	p := machine.New(spec.arch, spec.text, spec.data, spec.entry)
	s.share.Adopt(p)
	n := New(p)
	sess := &session{id: id, program: name, nub: n, busy: make(chan struct{}, 1), replayIdx: -1}
	// The binding token starts held: the opener is the first driver.
	s.sessions[id] = sess
	if len(s.sessions) > s.peak {
		s.peak = len(s.sessions)
	}
	s.mu.Unlock()
	s.opened.Add(1)
	n.Start()
	s.armCheckpoints(sess)
	return sess, nil
}

// makeRoomLocked evicts idle sessions (least recently used first) until
// the pool is under its cap, passivating each victim before it dies.
// Called with s.mu held; drops and retakes it around the eviction work.
// A non-nil reply is the error to send (the pool is full of bound
// sessions).
func (s *Service) makeRoomLocked() *Msg {
	cap := s.MaxSessions
	if cap <= 0 {
		cap = DefaultMaxSessions
	}
	for len(s.sessions) >= cap {
		victim := s.idleLRULocked()
		if victim == nil {
			return errMsg("service at capacity (%d sessions, none idle)", cap)
		}
		delete(s.sessions, victim.id)
		s.mu.Unlock()
		s.passivate(victim)
		s.kill(victim)
		s.retire(victim)
		s.evicted.Add(1)
		s.mu.Lock()
	}
	return nil
}

// idleLRULocked finds the least recently used idle session and takes
// its binding token, or returns nil when every session is bound.
// Callers hold s.mu.
func (s *Service) idleLRULocked() *session {
	var best *session
	for _, sess := range s.sessions {
		select {
		case <-sess.busy:
		default:
			continue
		}
		if best == nil || sess.lastUsed < best.lastUsed {
			if best != nil {
				best.busy <- struct{}{}
			}
			best = sess
		} else {
			sess.busy <- struct{}{}
		}
	}
	return best
}

// attachSession binds to the identified live session, waiting briefly
// for its token if a dying connection still holds it. A session that
// was evicted from the pool but passivated is resurrected transparently
// — the caller cannot tell it ever left.
func (s *Service) attachSession(id uint64) (*session, *Msg) {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return s.resurrect(id)
	}
	t := time.NewTimer(defaultAttachWait)
	defer t.Stop()
	select {
	case <-sess.busy:
	case <-t.C:
		return nil, errMsg("session %d is busy", id)
	case <-s.closeCh:
		return nil, errMsg("service shutting down")
	}
	// The session may have been killed and removed while we waited.
	s.mu.Lock()
	live := s.sessions[id] == sess
	s.mu.Unlock()
	if !live {
		return nil, errMsg("no such session %d", id)
	}
	return sess, nil
}

// dead reports whether the session's target has terminated.
func (s *Service) dead(sess *session) bool {
	sess.nub.mu.Lock()
	defer sess.nub.mu.Unlock()
	return sess.nub.dead
}

// kill terminates a session's target. Callers hold its binding token.
func (s *Service) kill(sess *session) {
	n := sess.nub
	n.mu.Lock()
	n.dead = true
	n.P.State = machine.StateExited
	n.mu.Unlock()
}

// remove drops a session from the pool and retires it. Callers hold its
// binding token (which is never released again: the session is gone).
func (s *Service) remove(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.retire(sess)
}

// retire finalizes a session leaving the pool: its decode products are
// published to the shared cache — end of life is maximal warmth, and
// the first publisher of a content key wins — and its request count is
// folded into the service aggregate.
func (s *Service) retire(sess *session) {
	s.share.Publish(sess.nub.P)
	s.closedRequests.Add(sess.nub.Stats.RoundTrips.Load())
}

// passivate serializes an evicted session's checkpoint into the
// bounded passivated store (and the spill directory, if configured) so
// a later attach can resurrect it. Called with the victim's binding
// token held and its nub still alive; a dead target has nothing worth
// preserving.
func (s *Service) passivate(victim *session) {
	if s.CheckpointInterval < 0 || victim.id == 0 {
		return
	}
	n := victim.nub
	n.mu.Lock()
	if n.dead {
		n.mu.Unlock()
		return
	}
	ck := n.checkpointLocked()
	pend := cloneMsg(n.pending)
	n.mu.Unlock()
	blob := encodeCheckpoint(victim.program, ck, pend)
	s.mu.Lock()
	s.passiveSeq++
	s.passive[victim.id] = &passiveRec{seq: s.passiveSeq, blob: blob}
	for len(s.passive) > DefaultMaxPassivated {
		var oldest *passiveRec
		var oldestID uint64
		for id, rec := range s.passive {
			if oldest == nil || rec.seq < oldest.seq {
				oldest, oldestID = rec, id
			}
		}
		delete(s.passive, oldestID)
	}
	s.mu.Unlock()
	if dir := s.PassivateDir; dir != "" {
		_ = os.WriteFile(passivePath(dir, victim.id), blob, 0o600)
	}
	s.passivated.Add(1)
}

// resurrect rebuilds a passivated session from its stored checkpoint
// and re-inserts it into the pool with the binding token held — the
// transparent half of crash-only eviction: attaching to an evicted
// session is indistinguishable from attaching to a live one.
func (s *Service) resurrect(id uint64) (*session, *Msg) {
	blob := s.takePassivated(id)
	if blob == nil {
		return nil, errMsg("no such session %d", id)
	}
	sc, err := decodeCheckpoint(blob)
	if err != nil {
		return nil, errMsg("session %d: stored checkpoint corrupt: %v", id, err)
	}
	p, err := machine.FromCheckpoint(sc.ck)
	if err != nil {
		return nil, errMsg("session %d: %v", id, err)
	}
	s.share.Adopt(p)
	n := New(p)
	// The nub is not yet reachable from anywhere: restore its debug
	// state directly, no locks needed.
	n.planted = make(map[uint32][]byte, len(sc.ck.Planted))
	for addr, old := range sc.ck.Planted {
		n.planted[addr] = append([]byte(nil), old...)
	}
	n.pending = sc.pending
	sess := &session{id: id, program: sc.program, nub: n, busy: make(chan struct{}, 1), replayIdx: -1}
	s.mu.Lock()
	if s.sessions[id] != nil {
		// A concurrent attach resurrected it first; bind to that one.
		s.mu.Unlock()
		return s.attachSession(id)
	}
	if rep := s.makeRoomLocked(); rep != nil {
		s.mu.Unlock()
		return nil, rep
	}
	s.sessions[id] = sess
	if len(s.sessions) > s.peak {
		s.peak = len(s.sessions)
	}
	s.mu.Unlock()
	s.replay(sess, sc.ck.Events)
	s.armCheckpoints(sess)
	s.resurrected.Add(1)
	return sess, nil
}

// takePassivated removes and returns session id's stored checkpoint,
// falling back to the spill directory when the bounded in-memory store
// has already dropped it.
func (s *Service) takePassivated(id uint64) []byte {
	s.mu.Lock()
	rec := s.passive[id]
	delete(s.passive, id)
	s.mu.Unlock()
	if rec != nil {
		return rec.blob
	}
	if dir := s.PassivateDir; dir != "" {
		if blob, err := os.ReadFile(passivePath(dir, id)); err == nil {
			return blob
		}
	}
	return nil
}

// dropPassivated discards session id's stored checkpoint, memory and
// disk both — the close path's guarantee that a closed session stays
// closed.
func (s *Service) dropPassivated(id uint64) {
	s.mu.Lock()
	delete(s.passive, id)
	s.mu.Unlock()
	if dir := s.PassivateDir; dir != "" && id != 0 {
		_ = os.Remove(passivePath(dir, id))
	}
}

func passivePath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("session-%d.ck", id))
}

// PassivateIdle evicts up to max idle sessions (least recently used
// first), passivating each. It returns how many it evicted — the
// forcing lever chaos tests use to prove a session survives eviction
// mid-conversation.
func (s *Service) PassivateIdle(max int) int {
	evicted := 0
	for evicted < max {
		s.mu.Lock()
		victim := s.idleLRULocked()
		if victim == nil {
			s.mu.Unlock()
			break
		}
		delete(s.sessions, victim.id)
		s.mu.Unlock()
		s.passivate(victim)
		s.kill(victim)
		s.retire(victim)
		s.evicted.Add(1)
		evicted++
	}
	return evicted
}

// armCheckpoints turns on crash-only protection for a session: dirty
// tracking on every segment, the paced auto-checkpoint callback inside
// Run, and a baseline checkpoint so rollback is possible from the very
// first request. Called with the binding token held, after the target
// reached its first stop.
func (s *Service) armCheckpoints(sess *session) {
	every := s.CheckpointInterval
	if every < 0 {
		return
	}
	if every == 0 {
		every = machine.DefaultCheckpointInterval
	}
	p := sess.nub.P
	p.EnableCheckpoints()
	p.SetAutoCheckpoint(every, func() { s.autoCheckpoint(sess) })
	s.refreshCheckpoint(sess)
}

// refreshCheckpoint takes a fresh between-requests checkpoint and
// empties the event log.
func (s *Service) refreshCheckpoint(sess *session) {
	n := sess.nub
	n.mu.Lock()
	ck := n.checkpointLocked()
	pend := cloneMsg(n.pending)
	n.mu.Unlock()
	sess.ck, sess.ckPending, sess.ckLog = ck, pend, nil
}

// autoCheckpoint is the pacing callback Run fires every
// CheckpointInterval instructions. It runs with the nub's lock held,
// between fused blocks, with process state fully committed — so it
// forks the checkpoint directly and rebases the event log: a mid-run
// checkpoint is reached from itself by a bare resume (EvResume), plus
// whatever events were still outstanding if it fired mid-replay.
func (s *Service) autoCheckpoint(sess *session) {
	n := sess.nub
	ck := n.checkpointLocked()
	log := []machine.Event{{Kind: machine.EvResume}}
	if sess.replayIdx >= 0 && sess.replayIdx+1 <= len(sess.replayLog) {
		log = append(log, sess.replayLog[sess.replayIdx+1:]...)
	}
	sess.ck, sess.ckPending, sess.ckLog = ck, cloneMsg(n.pending), log
	sess.resumeCovered = true
}

// rollback rewinds a session to its last checkpoint and replays the
// logged inputs accepted since — the crash-only answer to a request
// that panicked mid-flight: the session returns to exactly the state
// the failed request saw, so the client may safely retry it.
func (s *Service) rollback(sess *session) {
	n := sess.nub
	events := sess.ckLog
	if err := n.RestoreCheckpoint(sess.ck, cloneMsg(sess.ckPending)); err != nil {
		// Unreachable today: the checkpoint came from this very
		// process. If the shape ever diverges, the session is
		// unsalvageable — kill it rather than serve corrupted state.
		s.kill(sess)
		return
	}
	s.replay(sess, events)
	s.rollbacks.Add(1)
}

// replay re-applies an event log through the nub's own handlers.
// replayLog/replayIdx are live during the walk so a mid-replay
// auto-checkpoint can rebase onto the events that still remain.
func (s *Service) replay(sess *session, events []machine.Event) {
	sess.replayLog = events
	for i := range events {
		sess.replayIdx = i
		sess.nub.ReplayEvent(events[i])
	}
	sess.replayLog, sess.replayIdx = nil, -1
}

// logRequest appends a served request's replayable mirror to the
// session's event log, refreshing the checkpoint when the log grows
// past maxCkLog. A resume an auto-checkpoint already covered with its
// EvResume is not logged a second time.
func (s *Service) logRequest(sess *session, req *Msg) {
	if sess.ck == nil {
		return
	}
	if sess.resumeCovered && (req.Kind == MContinue || req.Kind == MStepInst) {
		return
	}
	sess.ckLog = appendEvents(sess.ckLog, req)
	if len(sess.ckLog) > maxCkLog {
		s.refreshCheckpoint(sess)
	}
}

// appendEvents mirrors one request into replay events. Only mutating
// requests are logged — fetches and stats change nothing, and failed
// stores replay into the same failure, so logging unconditionally is
// still deterministic. Batch envelopes log their members.
func appendEvents(log []machine.Event, req *Msg) []machine.Event {
	switch req.Kind {
	case MStoreInt:
		return append(log, machine.Event{Kind: machine.EvStoreInt, Space: req.Space, Addr: req.Addr, Size: req.Size, Val: req.Val})
	case MStoreFloat:
		return append(log, machine.Event{Kind: machine.EvStoreFloat, Space: req.Space, Addr: req.Addr, Size: req.Size, Val: req.Val})
	case MStoreBytes:
		return append(log, machine.Event{Kind: machine.EvStoreBytes, Space: req.Space, Addr: req.Addr, Size: req.Size, Data: append([]byte(nil), req.Data...)})
	case MPlantStore:
		return append(log, machine.Event{Kind: machine.EvPlant, Space: req.Space, Addr: req.Addr, Size: req.Size, Data: append([]byte(nil), req.Data...)})
	case MUnplantStore:
		return append(log, machine.Event{Kind: machine.EvUnplant, Space: req.Space, Addr: req.Addr, Size: req.Size})
	case MContinue:
		return append(log, machine.Event{Kind: machine.EvContinue})
	case MStepInst:
		return append(log, machine.Event{Kind: machine.EvStep})
	case MBatch:
		subs, err := DecodeBatch(req)
		if err != nil {
			return log
		}
		for _, sub := range subs {
			log = appendEvents(log, sub)
		}
		return log
	default:
		// Fetches, stats, liveness probes: nothing to replay.
		return log
	}
}

// cloneMsg deep-copies a message so a checkpoint's pending event cannot
// alias a buffer a later request mutates.
func cloneMsg(m *Msg) *Msg {
	if m == nil {
		return nil
	}
	c := *m
	c.Data = append([]byte(nil), m.Data...)
	return &c
}

// rolledBack builds the retryable error reply for a crashed request.
func rolledBack(kind MsgKind) *Msg {
	return &Msg{
		Kind: MError,
		Code: CodeRolledBack,
		Data: []byte(fmt.Sprintf("nub: %v crashed mid-request; session rolled back to its last checkpoint", kind)),
	}
}

// statsReply builds the MServiceStatsReply body — a ServiceStatsReport
// through the shared wire-body codec. Clients built for the original
// eight-value body read a prefix of it (see wirebody.go).
func (s *Service) statsReply(sess *session) *Msg {
	s.mu.Lock()
	live := int64(len(s.sessions))
	peak := int64(s.peak)
	var total int64
	for _, t := range s.sessions {
		total += t.nub.Stats.RoundTrips.Load()
	}
	s.mu.Unlock()
	total += s.closedRequests.Load()
	if s.legacy != nil {
		total += s.legacy.nub.Stats.RoundTrips.Load()
	}
	hits, misses := s.share.Stats()
	var bound int64
	if sess != nil {
		bound = sess.nub.Stats.RoundTrips.Load()
	}
	return &Msg{Kind: MServiceStatsReply, Data: encodeServiceStats(ServiceStatsReport{
		Live: live, Peak: peak, Evicted: s.evicted.Load(), Opened: s.opened.Load(),
		SharedHits: hits, SharedMisses: misses,
		SessionRequests: bound, TotalRequests: total,
		Passivated: s.passivated.Load(), Resurrected: s.resurrected.Load(),
		Rollbacks: s.rollbacks.Load(),
	})}
}

// Sessions reports how many sessions are live (for tests).
func (s *Service) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ServeListener accepts connections until the listener closes or
// Shutdown is called, serving each on its own goroutine. This is how a
// target — or a pool of them — waits on the network for debuggers.
func (s *Service) ServeListener(l net.Listener) {
	s.lnMu.Lock()
	if s.closing {
		s.lnMu.Unlock()
		_ = l.Close()
		return
	}
	s.listener = l
	s.lnMu.Unlock()
	for {
		nc, err := l.Accept()
		if err != nil {
			return
		}
		conn := &drainConn{Conn: nc}
		s.lnMu.Lock()
		if s.closing {
			s.lnMu.Unlock()
			_ = nc.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.lnMu.Unlock()
		go func() {
			defer s.wg.Done()
			_ = s.Serve(conn)
			_ = nc.Close()
			s.lnMu.Lock()
			delete(s.conns, conn)
			s.lnMu.Unlock()
		}()
	}
}

// Shutdown drains the service: the listener closes, every connection
// is drained so an idle one's goroutine unblocks, in-flight requests
// finish and write their replies, and Shutdown returns only when every
// connection goroutine has exited. Session state is preserved —
// shutdown severs the endpoint, it does not kill targets.
func (s *Service) Shutdown() {
	s.lnMu.Lock()
	if !s.closing {
		s.closing = true
		close(s.closeCh)
	}
	l := s.listener
	for c := range s.conns {
		c.drain()
	}
	s.lnMu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.wg.Wait()
}

// drainConn is an accepted connection that Shutdown can drain: its read
// deadline expires and stays expired. The request loop resets the
// deadline after every frame, and a reset landing just after Shutdown
// expired it would otherwise leave the next idle read unbounded and
// Shutdown waiting on it forever.
type drainConn struct {
	net.Conn
	mu      sync.Mutex //ldb:lock service.conn 41
	drained bool
}

// SetReadDeadline sets the read deadline unless the connection has been
// drained.
func (c *drainConn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.drained {
		return nil
	}
	return c.Conn.SetReadDeadline(t)
}

// drain expires the read deadline for good: a blocked read returns now,
// and every later read fails at once.
func (c *drainConn) drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.drained = true
	_ = c.Conn.SetReadDeadline(time.Now())
}
