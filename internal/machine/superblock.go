// The executor: every decoded instruction of every ISA runs through the
// one dispatch switch in runFused. Straight-line runs of decoded
// instructions fuse into compiled blocks that dispatch block-at-a-time,
// so the per-instruction costs of a cache lookup — the offset
// computation, bounds check, slot load, and pc store — are paid once per
// block instead of once per step. A block runs from its entry point to
// the first instruction whose decoder marked it arch.InsnTerm (branch,
// call, return, trap, syscall, halt): every earlier instruction is
// guaranteed to fall through to pc+Len, which is what licenses
// executing the run without consulting the cache between instructions
// — and licenses not threading a pc through the run at all: each op
// records its byte offset from the block entry, and only the final
// instruction's successor decides where execution goes next. Blocks
// chain through a predicted-successor link, so a hot loop whose branch
// keeps jumping to the same entry never leaves fused code. A single
// step, and the last few instructions before the step limit or an
// auto-checkpoint, run as a one-op block through the same switch.
//
// Within a block, instructions the decoder translated to
// machine-independent micro-ops (arch.Uop: register arithmetic, NZC
// compares, sized memory accesses, divides, control transfers) execute
// inline in the dispatch switch — no indirect call, no closure
// environment. The rest run the instruction's Exec closure (the 68020
// and VAX forms the micro-op set does not cover) or, when the entry
// has neither, escape to the architecture's own Step. Formation and
// dispatch are machine-independent: they consume only the Len, Flags,
// and Uop metadata each arch.Decoder attaches to its entries, keeping
// the executor on the machine-independent side of the paper's
// retargeting seam.
package machine

import (
	"ldb/internal/amem"
	"ldb/internal/arch"
)

// maxBlockInsns bounds how many instructions one superblock fuses; a
// run longer than this is split, which costs one extra dispatch per 64
// instructions and keeps invalidation lookback bounded.
const maxBlockInsns = 64

// maxBlockBytes bounds how many bytes before a written address a
// superblock may start and still cover it (see invalidate).
const maxBlockBytes = maxBlockInsns * maxInsnBytes

// execFn is the predecoded handler signature, named so block slices
// stay readable.
type execFn func(p arch.Proc, regs []uint32, flag *uint32, pc uint32) (uint32, *arch.Fault)

// fusedOp is one compiled instruction of a superblock: an inline
// micro-op (op != arch.UopNone) the dispatch loop executes directly, or
// a call of x — the instruction's Exec closure or, without one,
// stepEscape. off is the instruction's byte offset from the block
// entry, from which its own pc is reconstructed on the paths that need
// one (calls of x, faults, mid-block aborts). Micro-ops that can abort or branch imply a 4-byte
// instruction — compileOp takes memory, divide, and terminator ops
// only from entries with Len 4, because the abort and fall-through
// paths reconstruct per-instruction pcs as off+4. Pure register/flag
// ops (arch.Uop.Pure) never reach those paths and fuse at any length,
// which is how the variable-width 68020 joins the fused fast path.
type fusedOp struct {
	x       execFn
	imm     uint32
	op      arch.Uop
	d, s, t uint8
	off     uint16
}

// compileOp compiles the decoded instruction at byte offset off of a
// block into its dispatch form.
func compileOp(d *arch.DecodedInsn, off uint32) fusedOp {
	u := fusedOp{off: uint16(off)}
	switch {
	case d.Uop != arch.UopNone && (d.Len == 4 || d.Uop.Pure()):
		u.op, u.d, u.s, u.t, u.imm = d.Uop, d.UD, d.US, d.UT, d.UImm
	case d.Exec != nil:
		u.x = execFn(d.Exec)
	default:
		u.x = stepEscape
	}
	return u
}

// stepEscape runs an instruction that has neither a usable micro-op
// nor a closure through its architecture's Step, with the Exec
// contract: the pc is pointed at the instruction first, and on success
// the pc Step committed is the successor. Each escape counts as a
// fallback.
func stepEscape(ap arch.Proc, _ []uint32, _ *uint32, pc uint32) (uint32, *arch.Fault) {
	p := ap.(*Process)
	p.pc = pc
	p.Sim.Fallbacks++
	if f := p.A.Step(p); f != nil {
		return 0, f
	}
	return p.pc, nil
}

// falls reports whether a block ending in u falls through to the byte
// after it: only a non-terminator micro-op does. A terminator, a
// closure, or a Step escape computes the successor itself.
func falls(u fusedOp) bool {
	return u.op != arch.UopNone && !u.op.Term()
}

// sblock is one fused run of decoded instructions. nbytes is the byte
// span the run covers, which invalidation uses to drop a block when a
// text write lands anywhere inside it. succ caches the block the last
// execution continued into (valid while succGen matches the segment's
// generation), so stable control flow skips the entry lookup.
type sblock struct {
	ops    []fusedOp
	nbytes uint32
	// fall is true when the final op falls through (a run split
	// mid-stream at maxBlockInsns or the segment edge): the successor is
	// the byte after the block. Otherwise the final op — a terminator
	// micro-op, a closure, or a Step escape — computed the successor
	// itself.
	fall bool

	succ    *sblock
	succPC  uint32
	succGen uint64
}

// decodedAt returns the segment's decode-cache entry for the
// instruction at off, decoding it on first use, or nil when the bytes
// do not decode. A fresh entry with a micro-op or closure counts as a
// decode; a Step escape counts as a fallback each time it runs instead,
// so every executed instruction stays exactly one of a hit, a decode,
// or a fallback.
func (p *Process) decodedAt(s *Segment, off, pc uint32) *arch.DecodedInsn {
	d := &s.decoded[off]
	if d.Len == 0 {
		dn := p.dec.Decode(s.Data, int(off), pc)
		if dn == nil {
			return nil
		}
		if s.ro {
			s.privatize()
			d = &s.decoded[off]
		}
		*d = *dn
		if d.Uop != arch.UopNone || d.Exec != nil {
			p.Sim.Decodes++
		}
	}
	return d
}

// buildBlock fuses the straight-line run starting at off/pc and caches
// it. It reuses decoded entries already in the segment cache and
// decodes the rest; the run ends at the first terminator, the first
// undecodable instruction, the end of the segment, or maxBlockInsns. A
// nil return means the entry instruction itself does not decode.
func (p *Process) buildBlock(s *Segment, entry, pc uint32) *sblock {
	b := &sblock{}
	off := entry
	for len(b.ops) < maxBlockInsns {
		d := p.decodedAt(s, off, pc)
		if d == nil {
			break
		}
		b.ops = append(b.ops, compileOp(d, b.nbytes))
		b.nbytes += d.Len
		off += d.Len
		pc += d.Len
		if d.Flags&arch.InsnTerm != 0 || off >= uint32(len(s.decoded)) {
			break
		}
	}
	if len(b.ops) == 0 {
		return nil
	}
	b.fall = falls(b.ops[len(b.ops)-1])
	s.sblocks[entry] = b
	p.Sim.Blocks++
	p.Sim.BlockInsns += int64(len(b.ops))
	return b
}

// single returns a one-op block for the instruction at off/pc, decoding
// only that instruction and leaving the block cache alone: the form a
// single step, and the approach to a step limit, execute in. The block
// is the process's reusable scratch, so stepping allocates nothing. An
// undecodable instruction — or any, when decode is false because the
// caller just saw it fail to decode — becomes a Step escape, which runs
// it or raises Step's fault for it.
func (p *Process) single(s *Segment, off, pc uint32, decode bool) *sblock {
	b := &p.one
	b.ops = p.oneOp[:]
	b.ops[0], b.nbytes, b.fall = fusedOp{x: stepEscape}, 0, false
	if !decode {
		return b
	}
	if d := p.decodedAt(s, off, pc); d != nil {
		b.ops[0], b.nbytes = compileOp(d, 0), d.Len
		b.fall = falls(b.ops[0])
	}
	return b
}

// textAt returns the segment holding pc, with its decode and block
// caches allocated (lazily, so segments never executed from pay for
// neither), or nil when pc is unmapped.
func (p *Process) textAt(pc uint32) *Segment {
	s := p.lastText
	if s == nil || pc-s.Base >= uint32(len(s.Data)) {
		s = nil
		for _, t := range p.Segs {
			if pc-t.Base < uint32(len(t.Data)) {
				s = t
				break
			}
		}
		if s == nil {
			return nil
		}
		p.lastText = s
	}
	if s.decoded == nil {
		s.decoded = make([]arch.DecodedInsn, len(s.Data))
	}
	if s.sblocks == nil {
		s.sblocks = make([]*sblock, len(s.Data))
	}
	return s
}

// runFused executes decoded code until p.Steps reaches limit (nil
// return) or a fault stops it (returned for the caller to deliver).
// limit is MaxSteps, possibly tightened to the next auto-checkpoint
// boundary, or Steps+1 for a single step: a cached block that would
// overshoot it is replaced by one-op blocks, so pacing costs the fast
// path nothing and a single step never decodes past the instruction it
// retires.
func (p *Process) runFused(limit int64) *arch.Fault {
	regs := p.regs
	flag := &p.flag
	ap := arch.Proc(p)
	be := p.be
	steps := p.Steps
	pc := p.pc
	for steps < limit {
		s := p.textAt(pc)
		if s == nil {
			// Unmapped pc: Step raises the fetch fault.
			p.Steps = steps + 1
			_, f := stepEscape(p, nil, nil, pc)
			return f
		}
		var prev *sblock
		for steps < limit {
			off := pc - s.Base
			if off >= uint32(len(s.sblocks)) {
				break // left the segment: resolve the next one
			}
			var b *sblock
			decode := true
			if prev != nil && prev.succ != nil && prev.succPC == pc && prev.succGen == s.gen {
				b = prev.succ
			} else {
				b = s.sblocks[off]
				if b == nil && limit-steps > 1 {
					b = p.buildBlock(s, off, pc)
					decode = b != nil // nil: the entry does not decode
				}
				if b != nil && prev != nil {
					prev.succ, prev.succPC, prev.succGen = b, pc, s.gen
				}
			}
			if b == nil || int64(len(b.ops)) > limit-steps {
				b = p.single(s, off, pc, decode)
			}
			ops := b.ops
			n := len(ops)
			gen := s.gen
			bpc := pc
			i := 0
			var f *arch.Fault
			var next, v uint32
			for ; i < n; i++ {
				u := &ops[i]
				switch u.op {
				case arch.UopNone:
					next, f = u.x(ap, regs, flag, bpc+uint32(u.off))
					if f != nil {
						goto fault
					}
					if s.gen != gen {
						goto abort
					}
				case arch.UopNop:
				case arch.UopConst:
					regs[u.d] = u.imm
				case arch.UopAddI:
					regs[u.d] = regs[u.s] + u.imm
				case arch.UopAdd:
					regs[u.d] = regs[u.s] + regs[u.t]
				case arch.UopSub:
					regs[u.d] = regs[u.s] - regs[u.t]
				case arch.UopAnd:
					regs[u.d] = regs[u.s] & regs[u.t]
				case arch.UopAndI:
					regs[u.d] = regs[u.s] & u.imm
				case arch.UopOr:
					regs[u.d] = regs[u.s] | regs[u.t]
				case arch.UopOrI:
					regs[u.d] = regs[u.s] | u.imm
				case arch.UopXor:
					regs[u.d] = regs[u.s] ^ regs[u.t]
				case arch.UopXorI:
					regs[u.d] = regs[u.s] ^ u.imm
				case arch.UopNor:
					regs[u.d] = ^(regs[u.s] | regs[u.t])
				case arch.UopMul:
					regs[u.d] = regs[u.s] * regs[u.t]
				case arch.UopShlI:
					regs[u.d] = regs[u.s] << u.imm
				case arch.UopShrI:
					regs[u.d] = regs[u.s] >> u.imm
				case arch.UopSarI:
					regs[u.d] = uint32(int32(regs[u.s]) >> u.imm)
				case arch.UopShl:
					regs[u.d] = regs[u.s] << (regs[u.t] & 31)
				case arch.UopShr:
					regs[u.d] = regs[u.s] >> (regs[u.t] & 31)
				case arch.UopSar:
					regs[u.d] = uint32(int32(regs[u.s]) >> (regs[u.t] & 31))
				case arch.UopSltI:
					v = 0
					if int32(regs[u.s]) < int32(u.imm) {
						v = 1
					}
					regs[u.d] = v
				case arch.UopSlt:
					v = 0
					if int32(regs[u.s]) < int32(regs[u.t]) {
						v = 1
					}
					regs[u.d] = v
				case arch.UopSltu:
					v = 0
					if regs[u.s] < regs[u.t] {
						v = 1
					}
					regs[u.d] = v
				case arch.UopCmp:
					*flag = arch.SubFlags(regs[u.s], regs[u.t])
				case arch.UopCmpI:
					*flag = arch.SubFlags(regs[u.s], u.imm)
				case arch.UopSubCC:
					a, bb := regs[u.s], regs[u.t]
					regs[u.d] = a - bb
					*flag = arch.SubFlags(a, bb)
				case arch.UopSubCCI:
					a := regs[u.s]
					regs[u.d] = a - u.imm
					*flag = arch.SubFlags(a, u.imm)
				case arch.UopLd32:
					addr := regs[u.s] + regs[u.t] + u.imm
					wd, wb := p.memData, p.memBase
					if uint64(addr-wb)+4 > uint64(len(wd)) {
						wd, wb = p.memData2, p.memBase2
					}
					if uint64(addr-wb)+4 <= uint64(len(wd)) {
						d := wd[addr-wb:]
						if be {
							v = uint32(d[3]) | uint32(d[2])<<8 | uint32(d[1])<<16 | uint32(d[0])<<24 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
						} else {
							v = uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
						}
					} else {
						if v, f = p.Load(addr, 4); f != nil {
							goto fault
						}
					}
					regs[u.d] = v
				case arch.UopLd16U, arch.UopLd16S:
					addr := regs[u.s] + regs[u.t] + u.imm
					wd, wb := p.memData, p.memBase
					if uint64(addr-wb)+2 > uint64(len(wd)) {
						wd, wb = p.memData2, p.memBase2
					}
					if uint64(addr-wb)+2 <= uint64(len(wd)) {
						d := wd[addr-wb:]
						if be {
							v = uint32(d[1]) | uint32(d[0])<<8 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
						} else {
							v = uint32(d[0]) | uint32(d[1])<<8 //ldb:allow endian open-coded load in the arch's declared order; the fused dispatch loop
						}
					} else {
						if v, f = p.Load(addr, 2); f != nil {
							goto fault
						}
					}
					if u.op == arch.UopLd16S {
						v = uint32(int32(int16(v)))
					}
					regs[u.d] = v
				case arch.UopLd8U, arch.UopLd8S:
					addr := regs[u.s] + regs[u.t] + u.imm
					wd, wb := p.memData, p.memBase
					if uint64(addr-wb)+1 > uint64(len(wd)) {
						wd, wb = p.memData2, p.memBase2
					}
					if uint64(addr-wb)+1 <= uint64(len(wd)) {
						v = uint32(wd[addr-wb])
					} else {
						if v, f = p.Load(addr, 1); f != nil {
							goto fault
						}
					}
					if u.op == arch.UopLd8S {
						v = uint32(int32(int8(v)))
					}
					regs[u.d] = v
				case arch.UopSt32:
					addr := regs[u.s] + regs[u.t] + u.imm
					v = regs[u.d]
					wd, wb, ws := p.memData, p.memBase, p.lastSeg
					if uint64(addr-wb)+4 > uint64(len(wd)) {
						wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
					}
					if uint64(addr-wb)+4 <= uint64(len(wd)) {
						d := wd[addr-wb:]
						if be {
							d[0], d[1], d[2], d[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
						} else {
							d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
						}
						if sh := ws.shadow; sh != nil {
							pg := (addr - wb) >> amem.SnapShift
							sh.Dirty[pg] = true
							if pg2 := (addr - wb + 3) >> amem.SnapShift; pg2 != pg {
								sh.Dirty[pg2] = true
							}
						}
						if ws.decoded != nil || ws.sblocks != nil {
							p.invalidateCaches(ws, addr, 4)
							if s.gen != gen {
								goto abort
							}
						}
					} else {
						if f = p.Store(addr, 4, v); f != nil {
							goto fault
						}
						if s.gen != gen {
							goto abort
						}
					}
				case arch.UopSt16:
					addr := regs[u.s] + regs[u.t] + u.imm
					v = regs[u.d]
					wd, wb, ws := p.memData, p.memBase, p.lastSeg
					if uint64(addr-wb)+2 > uint64(len(wd)) {
						wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
					}
					if uint64(addr-wb)+2 <= uint64(len(wd)) {
						d := wd[addr-wb:]
						if be {
							d[0], d[1] = byte(v>>8), byte(v)
						} else {
							d[0], d[1] = byte(v), byte(v>>8)
						}
						if sh := ws.shadow; sh != nil {
							pg := (addr - wb) >> amem.SnapShift
							sh.Dirty[pg] = true
							if pg2 := (addr - wb + 1) >> amem.SnapShift; pg2 != pg {
								sh.Dirty[pg2] = true
							}
						}
						if ws.decoded != nil || ws.sblocks != nil {
							p.invalidateCaches(ws, addr, 2)
							if s.gen != gen {
								goto abort
							}
						}
					} else {
						if f = p.Store(addr, 2, v); f != nil {
							goto fault
						}
						if s.gen != gen {
							goto abort
						}
					}
				case arch.UopSt8:
					addr := regs[u.s] + regs[u.t] + u.imm
					v = regs[u.d]
					wd, wb, ws := p.memData, p.memBase, p.lastSeg
					if uint64(addr-wb)+1 > uint64(len(wd)) {
						wd, wb, ws = p.memData2, p.memBase2, p.memSeg2
					}
					if uint64(addr-wb)+1 <= uint64(len(wd)) {
						wd[addr-wb] = byte(v)
						if sh := ws.shadow; sh != nil {
							sh.Dirty[(addr-wb)>>amem.SnapShift] = true
						}
						if ws.decoded != nil || ws.sblocks != nil {
							p.invalidateCaches(ws, addr, 1)
							if s.gen != gen {
								goto abort
							}
						}
					} else {
						if f = p.Store(addr, 1, v); f != nil {
							goto fault
						}
						if s.gen != gen {
							goto abort
						}
					}
				case arch.UopDiv, arch.UopRem:
					v = regs[u.t]
					if v == 0 {
						f = &arch.Fault{Kind: arch.FaultSignal, Sig: arch.SigFPE}
						goto fault
					}
					if u.op == arch.UopDiv {
						regs[u.d] = uint32(int32(regs[u.s]) / int32(v))
					} else {
						regs[u.d] = uint32(int32(regs[u.s]) % int32(v))
					}
				// Terminators: always the final op of a block (buildBlock ends
				// the run at InsnTerm), never fault, never invalidate; they
				// compute next and the block-end code below commits it.
				case arch.UopJmp:
					next = u.imm
				case arch.UopJmpL:
					regs[u.d] = bpc + uint32(u.off) + uint32(u.t)
					next = u.imm
				case arch.UopJmpInd:
					next = regs[u.s] + regs[u.t] + u.imm
				case arch.UopJmpIndL:
					v = regs[u.s] + u.imm
					regs[u.d] = bpc + uint32(u.off) + uint32(u.t)
					next = v
				case arch.UopBeq:
					next = bpc + uint32(u.off) + 4
					if regs[u.s] == regs[u.t] {
						next = u.imm
					}
				case arch.UopBne:
					next = bpc + uint32(u.off) + 4
					if regs[u.s] != regs[u.t] {
						next = u.imm
					}
				case arch.UopBlt:
					next = bpc + uint32(u.off) + 4
					if int32(regs[u.s]) < int32(regs[u.t]) {
						next = u.imm
					}
				case arch.UopBge:
					next = bpc + uint32(u.off) + 4
					if int32(regs[u.s]) >= int32(regs[u.t]) {
						next = u.imm
					}
				case arch.UopBle:
					next = bpc + uint32(u.off) + 4
					if int32(regs[u.s]) <= int32(regs[u.t]) {
						next = u.imm
					}
				case arch.UopBgt:
					next = bpc + uint32(u.off) + 4
					if int32(regs[u.s]) > int32(regs[u.t]) {
						next = u.imm
					}
				case arch.UopBcc:
					next = bpc + uint32(u.off) + 4
					if uint32(u.d)>>(*flag&7)&1 != 0 {
						next = u.imm
					}
				}
			}
			steps += int64(n)
			// Only the final instruction decides the next pc: a terminator —
			// micro-op, closure, or Step escape — computed it in next; a
			// fused run split mid-stream falls through to the byte after the
			// block.
			if b.fall {
				pc = bpc + b.nbytes
			} else {
				pc = next
			}
			prev = b
			if b == &p.one {
				prev = nil // the scratch block is never a successor link
			}
			continue
		abort:
			// Instruction i stored over this segment's text, so the rest of
			// the fused run may be stale. Commit what retired and re-enter
			// through the cache.
			steps += int64(i) + 1
			if ops[i].op != arch.UopNone {
				pc = bpc + uint32(ops[i].off) + 4
			} else {
				pc = next
			}
			prev = nil
			continue
		fault:
			// Steps counts the faulting instruction, exactly as Step-by-Step
			// execution does. The Proc-visible pc is not stored per
			// instruction in fused mode, so signal faults minted from it
			// inside Load/Store carry a stale address — restamp them with
			// the faulting instruction's own pc, which is what Step would
			// have recorded. The committed pc is that address too, unless
			// the handler advanced it itself (syscalls SetPC before
			// trapping, as Step does).
			p.Steps = steps + int64(i) + 1
			if f.Kind != arch.FaultSyscall {
				fpc := bpc + uint32(ops[i].off)
				f.PC = fpc
				p.pc = fpc
			}
			return f
		}
	}
	p.Steps = steps
	p.pc = pc
	return nil
}
