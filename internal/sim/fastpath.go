// Fast execution paths through the machine.
//
// runFast is the functional simulator's hot loop: a dense switch over
// predecoded, pre-split instructions with architectural state held in
// locals, the soft-TLB memory fast path inlined for RAM loads/stores, and
// a one-comparison device-range pre-check. Anything the inline cases do
// not cover — syscalls, CSR reads, MMIO, traps, segment switches — is
// executed by the reference StepInto, one instruction at a time, so the
// tricky semantics exist in exactly one place. The differential tests in
// diff_test.go lock runFast ≡ RunReference on snapshots, console bytes,
// and retired-instruction counts.
//
// runFast is also the cycle-exact simulator's loop. Armed by RunTimed, it
// writes a compact Retire record per retired instruction (superblock
// dispatch off) and hands each full buffer to the timing model's batch
// charge. The rule that keeps timing exact is flush before observe: every
// instruction that can observe or change time — ecall, CSR read, MMIO,
// and the chunk boundaries where checkpoints, Stop polls and the
// instruction limit sit — first charges the pending records into Now,
// then retires through StepInto and is charged from its Event.
//
// RunBatch is the timing reference: it retires instructions through
// StepInto (which shares the predecoded fetch path and soft TLB), emitting
// every Event and charging the timing model after each one. RunTimed falls
// back to it when hooks or a tamper function need per-instruction events,
// and the rtlsim lockstep tests hold the record path to it cycle for
// cycle.
package sim

import (
	"encoding/binary"

	"firemarshal/internal/isa"
)

// stopPollChunk is how many instructions the fast loop retires between
// polls of the Stop channel — about 3ms of guest time at ~300 sim-MIPS,
// so cancellation latency stays imperceptible while the poll cost
// vanishes into the chunk.
const stopPollChunk = 1 << 20

// refBatch is how many instructions RunTimed's reference fallback retires
// per RunBatch call, between Stop polls.
const refBatch = 4096

// RunBatch executes up to len(evs) instructions, writing one Event per
// retired instruction. After each instruction the timing model is charged:
// m.Now += charge(ev). A nil charge advances Now by one per instruction
// (functional time). It returns the number of instructions retired;
// execution stops early when the machine halts or on error. Because events
// are produced and charged in exactly the order the unbatched loop would,
// cycle counts are bit-identical to per-step simulation.
func (m *Machine) RunBatch(evs []Event, charge func(*Event) uint64) (int, error) {
	// Metrics land once per batch: the deferred flush publishes this
	// batch's retired/cycle delta to the attached shards (nil = two
	// compares), keeping the per-instruction loop untouched.
	defer m.flushObs()
	// Checkpoint integration: fire a boundary left pending by the caller,
	// then clamp the batch so it ends exactly on the next boundary. The
	// cycle-exact loop therefore snapshots at the same retired-instruction
	// counts the functional paths do.
	if err := m.maybeCheckpoint(); err != nil {
		return 0, err
	}
	if d := m.ckptDist(); d < uint64(len(evs)) {
		evs = evs[:d]
	}
	n := 0
	for n < len(evs) && !m.Halted {
		ev := &evs[n]
		if err := m.StepInto(ev); err != nil {
			return n, err
		}
		n++
		if charge != nil {
			m.Now += charge(ev)
		} else {
			m.Now++
		}
	}
	if err := m.maybeCheckpoint(); err != nil {
		return n, err
	}
	return n, nil
}

// RunTimed runs the machine until it halts with cycle-exact time: Now
// advances by the timing model's charge for every retired instruction.
// It takes the predecoded fast loop whenever RunFunctional would (no
// hooks, trace writer or tamper function), in which case instructions
// retire into recs as Retire records and chargeRun bills each full run
// of them in one call. Everything that can observe or change time — an
// ECALL, a CSR read, MMIO, a checkpoint boundary, the Stop poll, the
// instruction limit, any other slow-path instruction — first flushes the
// pending records into Now and then retires on the reference StepInto
// path, charged through charge. The guest, devices and checkpoints
// therefore see exactly the Now of per-instruction charging, provided
// chargeRun(rs) equals the sum of charge over the same instructions.
// Otherwise (or with an empty recs) it falls back to RunBatch with
// charge, the timing reference.
// A closed Stop channel returns ErrStopped.
func (m *Machine) RunTimed(recs []Retire, chargeRun func([]Retire) uint64, charge func(*Event) uint64) error {
	if len(m.Hooks) != 0 || m.Trace != nil || m.TamperFn != nil || len(recs) == 0 {
		// The batch length only paces the Stop polls between batches.
		evs := make([]Event, refBatch)
		for !m.Halted {
			if m.Interrupted() {
				return ErrStopped
			}
			if _, err := m.RunBatch(evs, charge); err != nil {
				return err
			}
		}
		return nil
	}
	return m.runFast(recs, chargeRun, charge)
}

// runFast executes until the machine halts. With a nil rec it advances
// functional time (one cycle per instruction). Given a record buffer (by
// RunTimed) it instead writes one Retire record per retired instruction
// and charges them to Now in batches through recCharge; instructions
// that take the slow path are charged one by one through evCharge, after
// the pending records (see RunTimed). Callers must ensure no hooks,
// trace writer, or tamper function are installed; devices are fine (MMIO
// takes the slow path).
func (m *Machine) runFast(rec []Retire, recCharge func([]Retire) uint64, evCharge func(*Event) uint64) error {
	if m.Halted {
		return nil
	}
	// Final metrics flush on every exit path; the chunk boundary below
	// flushes mid-run so a live scrape sees progress. Both are deltas, so
	// together they count each instruction exactly once.
	defer m.flushObs()
	if len(m.Devices) != m.devN {
		m.indexDevices()
	}
	mem := m.Mem
	regs := &m.Regs
	pc := m.PC
	limit := ^uint64(0)
	if m.MaxInstrs > 0 {
		limit = m.MaxInstrs
	}
	devLo, devSpan := m.devLo, m.devHi-m.devLo
	predLo, predSpan := m.predLo, m.predHi-m.predLo
	// Recording turns superblock dispatch off: a trace retires many
	// instructions per hand-off and would skip their records.
	traceOff := m.TraceOff || rec != nil
	// The budget never exceeds the record buffer, so a full buffer is
	// always a chunk end.
	span := ^uint64(0)
	if rec != nil {
		span = uint64(len(rec))
	}

	// Declared out of the loop so goto slowpath never jumps over a
	// declaration in scope at the label. The current segment's fields are
	// hoisted into locals (re-hoisted after every slow step) so the fetch
	// is an offset check and a slice index with no pointer chasing.
	//
	// Instead of bumping Instret and Now per instruction, the loop counts
	// a single budget down from the instruction limit; the retired count
	// is reconstructed whenever state is published at slowpath. Functional
	// time advances one cycle per instruction, so Now moves in lockstep;
	// recorded time is the charge of the records written since the last
	// publish.
	var (
		in       uop
		next     uint64
		addr     uint64 // effective address of the last load/store
		taken    bool   // outcome of the last conditional branch
		nrec     int
		ev       Event
		segBase  uint64
		segUops  []uop
		budget0  uint64
		budget   uint64
		consumed uint64
	)
	if s := m.curSeg; s != nil {
		segBase, segUops = s.base, s.uops
	}
	if err := m.maybeCheckpoint(); err != nil {
		return err
	}
	budget0 = m.fastBudget(limit, span)
	budget = budget0

	for {
		if budget == 0 {
			// The chunk is spent. Publish its retired instructions, fire a
			// checkpoint if this is a boundary, then either poll Stop and
			// refill (chunk boundary) or take the slow path so StepInto
			// raises the instruction-limit trap.
			m.PC = pc
			m.Instret += budget0
			if rec != nil {
				m.Now += recCharge(rec[:nrec])
				nrec = 0
			} else {
				m.Now += budget0
			}
			m.flushObs()
			if err := m.maybeCheckpoint(); err != nil {
				return err
			}
			budget0 = m.fastBudget(limit, span)
			if budget0 == 0 {
				goto slowpath // consumed is now zero; StepInto raises the limit trap
			}
			if m.Interrupted() {
				return ErrStopped
			}
			budget = budget0
			continue
		}
		{
			idx := pc - segBase
			if idx&3 != 0 || idx>>2 >= uint64(len(segUops)) {
				goto slowpath // segment switch or misaligned PC
			}
			in = segUops[idx>>2]
		}
		next = pc + 4

		switch in.Op {
		case isa.OpADD:
			rd := regs[in.Rs1&31] + regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSUB:
			rd := regs[in.Rs1&31] - regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLL:
			rd := regs[in.Rs1&31] << (regs[in.Rs2&31] & 63)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLT:
			var rd uint64
			if int64(regs[in.Rs1&31]) < int64(regs[in.Rs2&31]) {
				rd = 1
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTU:
			var rd uint64
			if regs[in.Rs1&31] < regs[in.Rs2&31] {
				rd = 1
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpXOR:
			rd := regs[in.Rs1&31] ^ regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRL:
			rd := regs[in.Rs1&31] >> (regs[in.Rs2&31] & 63)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRA:
			rd := uint64(int64(regs[in.Rs1&31]) >> (regs[in.Rs2&31] & 63))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpOR:
			rd := regs[in.Rs1&31] | regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpAND:
			rd := regs[in.Rs1&31] & regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMUL:
			rd := regs[in.Rs1&31] * regs[in.Rs2&31]
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULH:
			rd := mulh(int64(regs[in.Rs1&31]), int64(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULHU:
			rd := mulhu(regs[in.Rs1&31], regs[in.Rs2&31])
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIV:
			rd := div(int64(regs[in.Rs1&31]), int64(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVU:
			rs2 := regs[in.Rs2&31]
			rd := ^uint64(0)
			if rs2 != 0 {
				rd = regs[in.Rs1&31] / rs2
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREM:
			rd := rem(int64(regs[in.Rs1&31]), int64(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMU:
			rs1, rs2 := regs[in.Rs1&31], regs[in.Rs2&31]
			rd := rs1
			if rs2 != 0 {
				rd = rs1 % rs2
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpADDI:
			rd := regs[in.Rs1&31] + uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTI:
			var rd uint64
			if int64(regs[in.Rs1&31]) < int64(in.Imm) {
				rd = 1
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLTIU:
			var rd uint64
			if regs[in.Rs1&31] < uint64(in.Imm) {
				rd = 1
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpXORI:
			rd := regs[in.Rs1&31] ^ uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpORI:
			rd := regs[in.Rs1&31] | uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpANDI:
			rd := regs[in.Rs1&31] & uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLI:
			rd := regs[in.Rs1&31] << uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLI:
			rd := regs[in.Rs1&31] >> uint64(in.Imm)
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAI:
			rd := uint64(int64(regs[in.Rs1&31]) >> uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpLUI:
			regs[in.Rd&31] = uint64(in.Imm)
			regs[0] = 0
		case isa.OpAUIPC:
			regs[in.Rd&31] = pc + uint64(in.Imm)
			regs[0] = 0
		case isa.OpJAL:
			regs[in.Rd&31] = next
			regs[0] = 0
			next = pc + uint64(in.Imm)
		case isa.OpJALR:
			t := next
			next = (regs[in.Rs1&31] + uint64(in.Imm)) &^ 1
			regs[in.Rd&31] = t
			regs[0] = 0
		case isa.OpBEQ:
			taken = regs[in.Rs1&31] == regs[in.Rs2&31]
			if taken {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBNE:
			taken = regs[in.Rs1&31] != regs[in.Rs2&31]
			if taken {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBLT:
			taken = int64(regs[in.Rs1&31]) < int64(regs[in.Rs2&31])
			if taken {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBGE:
			taken = int64(regs[in.Rs1&31]) >= int64(regs[in.Rs2&31])
			if taken {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBLTU:
			taken = regs[in.Rs1&31] < regs[in.Rs2&31]
			if taken {
				next = pc + uint64(in.Imm)
			}
		case isa.OpBGEU:
			taken = regs[in.Rs1&31] >= regs[in.Rs2&31]
			if taken {
				next = pc + uint64(in.Imm)
			}

		case isa.OpLD:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var rd uint64
			if off := addr & (pageSize - 1); off <= pageSize-8 {
				if p := mem.lookup(addr); p != nil {
					rd = binary.LittleEndian.Uint64(p[off:])
				}
			} else {
				rd = mem.Read(addr, 8)
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpLW:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint32
			if off := addr & (pageSize - 1); off <= pageSize-4 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint32(p[off:])
				}
			} else {
				v = uint32(mem.Read(addr, 4))
			}
			regs[in.Rd&31] = uint64(int64(int32(v)))
			regs[0] = 0
		case isa.OpLWU:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint32
			if off := addr & (pageSize - 1); off <= pageSize-4 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint32(p[off:])
				}
			} else {
				v = uint32(mem.Read(addr, 4))
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0
		case isa.OpLH:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint16
			if off := addr & (pageSize - 1); off <= pageSize-2 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint16(p[off:])
				}
			} else {
				v = uint16(mem.Read(addr, 2))
			}
			regs[in.Rd&31] = uint64(int64(int16(v)))
			regs[0] = 0
		case isa.OpLHU:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v uint16
			if off := addr & (pageSize - 1); off <= pageSize-2 {
				if p := mem.lookup(addr); p != nil {
					v = binary.LittleEndian.Uint16(p[off:])
				}
			} else {
				v = uint16(mem.Read(addr, 2))
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0
		case isa.OpLB:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v byte
			if p := mem.lookup(addr); p != nil {
				v = p[addr&(pageSize-1)]
			}
			regs[in.Rd&31] = uint64(int64(int8(v)))
			regs[0] = 0
		case isa.OpLBU:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			var v byte
			if p := mem.lookup(addr); p != nil {
				v = p[addr&(pageSize-1)]
			}
			regs[in.Rd&31] = uint64(v)
			regs[0] = 0

		case isa.OpSD:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			if off := addr & (pageSize - 1); off <= pageSize-8 {
				binary.LittleEndian.PutUint64(mem.lookupCreate(addr)[off:], regs[in.Rs2&31])
			} else {
				mem.Write(addr, 8, regs[in.Rs2&31])
			}
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 8)
			}
		case isa.OpSW:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			if off := addr & (pageSize - 1); off <= pageSize-4 {
				binary.LittleEndian.PutUint32(mem.lookupCreate(addr)[off:], uint32(regs[in.Rs2&31]))
			} else {
				mem.Write(addr, 4, regs[in.Rs2&31])
			}
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 4)
			}
		case isa.OpSH:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			if off := addr & (pageSize - 1); off <= pageSize-2 {
				binary.LittleEndian.PutUint16(mem.lookupCreate(addr)[off:], uint16(regs[in.Rs2&31]))
			} else {
				mem.Write(addr, 2, regs[in.Rs2&31])
			}
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 2)
			}
		case isa.OpSB:
			addr = regs[in.Rs1&31] + uint64(in.Imm)
			if addr-devLo < devSpan {
				goto slowpath
			}
			mem.lookupCreate(addr)[addr&(pageSize-1)] = byte(regs[in.Rs2&31])
			if addr-predLo < predSpan {
				m.invalidateCode(addr, 1)
			}

		case isa.OpADDW:
			rd := sext32(uint32(regs[in.Rs1&31]) + uint32(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSUBW:
			rd := sext32(uint32(regs[in.Rs1&31]) - uint32(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLW:
			rd := sext32(uint32(regs[in.Rs1&31]) << (regs[in.Rs2&31] & 31))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLW:
			rd := sext32(uint32(regs[in.Rs1&31]) >> (regs[in.Rs2&31] & 31))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAW:
			rd := uint64(int64(int32(regs[in.Rs1&31]) >> (regs[in.Rs2&31] & 31)))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpADDIW:
			rd := sext32(uint32(regs[in.Rs1&31]) + uint32(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSLLIW:
			rd := sext32(uint32(regs[in.Rs1&31]) << uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRLIW:
			rd := sext32(uint32(regs[in.Rs1&31]) >> uint64(in.Imm))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpSRAIW:
			rd := uint64(int64(int32(regs[in.Rs1&31]) >> uint64(in.Imm)))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpMULW:
			rd := sext32(uint32(regs[in.Rs1&31]) * uint32(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVW:
			rd := divw(int32(regs[in.Rs1&31]), int32(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpDIVUW:
			rs2 := uint32(regs[in.Rs2&31])
			rd := ^uint64(0)
			if rs2 != 0 {
				rd = sext32(uint32(regs[in.Rs1&31]) / rs2)
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMW:
			rd := remw(int32(regs[in.Rs1&31]), int32(regs[in.Rs2&31]))
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpREMUW:
			rs1, rs2 := uint32(regs[in.Rs1&31]), uint32(regs[in.Rs2&31])
			rd := sext32(rs1)
			if rs2 != 0 {
				rd = sext32(rs1 % rs2)
			}
			regs[in.Rd&31] = rd
			regs[0] = 0
		case isa.OpFENCE:
			// No-op.
		default:
			// ECALL, EBREAK, CSR reads, invalid words, and anything else
			// with environment interactions runs on the reference path.
			goto slowpath
		}

		if rec != nil {
			rec[nrec] = Retire{PC: pc, Addr: addr, Op: in.Op, Taken: taken}
			nrec++
		}
		if next <= pc && !traceOff {
			// A backward (or self) edge was just taken: the landing pc is a
			// loop-head candidate. Dispatch a compiled superblock when one
			// exists and a full pass fits in the remaining budget (the
			// budget is already clamped to the instruction limit, the Stop
			// poll chunk, and the checkpoint boundary, so a trace can never
			// overrun any of them); otherwise bump the head's hotness,
			// compiling it at the threshold. See trace.go. With TraceOff
			// set the whole block is skipped and the loop stays a pure
			// predecoded interpreter (the farm's "fast" tier).
			pc = next
			budget--
			if t := m.lookupTrace(pc); t != nil {
				if t.n != 0 && budget >= t.n {
					m.traceHits++
					m.fusionSeen |= t.fusion
					var nret uint64
					pc, nret = m.runTrace(t, regs, mem, devLo, devSpan, predLo, predSpan, budget)
					budget -= nret
					m.traceInstrs += nret
				}
			} else {
				m.noteHot(pc)
			}
			continue
		}
		pc = next
		budget--
		continue

	slowpath:
		// Publish architectural state (and, recording, the cycles of every
		// pending record, so the slow instruction observes exact time),
		// retire exactly one instruction on the reference path, and
		// resume the fast loop.
		consumed = budget0 - budget
		m.PC = pc
		m.Instret += consumed
		if rec != nil {
			m.Now += recCharge(rec[:nrec])
			nrec = 0
		} else {
			m.Now += consumed
		}
		if err := m.StepInto(&ev); err != nil {
			return err
		}
		if rec != nil {
			m.Now += evCharge(&ev)
		} else {
			m.Now++ // RunFunctional charges one cycle per instruction
		}
		pc = m.PC
		// The slow step may have landed exactly on a checkpoint boundary.
		if err := m.maybeCheckpoint(); err != nil {
			return err
		}
		if m.Halted {
			return nil
		}
		// Slow steps (MMIO, syscalls) can dominate some guests' time, so
		// the kill switch is also polled here — with no Stop channel this
		// is one nil check per slow step.
		if m.Interrupted() {
			return ErrStopped
		}
		budget0 = m.fastBudget(limit, span)
		budget = budget0
		// The slow step may have decoded code at a new address (extending
		// the store-invalidation guard) or switched curSeg; re-hoist the
		// loop's cached bounds so fetch and the store guard stay coherent.
		predLo, predSpan = m.predLo, m.predHi-m.predLo
		if s := m.curSeg; s != nil {
			segBase, segUops = s.base, s.uops
		}
	}
}

// fastBudget returns how many instructions the fast loop may retire
// before it must surface: the distance to the instruction limit, capped
// at the Stop poll chunk when a kill switch is installed, at the next
// checkpoint boundary, and at span. Zero means the limit is reached.
func (m *Machine) fastBudget(limit, span uint64) uint64 {
	var b uint64
	if limit > m.Instret {
		b = limit - m.Instret
	}
	if m.Stop != nil && b > stopPollChunk {
		// A kill switch is installed: count the budget down in chunks so
		// the channel is polled every stopPollChunk instructions. Without
		// one (the common case) the budget spans the whole run.
		b = stopPollChunk
	}
	// Checkpointing rides the same chunk mechanism: clamping the budget to
	// the boundary distance makes the loop surface at exact multiples of
	// CkptEvery, where maybeCheckpoint fires with state published.
	if d := m.ckptDist(); b > d {
		b = d
	}
	return min(b, span)
}
