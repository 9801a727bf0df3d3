package trace

import (
	"sync"
	"sync/atomic"
)

// Tape geometry. A tape records seqs [0, tapeHorizon) of its stream in
// chunks of tapeChunkLen instructions; a seq at or past the horizon is
// generated on every read. Fully recorded, a tape holds 8 bytes per
// instruction below the horizon: 16 MB.
const (
	tapeChunkShift = 12
	tapeChunkLen   = 1 << tapeChunkShift
	tapeChunkMask  = tapeChunkLen - 1
	tapeHorizon    = 1 << 21
	tapeChunks     = tapeHorizon / tapeChunkLen
)

// A tape record packs one instruction into a word: op in bits 0–3, taken
// in bit 4, Dep1 and Dep2 in 10 bits each from bit 5 and bit 15, and a
// memory op's data offset divided by 8 from bit 25 (36 bits). The PC is
// not recorded: Fill re-derives it by the block walk Stream.Fill does.
// Params.Validate rejects the profiles whose fields would not fit
// (maxTapeDep, maxTapeWorkingSet).
const (
	recOpMask     = 1<<4 - 1
	recTakenShift = 4
	recDep1Shift  = 5
	recDep2Shift  = 15
	recDepMask    = 1<<10 - 1
	recOffShift   = 25
)

type tapeChunk = [tapeChunkLen]uint64

// Tape is a recording of a Stream that many readers share: each chunk is
// generated once, on first demand, and every later read of it decodes the
// recorded words instead of drawing the instructions again. Fill has
// exactly Stream.Fill's contract — out[i] == At(seq+i) of the stream — and
// since a stream is pure in seq, a recorded instruction is the one the
// stream would generate at any later time.
//
// A chunk is generated under the tape's mutex and published atomically;
// reading a published chunk takes no lock, so a Tape may be read from
// several goroutines.
type Tape struct {
	s      *Stream
	mu     sync.Mutex
	chunks [tapeChunks]atomic.Pointer[tapeChunk]
}

// NewTape returns an empty tape over s. Nothing is generated until a read
// demands it.
func NewTape(s *Stream) *Tape { return &Tape{s: s} }

// At returns instruction seq of the recorded stream.
func (t *Tape) At(seq uint64) Inst {
	if seq >= tapeHorizon {
		return t.s.At(seq)
	}
	var in Inst
	t.unpack(&in, t.chunk(seq >> tapeChunkShift)[seq&tapeChunkMask], seq, t.s.pcAt(seq))
	return in
}

// Fill writes the len(out) instructions starting at seq into out:
// out[i] == At(seq+i).
func (t *Tape) Fill(seq uint64, out []Inst) {
	n := 0 // instructions below the horizon
	if seq < tapeHorizon {
		n = int(min(tapeHorizon-seq, uint64(len(out))))
	}
	if n < len(out) {
		t.s.Fill(seq+uint64(n), out[n:])
	}
	if n == 0 {
		return
	}
	// Walk the basic blocks as Stream.Fill does, decoding each run of
	// instructions that lies in one block and one chunk.
	s := t.s
	blockLen := uint64(s.params.BlockLen)
	visit := s.divBlockLen.Div(seq)
	within := seq - visit*blockLen
	pc := s.blockBase(visit) + within*4
	c := t.chunk(seq >> tapeChunkShift)
	out = out[:n]
	for {
		k := seq & tapeChunkMask
		run := min(blockLen-within, tapeChunkLen-k, uint64(len(out)))
		for i, r := range c[k : k+run] {
			t.unpack(&out[i], r, seq+uint64(i), pc+uint64(i)*4)
		}
		if out = out[run:]; len(out) == 0 {
			return
		}
		seq += run
		if within += run; within == blockLen {
			visit++
			within = 0
			pc = s.blockBase(visit)
		} else {
			pc += run * 4
		}
		if seq&tapeChunkMask == 0 {
			c = t.chunk(seq >> tapeChunkShift)
		}
	}
}

// chunk returns chunk k, recording it if no reader has yet.
func (t *Tape) chunk(k uint64) *tapeChunk {
	if c := t.chunks[k].Load(); c != nil {
		return c
	}
	return t.record(k)
}

// record generates chunk k under the tape's mutex, unless a reader that
// held the mutex first already has, and publishes it.
func (t *Tape) record(k uint64) *tapeChunk {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.chunks[k].Load(); c != nil {
		return c
	}
	c := new(tapeChunk)
	var buf [64]Inst
	seq := k << tapeChunkShift
	for i := 0; i < tapeChunkLen; i += len(buf) {
		t.s.Fill(seq+uint64(i), buf[:])
		for j := range buf {
			c[i+j] = t.pack(&buf[j])
		}
	}
	t.chunks[k].Store(c)
	return c
}

// pack encodes in as a tape record.
func (t *Tape) pack(in *Inst) uint64 {
	r := uint64(in.Op) | uint64(in.Dep1)<<recDep1Shift | uint64(in.Dep2)<<recDep2Shift
	if in.Taken {
		r |= 1 << recTakenShift
	}
	if in.Op.IsMem() {
		r |= (in.Addr - t.s.dataBase) >> 3 << recOffShift
	}
	return r
}

// unpack decodes record r, instruction seq at code address pc, into in.
// It writes every field in place; a composite literal would be built in a
// stack temporary and copied over.
func (t *Tape) unpack(in *Inst, r, seq, pc uint64) {
	op := Op(r & recOpMask)
	mem := uint64(1<<LOAD|1<<STORE) >> op & 1 // 1 for a memory op, else 0
	in.Op = op
	in.Seq = seq
	in.Dep1 = uint32(r>>recDep1Shift) & recDepMask
	in.Dep2 = uint32(r>>recDep2Shift) & recDepMask
	in.Addr = (t.s.dataBase + r>>recOffShift<<3) & -mem
	in.PC = pc
	in.Taken = r>>recTakenShift&1 != 0
}
