package workload

import (
	"fmt"

	"symbios/internal/cpu"
	"symbios/internal/trace"
)

// PhasedSource chains instruction streams so a job passes through distinct
// execution phases ("jobs will naturally pass through different phases of
// execution where their resource utilization and IPC profiles change",
// Section 9). The switch points are positions in the dynamic instruction
// stream, so the source remains a pure function of the sequence number and
// replays exactly across context switches.
type PhasedSource struct {
	phases []phase
}

type phase struct {
	until  uint64 // first sequence number beyond this phase (last phase: max)
	stream *trace.Stream
}

// NewPhasedSource builds a source that executes params[i] until the stream
// position reaches switchAt[i], then moves to the next profile; the last
// profile runs forever. len(switchAt) must be len(params)-1 and ascending.
func NewPhasedSource(params []trace.Params, switchAt []uint64, seed, space uint64) (*PhasedSource, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("workload: phased source needs at least one profile")
	}
	if len(switchAt) != len(params)-1 {
		return nil, fmt.Errorf("workload: %d switch points for %d profiles", len(switchAt), len(params))
	}
	ps := &PhasedSource{}
	prev := uint64(0)
	for i, p := range params {
		until := ^uint64(0)
		if i < len(switchAt) {
			until = switchAt[i]
			if until <= prev {
				return nil, fmt.Errorf("workload: switch points must ascend")
			}
			prev = until
		}
		st, err := trace.NewStream(p, seed+uint64(i)*0x9e37, space)
		if err != nil {
			return nil, err
		}
		ps.phases = append(ps.phases, phase{until: until, stream: st})
	}
	return ps, nil
}

// At returns instruction seq, drawn from the profile active at that stream
// position.
func (ps *PhasedSource) At(seq uint64) trace.Inst {
	for i := range ps.phases {
		if seq < ps.phases[i].until {
			return ps.phases[i].stream.At(seq)
		}
	}
	return ps.phases[len(ps.phases)-1].stream.At(seq)
}

// Fill writes instructions seq.. into out (out[i] == At(seq+i)), switching
// streams wherever the run crosses a phase boundary.
func (ps *PhasedSource) Fill(seq uint64, out []trace.Inst) {
	last := len(ps.phases) - 1
	for i := range ps.phases {
		ph := &ps.phases[i]
		n := len(out)
		if i < last {
			if seq >= ph.until {
				continue
			}
			n = int(min(ph.until-seq, uint64(n)))
		}
		ph.stream.Fill(seq, out[:n])
		seq += uint64(n)
		out = out[n:]
	}
}

// Phases returns the number of profiles.
func (ps *PhasedSource) Phases() int { return len(ps.phases) }

var _ cpu.Source = (*PhasedSource)(nil)
