package gpualgo

import "maxwarp/internal/simt"

// RunState lists the device buffers that make up a run's replayable state:
// everything a kernel step reads or writes, including the uploaded graph
// (fault injection may flip bits in any registered buffer). A supervisor can
// snapshot these between steps and restore them to retry a failed step.
type RunState struct {
	I32 []*simt.BufI32
	F32 []*simt.BufF32
}

// Stepper is a resumable device run (BFSRun, SSSPRun, PageRankRun, CCRun):
// repeated Step calls until done, with host-side progress advancing only on
// success so a supervisor can restore State and retry a failed step.
type Stepper interface {
	Step() (done bool, err error)
	State() RunState
	Iterations() int
}

// finish steps s until it reports done.
func finish(s Stepper) error {
	for {
		done, err := s.Step()
		if err != nil || done {
			return err
		}
	}
}

func graphState(st *RunState, dg *DeviceGraph) {
	st.I32 = append(st.I32, dg.RowPtr, dg.Col)
	if dg.Weights != nil {
		st.I32 = append(st.I32, dg.Weights)
	}
}
