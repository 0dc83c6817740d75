package resilient

import (
	"maxwarp/internal/gpualgo"
	"maxwarp/internal/simt"
)

// Execute runs table entry a fault-tolerantly on d: it uploads in.G in the
// entry's form, drives the resumable run with checkpointed retries of
// transient faults, and degrades to the entry's CPU oracle on a permanent
// fault or an exhausted retry budget unless pol.NoFallback is set. The
// Outcome is nil only when the run could not start.
func Execute(d *simt.Device, a *gpualgo.Algorithm, in gpualgo.Input, opts gpualgo.Options, pol Policy) (gpualgo.Output, *Outcome, error) {
	dg, err := a.Upload(d, in)
	if err != nil {
		return gpualgo.Output{}, nil, err
	}
	run, result, err := a.NewRun(d, dg, in, opts, pol.Launch)
	if err != nil {
		return gpualgo.Output{}, nil, err
	}
	out, derr := Drive(pol, run)
	if derr == nil {
		return result(), out, nil
	}
	if pol.NoFallback {
		return gpualgo.Output{}, out, derr
	}
	out.Degraded = true
	out.FallbackCause = derr
	return a.Oracle(in), out, nil
}
