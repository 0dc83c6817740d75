package resilient

import (
	"maxwarp/internal/gpualgo"
)

// Stepper is a resumable device run — every table entry's gpualgo.Run:
// Step advances one round and leaves host state untouched on failure, State
// lists the device buffers a step may touch.
type Stepper = gpualgo.Stepper

// Drive runs s to completion under pol: after every successful step it
// checkpoints the device state, and on a transient failure it restores the
// checkpoint and retries the same step with exponential backoff. It returns
// a non-nil error once a permanent fault strikes or a single step exhausts
// the retry budget; the caller decides whether to degrade to an oracle.
// The returned Outcome is always non-nil and logs every fault observed.
func Drive(pol Policy, s Stepper) (*Outcome, error) {
	pol = pol.withDefaults()
	out := &Outcome{}
	cp := NewCheckpoint(s.State())
	attempt := 1
	for {
		done, err := s.Step()
		if err == nil {
			cp.Save()
			attempt = 1
			if done {
				return out, nil
			}
			continue
		}
		out.Faults = append(out.Faults, FaultRecord{
			Iteration: s.Iterations(),
			Attempt:   attempt,
			Err:       err,
		})
		if permanent(err) || attempt > pol.MaxRetries {
			return out, err
		}
		cp.Restore()
		out.Retries++
		pol.Sleep(pol.sleepFor(attempt))
		attempt++
	}
}
