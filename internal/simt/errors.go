package simt

import (
	"errors"
	"fmt"
)

// This file defines the simulator's failure model. Every way a launch can
// fail surfaces at the Launch/LaunchWith boundary as a typed error — never a
// panic — so callers can distinguish transient faults (worth retrying) from
// permanent ones (a kernel bug, a lost device) and react programmatically.
//
// The model mirrors a real CUDA driver's contract:
//
//   - out-of-range device accesses, stores and atomics to frozen (read-only)
//     buffers, and kernel panics map to a *KernelFault carrying the faulting
//     buffer, index, block/warp/lane, and cycle (cudaErrorIllegalAddress
//     with the extra context a simulator can give);
//   - injected memory bit-flips and mid-launch aborts are *KernelFault too,
//     with transient kinds (an ECC double-bit error or a preempted kernel);
//   - exceeding the cycle deadline wraps ErrLaunchTimeout;
//   - a lost device wraps ErrDeviceLost and poisons subsequent launches
//     until Revive, like cudaErrorDevicesUnavailable until a driver reset.

// FaultKind classifies a kernel failure.
type FaultKind uint8

const (
	// FaultUnknown is the zero value; never produced by the simulator.
	FaultUnknown FaultKind = iota
	// FaultOOB is an out-of-range global or shared memory access.
	FaultOOB
	// FaultPanic is a Go panic escaping kernel code (including misuse of
	// WarpCtx primitives, e.g. an invalid group width).
	FaultPanic
	// FaultBitFlip is an injected single-bit memory corruption, detected and
	// reported like an ECC uncorrectable error. Transient: a retry with
	// restored buffers is expected to succeed.
	FaultBitFlip
	// FaultAbort is an injected mid-launch kernel abort (a preempted or
	// evicted kernel). Transient.
	FaultAbort
	// FaultCancelled is a launch cancelled by LaunchOpts.OnProgress.
	FaultCancelled
	// FaultReadOnly is a store or atomic to a buffer the host froze (see
	// BufI32.Freeze): a kernel bug, never retried.
	FaultReadOnly
)

// String names the kind for logs and error text.
func (k FaultKind) String() string {
	switch k {
	case FaultOOB:
		return "out-of-bounds"
	case FaultPanic:
		return "kernel-panic"
	case FaultBitFlip:
		return "bit-flip"
	case FaultAbort:
		return "kernel-abort"
	case FaultCancelled:
		return "cancelled"
	case FaultReadOnly:
		return "read-only-write"
	default:
		return "unknown"
	}
}

// Transient reports whether a fault of this kind is expected to succeed on
// retry (after restoring any corrupted buffers). Deterministic failures —
// bad indices, kernel bugs, cancellation — are not transient.
func (k FaultKind) Transient() bool {
	return k == FaultBitFlip || k == FaultAbort
}

// KernelFault is the structured error describing a failed kernel launch.
// Fields that are unknown for a given fault are -1 (locations) or zero
// values (names).
type KernelFault struct {
	// Kind classifies the failure. FaultOOB, FaultReadOnly (a store or
	// atomic to a frozen buffer) and FaultPanic are kernel bugs;
	// FaultBitFlip and FaultAbort are injected and transient;
	// FaultCancelled is an OnProgress cancellation.
	Kind FaultKind
	// Buffer names the device buffer involved, if any ("shared:<key>" for
	// block-shared arrays).
	Buffer string
	// Index is the faulting element index within Buffer (-1 if not
	// applicable).
	Index int64
	// Block, Warp, Lane locate the fault in the grid: the block id, the
	// grid-wide warp id, and the lane within the warp (-1 when the fault is
	// not attributable, e.g. an injected device-level fault).
	Block, Warp, Lane int
	// Cycle is the SM clock when the fault surfaced.
	Cycle int64
	// Detail is the human-readable description.
	Detail string
	// Stack holds the goroutine stack for FaultPanic faults.
	Stack string
}

// Error implements the error interface.
func (f *KernelFault) Error() string {
	msg := fmt.Sprintf("simt: %s fault", f.Kind)
	if f.Buffer != "" {
		msg += fmt.Sprintf(" on buffer %q", f.Buffer)
		if f.Index >= 0 {
			msg += fmt.Sprintf(" index %d", f.Index)
		}
	}
	if f.Block >= 0 {
		msg += fmt.Sprintf(" in block %d warp %d", f.Block, f.Warp)
		if f.Lane >= 0 {
			msg += fmt.Sprintf(" lane %d", f.Lane)
		}
	}
	if f.Cycle > 0 {
		msg += fmt.Sprintf(" at cycle %d", f.Cycle)
	}
	if f.Detail != "" {
		msg += ": " + f.Detail
	}
	return msg
}

// Transient reports whether retrying the launch (with restored buffers) is
// expected to succeed.
func (f *KernelFault) Transient() bool { return f.Kind.Transient() }

// Sentinel errors for device-level failures. They are always returned
// wrapped (with context), so test with errors.Is.
var (
	// ErrDeviceLost means the simulated device failed permanently
	// mid-launch; every subsequent launch fails with it until Revive.
	ErrDeviceLost = errors.New("simt: device lost")
	// ErrLaunchTimeout means the launch exceeded its cycle deadline
	// (Config.MaxCycles or LaunchOpts.MaxCycles).
	ErrLaunchTimeout = errors.New("simt: launch deadline exceeded")
	// ErrLaunchCancelled means LaunchOpts.OnProgress aborted the launch.
	ErrLaunchCancelled = errors.New("simt: launch cancelled")
)

// IsTransient reports whether err represents a transient launch failure — an
// injected bit-flip or kernel abort — that a retry with restored buffers is
// expected to survive. Permanent failures (out-of-bounds accesses, writes to
// frozen buffers, kernel panics, timeouts, cancellations, a lost device)
// return false.
func IsTransient(err error) bool {
	var kf *KernelFault
	if errors.As(err, &kf) {
		return kf.Transient()
	}
	return false
}

// newFaultOOB builds the typed out-of-bounds fault panicked from inside a
// kernel and recovered at the launch boundary; location fields are filled in
// by the recovering warp goroutine.
func newFaultOOB(buffer string, index int64, n int) *KernelFault {
	return &KernelFault{
		Kind:   FaultOOB,
		Buffer: buffer,
		Index:  index,
		Block:  -1, Warp: -1, Lane: -1,
		Detail: fmt.Sprintf("index %d out of range [0,%d)", index, n),
	}
}

// newFaultReadOnly builds the typed fault of a store or atomic (op) to a
// frozen buffer, panicked and recovered like newFaultOOB's.
func newFaultReadOnly(buffer string, index int64, op string) *KernelFault {
	return &KernelFault{
		Kind:   FaultReadOnly,
		Buffer: buffer,
		Index:  index,
		Block:  -1, Warp: -1, Lane: -1,
		Detail: op + " to a frozen (read-only) buffer",
	}
}
