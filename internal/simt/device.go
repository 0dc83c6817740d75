package simt

import (
	"fmt"
	"log"
)

// Kernel is a GPU kernel: it is invoked once per warp and runs lockstep
// across the warp's lanes via the WarpCtx primitives.
type Kernel func(w *WarpCtx)

// Device is a simulated GPU: a configuration plus a global-memory space.
// Buffers persist across launches, so multi-pass algorithms (level-
// synchronous BFS, PageRank iterations) work exactly like their CUDA
// counterparts: allocate once, launch many times, read results back.
//
// A Device is not safe for concurrent use; a launch runs the simulation on
// the calling goroutine.
type Device struct {
	cfg    Config
	mem    *memory
	tracer Tracer
	san    Sanitizer

	// Allocation registry, so bit-flip injection can pick its target among
	// every buffer the device has allocated.
	bufsI32 []*BufI32
	bufsF32 []*BufF32

	// Fault-injection state (nil when no plan is installed).
	faults *faultState
	lost   bool

	// fallbackWarned dedupes the sequential-fallback log line per reason.
	fallbackWarned map[string]bool

	// profiling enables per-launch histograms (LaunchStats.Profile) on every
	// launch; see SetProfiling.
	profiling bool
	// totals accumulates device-lifetime counters across launches (counter
	// fields plus Cycles; the per-warp vectors are per-launch only).
	totals   LaunchStats
	launches int64
	// handoffs counts changes of the warp holding an execution token across
	// launches (see domain.handoffs): the simulator's host cost per step.
	handoffs int64

	// sms are the device's SM runtimes and doms its scheduling domains, kept
	// across launches and reset at each one, so a launch rebuilds no ready
	// tree or cache and reuses the warp and block runtimes, coroutine free
	// lists and store-shadow pools the SMs and domains keep. The coroutines
	// that run warps are pooled process-wide instead (see coroPool), so a
	// dropped Device strands none. Launches on a Device serialize (a Device
	// is not safe for concurrent use), so no locking is needed.
	sms  []*smRT
	doms []domain
	// ovI32 and ovF32 arm and recycle the atomic overlays. Only the holder
	// of a launch's atomic gate touches them.
	ovI32 shadowPool[int32]
	ovF32 shadowPool[float32]
}

// warnSequentialFallback logs, once per reason per device, that a
// ParallelSMs>1 launch was forced onto the sequential event loop. The reason
// is also recorded in LaunchStats.SequentialFallback.
func (d *Device) warnSequentialFallback(reason string) {
	if d.fallbackWarned[reason] {
		return
	}
	if d.fallbackWarned == nil {
		d.fallbackWarned = make(map[string]bool)
	}
	d.fallbackWarned[reason] = true
	log.Printf("simt: ParallelSMs=%d requested but launch runs sequentially (%s)", d.cfg.ParallelSMs, reason)
}

// NewDevice creates a device with the given configuration.
func NewDevice(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:  cfg,
		mem:  newMemory(cfg.SegmentBytes),
		sms:  make([]*smRT, cfg.NumSMs),
		doms: make([]domain, cfg.NumSMs),
	}
	for i := range d.sms {
		d.sms[i] = newSM(i, cfg)
	}
	return d, nil
}

// MustNewDevice is NewDevice that panics on configuration errors; intended
// for tests and examples with static configs.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetSanitizer attaches (or, with nil, detaches) a sanitizer. Launches run
// under it when Config.Sanitize is set, or per-launch via
// LaunchOpts.Sanitize. Sanitized launches are forced onto the sequential
// event loop so the sanitizer observes the canonical execution order;
// simulated cycles are unaffected (hooks charge nothing).
func (d *Device) SetSanitizer(s Sanitizer) { d.san = s }

// SetProfiling enables (or disables) per-launch cycle/latency histograms for
// subsequent launches: their LaunchStats.Profile is populated, at the cost of
// a few histogram updates per instruction. Equivalent to passing
// LaunchOpts.Profile on every launch.
func (d *Device) SetProfiling(on bool) { d.profiling = on }

// Totals returns the device-lifetime accumulation of launch counters: every
// LaunchStats counter field plus Cycles summed across launches (successful or
// partial). The per-launch vectors (WarpBusy, SMFinish) are not accumulated.
func (d *Device) Totals() LaunchStats {
	t := d.totals
	if t.Profile != nil {
		t.Profile = t.Profile.Clone()
	}
	return t
}

// LaunchCount returns how many launches the device has executed.
func (d *Device) LaunchCount() int64 { return d.launches }

// Handoffs returns how many times an execution token passed to another
// holder (loop to warp, warp to warp, warp to loop) since the device was
// created: each is a switch between warp coroutines, the simulator's host
// cost per step. Within one host mode it is deterministic, but it differs
// between modes, so it is not a LaunchStats field.
func (d *Device) Handoffs() int64 { return d.handoffs }

// noteLaunch folds one launch's stats into the device-lifetime totals.
func (d *Device) noteLaunch(stats *LaunchStats) {
	d.launches++
	d.totals.addCounters(stats)
	d.totals.Cycles += stats.Cycles
	if d.totals.WarpWidth == 0 {
		d.totals.WarpWidth = stats.WarpWidth
	}
}

// AllocI32 allocates a zeroed device buffer of n int32 elements.
func (d *Device) AllocI32(name string, n int) *BufI32 {
	if n < 0 {
		panic(fmt.Sprintf("simt: AllocI32(%q, %d): negative length", name, n))
	}
	b := &BufI32{name: name, base: d.mem.reserve(4 * n), data: make([]int32, n),
		sh: make([]*bufShadow[int32], d.cfg.NumSMs)}
	d.bufsI32 = append(d.bufsI32, b)
	return b
}

// UploadI32 allocates a device buffer holding a copy of data.
func (d *Device) UploadI32(name string, data []int32) *BufI32 {
	b := d.AllocI32(name, len(data))
	copy(b.data, data)
	b.hostInit = true
	return b
}

// AllocF32 allocates a zeroed device buffer of n float32 elements.
func (d *Device) AllocF32(name string, n int) *BufF32 {
	if n < 0 {
		panic(fmt.Sprintf("simt: AllocF32(%q, %d): negative length", name, n))
	}
	b := &BufF32{name: name, base: d.mem.reserve(4 * n), data: make([]float32, n),
		sh: make([]*bufShadow[float32], d.cfg.NumSMs)}
	d.bufsF32 = append(d.bufsF32, b)
	return b
}

// UploadF32 allocates a device buffer holding a copy of data.
func (d *Device) UploadF32(name string, data []float32) *BufF32 {
	b := d.AllocF32(name, len(data))
	copy(b.data, data)
	b.hostInit = true
	return b
}

// LaunchOpts tune one launch's supervision — a per-launch deadline and a
// progress hook with cancellation — without touching the device config.
type LaunchOpts struct {
	// MaxCycles overrides Config.MaxCycles for this launch (0 = use the
	// config value). Exceeding it aborts the launch with an error wrapping
	// ErrLaunchTimeout and returns the partial LaunchStats.
	MaxCycles int64
	// OnProgress, when non-nil, is invoked roughly every ProgressEvery
	// simulated cycles with the current clock. Returning a non-nil error
	// cancels the launch: the returned launch error wraps both
	// ErrLaunchCancelled and the callback's error.
	OnProgress func(cycle int64) error
	// ProgressEvery is the OnProgress period in cycles (default 65536).
	ProgressEvery int64
	// Profile enables the per-launch cycle/latency histograms for this launch
	// (LaunchStats.Profile); see also Device.SetProfiling.
	Profile bool
	// Sanitize runs this launch under the device's attached sanitizer even
	// when Config.Sanitize is off; see Device.SetSanitizer.
	Sanitize bool
}

// Launch runs kernel over the grid described by lc and returns the launch
// statistics. The call blocks until the simulated kernel completes. Any
// failure — a kernel panic, an out-of-range buffer access, an injected
// fault, exceeding Config.MaxCycles — is returned as a typed error (see
// KernelFault, ErrLaunchTimeout, ErrDeviceLost) together with the partial
// stats accumulated up to the failure. Launch never panics on kernel
// failures.
func (d *Device) Launch(lc LaunchConfig, kernel Kernel) (*LaunchStats, error) {
	return d.LaunchWith(lc, LaunchOpts{}, kernel)
}

// LaunchWith is Launch with per-launch supervision options.
func (d *Device) LaunchWith(lc LaunchConfig, opts LaunchOpts, kernel Kernel) (*LaunchStats, error) {
	if err := lc.Validate(d.cfg); err != nil {
		return nil, err
	}
	if kernel == nil {
		return nil, fmt.Errorf("simt: nil kernel")
	}
	if opts.MaxCycles < 0 || opts.ProgressEvery < 0 {
		return nil, fmt.Errorf("simt: negative LaunchOpts value")
	}
	if d.lost {
		return nil, fmt.Errorf("simt: %w (call Revive to reset)", ErrDeviceLost)
	}
	l := newLaunch(d, lc, kernel)
	l.opts = opts
	l.inj = d.planInjection()
	if d.san != nil && (d.cfg.Sanitize || opts.Sanitize) {
		l.san = d.san
	}
	stats, err := l.run()
	if d.faults != nil && stats != nil {
		d.faults.cycles += stats.Cycles
	}
	if stats != nil {
		d.noteLaunch(stats)
	}
	return stats, err
}
