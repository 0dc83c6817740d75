package kernelcheck

import (
	"strings"
	"testing"
)

// check runs the full analyzer set over one fixture file.
func check(t *testing.T, src string) []Diagnostic {
	t.Helper()
	diags, err := CheckSourceWith("fixture.go", []byte(src), All)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return diags
}

func rules(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Rule)
	}
	return out
}

func wantRule(t *testing.T, diags []Diagnostic, rule string) {
	t.Helper()
	for _, d := range diags {
		if d.Rule == rule {
			return
		}
	}
	t.Errorf("missing finding %q; got %v", rule, diags)
}

func wantNone(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Errorf("expected no findings, got %v", diags)
	}
}

func TestNondetermRand(t *testing.T) {
	diags := check(t, `package k

import "math/rand"

func kern(w *WarpCtx) {
	v := rand.Intn(10)
	_ = v
}

func host() int { return rand.Intn(10) } // host code: fine
`)
	wantRule(t, diags, "nondeterm")
	if len(diags) != 1 {
		t.Errorf("want exactly 1 finding (host rand is fine), got %v", diags)
	}
}

func TestNondetermTimeAndGo(t *testing.T) {
	diags := check(t, `package k

import (
	"time"

	"maxwarp/internal/simt"
)

func kern(w *simt.WarpCtx) {
	t0 := time.Now()
	_ = time.Since(t0)
	go func() {}()
}
`)
	got := rules(diags)
	if len(got) != 3 {
		t.Fatalf("want 3 nondeterm findings (Now, Since, go), got %v", diags)
	}
}

func TestNondetermMapRange(t *testing.T) {
	diags := check(t, `package k

func kern(w *WarpCtx) {
	seen := make(map[int32]bool)
	seen[1] = true
	for k := range seen {
		_ = k
	}
	list := []int32{1, 2}
	for _, v := range list { // slice iteration: fine
		_ = v
	}
}
`)
	wantRule(t, diags, "nondeterm")
	if len(diags) != 1 {
		t.Errorf("want exactly 1 finding, got %v", diags)
	}
}

func TestBarrierInsideIf(t *testing.T) {
	diags := check(t, `package k

func kern(w *WarpCtx) {
	w.If(func(lane int) bool { return lane < 2 }, func() {
		w.SyncThreads()
	}, nil)
	w.While(func(lane int) bool { return lane%2 == 0 }, func() {
		w.SyncThreads()
	})
	w.SyncThreads() // top level: fine
}
`)
	count := 0
	for _, d := range diags {
		if d.Rule == "barrier" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("want 2 barrier findings, got %v", diags)
	}
}

func TestBufAliasDataInKernel(t *testing.T) {
	diags := check(t, `package k

func kern(levels *BufI32) func(w *WarpCtx) {
	return func(w *WarpCtx) {
		raw := levels.Data()
		raw[0] = 1
	}
}
`)
	wantRule(t, diags, "bufalias")
}

func TestBufAliasHostAliasUsedInKernel(t *testing.T) {
	diags := check(t, `package k

func host(d *Device, levels *BufI32) {
	raw := levels.Data()
	d.Launch(lc, func(w *WarpCtx) {
		raw[0] = 1
	})
	_ = raw // host-side use after launch: not flagged twice
}
`)
	wantRule(t, diags, "bufalias")
	count := 0
	for _, d := range diags {
		if d.Rule == "bufalias" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want exactly 1 bufalias finding, got %v", diags)
	}
}

func TestBufAliasHostOnlyIsClean(t *testing.T) {
	wantNone(t, check(t, `package k

func host(levels *BufI32) int32 {
	raw := levels.Data() // between launches: the supported host path
	return raw[0]
}
`))
}

func TestLoopCaptureEscaping(t *testing.T) {
	diags := check(t, `package k

func build(srcs []int32) []func(w *WarpCtx) {
	var kernels []func(w *WarpCtx)
	for _, s := range srcs {
		kernels = append(kernels, func(w *WarpCtx) {
			use(s)
		})
	}
	return kernels
}
`)
	wantRule(t, diags, "loopcapture")
}

func TestLoopCaptureDirectCallExempt(t *testing.T) {
	wantNone(t, check(t, `package k

func run(d *Device, srcs []int32) {
	for _, s := range srcs {
		d.Launch(lc, func(w *WarpCtx) {
			use(s) // launched synchronously this iteration: fine
		})
	}
}
`))
}

func TestSuppression(t *testing.T) {
	// Same-line and line-above forms, rule-scoped and wildcard.
	diags := check(t, `package k

import "math/rand"

func kern(w *WarpCtx) {
	_ = rand.Intn(10) //kernelcheck:ignore nondeterm
	//kernelcheck:ignore
	_ = rand.Intn(20)
	_ = rand.Intn(30) //kernelcheck:ignore barrier
}
`)
	if len(diags) != 1 {
		t.Fatalf("want exactly the wrong-rule suppression to survive, got %v", diags)
	}
	if diags[0].Pos.Line != 9 {
		t.Errorf("surviving finding at line %d, want 9", diags[0].Pos.Line)
	}
}

func TestDiagnosticString(t *testing.T) {
	diags := check(t, `package k

import "math/rand"

func kern(w *WarpCtx) { _ = rand.Intn(10) }
`)
	if len(diags) != 1 {
		t.Fatalf("got %v", diags)
	}
	s := diags[0].String()
	if !strings.Contains(s, "fixture.go:5") || !strings.Contains(s, "[nondeterm]") {
		t.Errorf("String() = %q", s)
	}
}
