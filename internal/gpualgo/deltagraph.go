package gpualgo

import (
	"fmt"

	"maxwarp/internal/graph"
	"maxwarp/internal/simt"
)

// DeviceDeltaGraph is a graph.Delta resident in simulated device memory: the
// frozen base CSR plus a 0/1 deletion mask aligned with its edge array and
// the packed extension adjacency. Kernels iterate live neighbors as (base
// minus masked edges) followed by the extension list — the overlay-aware
// traversal incremental algorithms run on, without re-uploading the base per
// batch.
//
// The same struct describes either direction: UploadDelta packs the forward
// (out-neighbor) view, UploadDeltaReverse the reverse (in-neighbor) view
// with the deletion marks and weights permuted into reverse edge order, so
// push- and pull-style kernels share one traversal shape.
type DeviceDeltaGraph struct {
	// Base holds the frozen CSR (RowPtr/Col and, for weighted deltas,
	// Weights).
	Base *DeviceGraph
	// Del is the deletion mask aligned with Base.Col: 1 marks a dead edge.
	Del *simt.BufI32
	// ExtRowPtr/ExtCol are the packed extension adjacency (inserted edges).
	ExtRowPtr *simt.BufI32
	ExtCol    *simt.BufI32
	// ExtWeights aligns with ExtCol (nil for unweighted deltas).
	ExtWeights *simt.BufI32

	NumVertices int
	// LiveEdges is the live edge count at upload time.
	LiveEdges int
	// Epoch is the delta's batch counter at upload time; stale uploads are
	// detectable by comparing against Delta.Epoch().
	Epoch int64
}

// uploadDeltaView packs one direction of dl into device memory, every
// array frozen: kernels only read a delta view.
func uploadDeltaView(d *simt.Device, dl *graph.Delta, base *graph.CSR, baseW []int32, del []int32, ext *graph.CSR, extW []int32, prefix string) *DeviceDeltaGraph {
	dg := &DeviceGraph{
		RowPtr:      d.UploadI32(prefix+".rowptr", base.RowPtr).Freeze(),
		Col:         d.UploadI32(prefix+".col", base.Col).Freeze(),
		NumVertices: base.NumVertices(),
		NumEdges:    base.NumEdges(),
	}
	if baseW != nil {
		dg.Weights = d.UploadI32(prefix+".weights", baseW).Freeze()
	}
	ddg := &DeviceDeltaGraph{
		Base:        dg,
		Del:         d.UploadI32(prefix+".del", del).Freeze(),
		ExtRowPtr:   d.UploadI32(prefix+".ext.rowptr", ext.RowPtr).Freeze(),
		ExtCol:      d.UploadI32(prefix+".ext.col", ext.Col).Freeze(),
		NumVertices: dl.NumVertices(),
		LiveEdges:   dl.NumEdges(),
		Epoch:       dl.Epoch(),
	}
	if extW != nil && dl.Weighted() {
		ddg.ExtWeights = d.UploadI32(prefix+".ext.weights", extW).Freeze()
	}
	return ddg
}

// UploadDelta copies the forward (out-neighbor) view of dl into device
// memory. The host-side overlay stays authoritative; re-upload after further
// Apply calls (the Epoch field records which batch the upload reflects).
func UploadDelta(d *simt.Device, dl *graph.Delta) (*DeviceDeltaGraph, error) {
	if err := dl.Validate(); err != nil {
		return nil, err
	}
	del := make([]int32, dl.Base().NumEdges())
	for i, m := range dl.DelMarks() {
		if m {
			del[i] = 1
		}
	}
	ext, extW := dl.ExtCSR()
	return uploadDeltaView(d, dl, dl.Base(), dl.BaseWeights(), del, ext, extW, "delta"), nil
}

// UploadDeltaReverse copies the reverse (in-neighbor) view of dl into device
// memory for pull-style kernels: the transpose of the base with the shared
// deletion marks and weights permuted into reverse edge order, plus the
// reverse extension adjacency.
func UploadDeltaReverse(d *simt.Device, dl *graph.Delta) (*DeviceDeltaGraph, error) {
	if err := dl.Validate(); err != nil {
		return nil, err
	}
	rev := dl.ReverseBase()
	r2f := dl.ReverseToForward()
	marks := dl.DelMarks()
	del := make([]int32, rev.NumEdges())
	var revW []int32
	if dl.Weighted() {
		revW = make([]int32, rev.NumEdges())
	}
	for p := range del {
		fp := r2f[p]
		if marks[fp] {
			del[p] = 1
		}
		if revW != nil {
			revW[p] = dl.BaseWeights()[fp]
		}
	}
	ext, extW := dl.ReverseExtCSR()
	return uploadDeltaView(d, dl, rev, revW, del, ext, extW, "rdelta"), nil
}

// checkDeltaEpoch guards incremental entry points against running on a stale
// upload.
func checkDeltaEpoch(ddg *DeviceDeltaGraph, dl *graph.Delta) error {
	if ddg.Epoch != dl.Epoch() {
		return fmt.Errorf("gpualgo: device delta at epoch %d, host delta at %d (re-upload required)", ddg.Epoch, dl.Epoch())
	}
	return nil
}
