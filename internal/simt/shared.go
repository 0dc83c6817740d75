package simt

import "fmt"

// SharedI32 is a block-shared int32 array. All warps of a block observe the
// same storage; warps of other blocks never see it.
type SharedI32 struct {
	key  string
	data []int32
}

func (s *SharedI32) len() int { return len(s.data) }

// sharedArena is one block's shared-memory namespace. The simulation is
// sequential (one warp executes at a time), so no locking is needed.
type sharedArena struct {
	i32 map[string]*SharedI32
}

func newSharedArena() *sharedArena {
	return &sharedArena{i32: make(map[string]*SharedI32)}
}

func (a *sharedArena) getI32(key string, n int) *SharedI32 {
	if s, ok := a.i32[key]; ok {
		if len(s.data) != n {
			panic(fmt.Sprintf("simt: shared array %q re-declared with length %d (was %d)", key, n, len(s.data)))
		}
		return s
	}
	if n < 0 {
		panic(fmt.Sprintf("simt: shared array %q with negative length %d", key, n))
	}
	s := &SharedI32{key: key, data: make([]int32, n)}
	a.i32[key] = s
	return s
}
