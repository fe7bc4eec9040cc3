package wire

import (
	"math"
	"unsafe"
)

// mallocgc is the runtime's allocator. The runtime keeps the symbol
// linkable on purpose (see go.dev/issue/67401); a nil type makes the
// allocation noscan, and needzero false skips clearing memory the
// runtime is reusing.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// poison is what every element of a fresh Column holds under the race
// detector: the int32 of bytes 0xA5, a negative value no vertex id or
// label can equal, so a read that comes before its write shows as a
// wrong result in tests run with -race.
const poison = int32(-0x5A5A5A5B)

// Column returns a column of n elements whose contents are unspecified:
// the memory is not zeroed. The caller must write every element before
// the slice escapes its function, and must drop the slice on any path
// that returns before all of them are written. Column(0) returns what
// make([]int32, 0) returns, and a negative n panics as make does.
func Column(n int) []int32 {
	if n <= 0 || n > math.MaxInt/4 {
		return make([]int32, n)
	}
	s := unsafe.Slice((*int32)(mallocgc(uintptr(n)*4, nil, false)), n)
	if raceEnabled {
		for i := range s {
			s[i] = poison
		}
	}
	return s
}
