// Package wire moves fixed-width little-endian 32-bit records between
// bytes and []int32 columns by block copy. The PCCG graph format, the
// PCCW span records and the PCCS label records all store such records,
// and the columns they load into hold the same values. On a
// little-endian host both directions are a plain copy; on a big-endian
// host decoding adds a byte swap in place and encoding goes through
// encoding/binary.
//
// It also allocates the fresh columns that loads, decodes and label
// publishes fill: Column returns an []int32 whose memory the runtime
// has not zeroed, for a caller about to overwrite every element anyway.
//
// This package is the module's only user of unsafe and of
// //go:linkname, for two things. Bytes views an []int32 as the bytes
// it occupies; nothing is ever cast to a wider type, so the race
// detector's pointer checks (checkptr) hold for every caller. Column
// takes its memory from the runtime's allocator without the clear.
// The rule for Column is that the function calling it writes every
// element before the slice escapes, and drops the slice on every
// return that comes first; under the race detector each element starts
// as a negative poison value, so a read before its write fails the
// tests CI runs with -race.
package wire

import (
	"encoding/binary"
	"math/bits"
	"unsafe"
)

// Bytes returns the memory of s as 4·len(s) bytes in host byte order.
// The two slices alias: a write through either shows in the other.
func Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 4*len(s))
}

// FromLE converts s in place from little-endian records, as a copy
// into Bytes(s) leaves them, to host order. On a little-endian host it
// does nothing.
func FromLE(s []int32) {
	if bigEndian {
		swap(s)
	}
}

// Load fills dst from the little-endian records at the start of src,
// which must hold at least 4·len(dst) bytes.
func Load(dst []int32, src []byte) {
	copy(Bytes(dst), src[:4*len(dst)])
	FromLE(dst)
}

// AppendLE appends s to buf as little-endian records.
func AppendLE(buf []byte, s []int32) []byte {
	if !bigEndian {
		return append(buf, Bytes(s)...)
	}
	for _, x := range s {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// Mirror completes a span of mirror pairs whose u column is filled: for
// every pair k it writes v[2k], v[2k+1] = u[2k+1], u[2k]. It returns
// the largest endpoint read as a uint32, so an endpoint at or above
// 2³¹ compares above every int32 bound. v must be as long as u, and
// both of even length.
func Mirror(u, v []int32) uint32 {
	v = v[:len(u)]
	// Indexing from the odd arc and keeping two independent running
	// maxima took half the time of one max over u[k], u[k+1] on 4M-arc
	// columns (x86-64, Go 1.24).
	var topU, topV uint32
	for k := 1; k < len(u); k += 2 {
		a, b := u[k-1], u[k]
		v[k-1], v[k] = b, a
		topU = max(topU, uint32(a))
		topV = max(topV, uint32(b))
	}
	return max(topU, topV)
}

// swap reverses the bytes of every element of s.
func swap(s []int32) {
	for i, x := range s {
		s[i] = int32(bits.ReverseBytes32(uint32(x)))
	}
}
