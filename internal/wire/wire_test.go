package wire

import (
	"bytes"
	"encoding/binary"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

var samples = []int32{0, 1, -1, 0x01020304, math.MaxInt32, math.MinInt32, 12345678, -7}

// TestBytesIsHostOrder: Bytes aliases the column in host byte order.
func TestBytesIsHostOrder(t *testing.T) {
	s := append([]int32(nil), samples...)
	b := Bytes(s)
	if len(b) != 4*len(s) {
		t.Fatalf("len %d, want %d", len(b), 4*len(s))
	}
	for i, x := range s {
		if got := int32(binary.NativeEndian.Uint32(b[4*i:])); got != x {
			t.Fatalf("element %d reads %d through Bytes, want %d", i, got, x)
		}
	}
	binary.NativeEndian.PutUint32(b[4:], 99)
	if s[1] != 99 {
		t.Fatalf("write through Bytes not seen in the column: %d", s[1])
	}
	if Bytes(nil) != nil || Bytes([]int32{}) != nil {
		t.Fatal("Bytes of an empty column is not nil")
	}
}

// TestSwapMatchesBigEndian runs the big-endian path on any host: bytes
// written as big-endian records and loaded through Bytes, then
// swapped, must read back as the values on a little-endian host; on a
// big-endian one the swap must undo a little-endian encoding.
func TestSwapMatchesBigEndian(t *testing.T) {
	other := binary.AppendByteOrder(binary.BigEndian)
	if bigEndian {
		other = binary.LittleEndian
	}
	raw := make([]byte, 0, 4*len(samples))
	for _, x := range samples {
		raw = other.AppendUint32(raw, uint32(x))
	}
	s := make([]int32, len(samples))
	copy(Bytes(s), raw)
	swap(s)
	for i, x := range samples {
		if s[i] != x {
			t.Fatalf("swap: element %d = %#x, want %#x", i, s[i], x)
		}
	}
}

// TestLittleEndianRoundTrip: AppendLE writes what encoding/binary
// writes, and Load reads it back, from any alignment.
func TestLittleEndianRoundTrip(t *testing.T) {
	var want []byte
	for _, x := range samples {
		want = binary.LittleEndian.AppendUint32(want, uint32(x))
	}
	for pad := 0; pad < 4; pad++ {
		prefix := bytes.Repeat([]byte{0xAA}, pad)
		got := AppendLE(append([]byte(nil), prefix...), samples)
		if !bytes.Equal(got[:pad], prefix) || !bytes.Equal(got[pad:], want) {
			t.Fatalf("pad %d: AppendLE = %x, want %x%x", pad, got, prefix, want)
		}
		back := make([]int32, len(samples))
		Load(back, got[pad:])
		for i, x := range samples {
			if back[i] != x {
				t.Fatalf("pad %d: Load element %d = %d, want %d", pad, i, back[i], x)
			}
		}
	}
}

func TestMirror(t *testing.T) {
	u := []int32{3, 7, 0, 0, 5, 2, -1, 4}
	v := make([]int32, len(u))
	top := Mirror(u, v)
	want := []int32{7, 3, 0, 0, 2, 5, 4, -1}
	for i := range want {
		if v[i] != want[i] {
			t.Fatalf("v = %v, want %v", v, want)
		}
	}
	if top != math.MaxUint32 {
		t.Fatalf("top = %d, want %d (endpoint -1 read as uint32)", top, uint32(math.MaxUint32))
	}
	if top := Mirror(u[:6], v[:6]); top != 7 {
		t.Fatalf("top = %d, want 7", top)
	}
	if top := Mirror(nil, nil); top != 0 {
		t.Fatalf("top of no arcs = %d, want 0", top)
	}
}

// TestColumn: a fresh column has the asked length and capacity, holds
// what is written to it, and under the race detector starts poisoned in
// every element; Column(0) is make's empty column.
func TestColumn(t *testing.T) {
	for _, n := range []int{1, 3, 4, 1000, 1 << 16} {
		s := Column(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Column(%d): len %d cap %d", n, len(s), cap(s))
		}
		if raceEnabled {
			for i, x := range s {
				if x != poison {
					t.Fatalf("Column(%d)[%d] = %#x under -race, want poison %#x", n, i, x, poison)
				}
			}
		}
		for i := range s {
			s[i] = int32(i)
		}
		for i, x := range s {
			if x != int32(i) {
				t.Fatalf("Column(%d)[%d] reads %d after writing %d", n, i, x, i)
			}
		}
	}
	z, want := Column(0), make([]int32, 0)
	if z == nil || len(z) != len(want) || cap(z) != cap(want) {
		t.Fatalf("Column(0) = %#v, want make([]int32, 0)", z)
	}
	if poison >= 0 || Bytes([]int32{poison})[0] != 0xA5 || Bytes([]int32{poison})[3] != 0xA5 {
		t.Fatalf("poison %#x is not the negative int32 of bytes 0xA5", poison)
	}
}

// TestOnlyWireImportsUnsafe keeps this package the module's one user of
// unsafe and of //go:linkname: no other Go file under the repository
// root imports the one or carries the other.
func TestOnlyWireImportsUnsafe(t *testing.T) {
	root := filepath.Join("..", "..")
	self, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if dir, _ := filepath.Abs(filepath.Dir(path)); dir == self {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` {
				t.Errorf("%s imports unsafe; only internal/wire may", path)
			}
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				if strings.HasPrefix(c.Text, "//go:linkname") {
					t.Errorf("%s carries %s; only internal/wire may", path, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
