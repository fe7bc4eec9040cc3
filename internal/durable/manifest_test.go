package durable

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sealManifest renders body lines into a MANIFEST with a correct CRC
// footer, so a test can state a grammar violation without also
// tripping the checksum.
func sealManifest(lines ...string) []byte {
	body := manifestMagic + "\n" + strings.Join(lines, "\n") + "\n"
	return []byte(fmt.Sprintf("%scrc %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

func TestManifestIdentityRoundTrip(t *testing.T) {
	for _, entries := range [][]manifestEntry{
		{{n: 0}},
		{{n: 200000}},
		{{n: maxIdentityN}},
		{{file: "snap-0000000000000040.pccs", seq: 64}, {n: 7}},
		{{file: "snap-0000000000000006.pccs", seq: 6}, {file: "snap-0000000000000004.pccs", seq: 4}},
	} {
		got, err := decodeManifest(encodeManifest(entries))
		if err != nil {
			t.Fatalf("decode(encode(%v)): %v", entries, err)
		}
		if !reflect.DeepEqual(got, entries) {
			t.Fatalf("decode(encode(%v)) = %v", entries, got)
		}
	}
}

// TestManifestDecodeRejectsBadIdentity pins the identity line's
// grammar: n is a canonical decimal in [0, 2^31), the CRC covers the
// line, and the identity root — seq 0, the oldest state a store can
// hold — can only be the last entry.
func TestManifestDecodeRejectsBadIdentity(t *testing.T) {
	snap := "snapshot snap-0000000000000004.pccs 4"
	cases := map[string][]byte{
		"n = 2^31":         sealManifest("identity 2147483648"),
		"n = 2^32":         sealManifest("identity 4294967296"),
		"negative n":       sealManifest("identity -1"),
		"non-numeric n":    sealManifest("identity abc"),
		"empty n":          sealManifest("identity "),
		"signed n":         sealManifest("identity +5"),
		"leading zero":     sealManifest("identity 05"),
		"trailing garbage": sealManifest("identity 5 0"),
		"hex n":            sealManifest("identity 0x10"),
		"not last":         sealManifest("identity 5", snap),
		"two identities":   sealManifest("identity 5", "identity 5"),
		"bad crc": func() []byte {
			b := sealManifest(snap, "identity 5")
			i := strings.Index(string(b), "identity 5") + len("identity ")
			b[i] = '6'
			return b
		}(),
	}
	for name, data := range cases {
		if entries, err := decodeManifest(data); err == nil {
			t.Errorf("%s: decoded %q to %v, want an error", name, data, entries)
		}
	}
	if _, err := decodeManifest(sealManifest(snap, "identity 5")); err != nil {
		t.Fatalf("well-formed snapshot + identity manifest rejected: %v", err)
	}
}

// TestStoreIdentityRoot walks a fresh store's identity root through its
// life: no snapshot file, recovery rebuilds the identity labels, the
// first checkpoint keeps the root as its fallback (and recovers from
// it, WAL retained from seq 1, when the new snapshot is damaged), and
// the second checkpoint drops it with no file to delete.
func TestStoreIdentityRoot(t *testing.T) {
	dir := t.TempDir()
	s, rec := mustOpen(t, dir)
	if rec != nil {
		t.Fatalf("fresh Open returned recovered state %+v", rec)
	}
	if err := s.CheckpointIdentity(5); err != nil {
		t.Fatalf("CheckpointIdentity: %v", err)
	}
	if err := s.CheckpointIdentity(5); err == nil {
		t.Fatal("second CheckpointIdentity succeeded")
	}
	for _, name := range dirNames(t, dir) {
		if strings.HasPrefix(name, "snap-") {
			t.Fatalf("identity root wrote snapshot file %s", name)
		}
	}
	s.Close()

	s, rec = mustOpen(t, dir)
	if rec == nil || rec.SnapshotSeq != 0 || len(rec.Records) != 0 || !reflect.DeepEqual(rec.Labels, isolated(5)) {
		t.Fatalf("reopened identity root = %+v, want 5 isolated vertices at seq 0", rec)
	}
	if s.SnapshotSeq() != 0 || s.Seq() != 0 {
		t.Fatalf("reopened SnapshotSeq/Seq = %d/%d, want 0/0", s.SnapshotSeq(), s.Seq())
	}
	if err := s.CheckpointIdentity(5); err == nil {
		t.Fatal("CheckpointIdentity on a recovered store succeeded")
	}
	if _, err := s.LogSpan(span([2]int{0, 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LogSpan(span([2]int{3, 4})); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint([]int32{0, 0, 2, 3, 3}, 2); err != nil {
		t.Fatalf("Checkpoint(2): %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := decodeManifest(data); err != nil || len(entries) != 2 || !entries[1].identity() || entries[1].n != 5 {
		t.Fatalf("manifest after the first checkpoint = %v (%v), want the identity root as fallback", entries, err)
	}
	if _, err := s.LogSpan(span([2]int{1, 2})); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Damage the only snapshot: recovery falls back to the identity
	// root and replays the whole retained WAL.
	newest := filepath.Join(dir, "snap-0000000000000002.pccs")
	good, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(newest, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec = mustOpen(t, dir)
	if rec.SnapshotSeq != 0 || len(rec.Records) != 3 {
		t.Fatalf("fallback recovery = seq %d + %d records, want identity root + 3", rec.SnapshotSeq, len(rec.Records))
	}
	replayed := newMiniUF(len(rec.Labels))
	for _, r := range rec.Records {
		replayed.apply(r)
	}
	if got, want := replayed.labels(), []int32{0, 0, 0, 3, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("identity fallback replayed to %v, want %v", got, want)
	}
	s.Close()
	if err := os.WriteFile(newest, good, 0o644); err != nil {
		t.Fatal(err)
	}

	// The second checkpoint drops the identity root: nothing to delete,
	// and the WAL before the new fallback goes.
	s, _ = mustOpen(t, dir)
	if err := s.Checkpoint([]int32{0, 0, 0, 3, 3}, 3); err != nil {
		t.Fatalf("Checkpoint(3): %v", err)
	}
	s.Close()
	data, err = os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := decodeManifest(data)
	if err != nil || len(entries) != 2 || entries[0].seq != 3 || entries[1].seq != 2 {
		t.Fatalf("manifest after the second checkpoint = %v (%v), want snapshots 3 and 2", entries, err)
	}
	for _, name := range dirNames(t, dir) {
		if name == "wal-0000000000000001.pccw" {
			t.Fatalf("segment %s outlived the identity fallback", name)
		}
	}
}

func TestStoreCheckpointIdentityRejectsBadN(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	defer s.Close()
	top := int64(maxIdentityN)
	for _, n := range []int{-1, int(top + 1)} {
		if err := s.CheckpointIdentity(n); err == nil {
			t.Errorf("CheckpointIdentity(%d) succeeded", n)
		}
	}
	if s.Failed() != nil {
		t.Fatalf("a rejected identity root poisoned the store: %v", s.Failed())
	}
}
