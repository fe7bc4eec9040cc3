package durable

import (
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"strconv"
	"strings"
)

// The manifest is the root of truth of a store directory: a small text
// file named MANIFEST listing its recovery roots, newest first, with a
// CRC32 footer line. A root is a (snapshot file, last-applied batch
// seq) pair, or the identity root of a fresh store — n isolated
// vertices at seq 0, which needs no snapshot file:
//
//	PCCM 1
//	snapshot snap-0000000000000006.pccs 6
//	snapshot snap-0000000000000004.pccs 4
//	crc 1a2b3c4d
//
//	PCCM 1
//	snapshot snap-0000000000000040.pccs 64
//	identity 200000
//	crc 5e6f7a8b
//
// The identity root covers seq 0, the oldest state a store can hold, so
// it is only ever the last entry: a fresh store's manifest lists it
// alone, and its first real checkpoint moves it into the fallback slot.
// Recovery starts from the first root that loads clean (a snapshot
// file that decodes with the listed seq, or the identity labels
// rebuilt from n) and replays the WAL from that root's seq; the older
// root is the fallback, and the WAL is retained back to it (segments
// are only deleted once they precede the fallback), so recovery from
// either root converges on the same labeling. The manifest is replaced
// atomically — written to MANIFEST.tmp, fsynced, renamed over
// MANIFEST, directory fsynced — so there is always exactly one
// complete manifest on disk and a crash can never tear it.
const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	manifestMagic   = "PCCM 1"
	// manifestDepth is how many roots the manifest retains: the
	// current one plus one fallback.
	manifestDepth = 2
	// maxIdentityN is the largest vertex count of an identity root:
	// labels are int32 vertex ids, so n < 2^31.
	maxIdentityN = math.MaxInt32
)

// manifestEntry is one recovery root: a snapshot file and the batch
// seq it reflects, or, with file empty, the identity root of n
// isolated vertices at seq 0.
type manifestEntry struct {
	file string
	seq  uint64
	n    int
}

// identity reports whether e is the identity root, which has no file.
func (e manifestEntry) identity() bool { return e.file == "" }

// encodeManifest renders entries in the MANIFEST text format.
func encodeManifest(entries []manifestEntry) []byte {
	var b strings.Builder
	b.WriteString(manifestMagic + "\n")
	for _, e := range entries {
		if e.identity() {
			fmt.Fprintf(&b, "identity %d\n", e.n)
		} else {
			fmt.Fprintf(&b, "snapshot %s %d\n", e.file, e.seq)
		}
	}
	body := b.String()
	return []byte(fmt.Sprintf("%scrc %08x\n", body, crc32.ChecksumIEEE([]byte(body))))
}

// decodeManifest parses the MANIFEST text format, validating the magic
// line, the CRC footer, and every entry.
func decodeManifest(data []byte) ([]manifestEntry, error) {
	text := string(data)
	i := strings.LastIndex(text, "crc ")
	if i < 0 || !strings.HasSuffix(text, "\n") {
		return nil, fmt.Errorf("durable: manifest has no crc footer")
	}
	body, foot := text[:i], strings.TrimSpace(text[i+len("crc "):])
	var stored uint32
	if _, err := fmt.Sscanf(foot, "%08x", &stored); err != nil {
		return nil, fmt.Errorf("durable: bad manifest crc line %q", foot)
	}
	if sum := crc32.ChecksumIEEE([]byte(body)); sum != stored {
		return nil, fmt.Errorf("durable: manifest CRC mismatch: stored %08x, computed %08x", stored, sum)
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) == 0 || lines[0] != manifestMagic {
		return nil, fmt.Errorf("durable: bad manifest magic (want %q)", manifestMagic)
	}
	var entries []manifestEntry
	for i, line := range lines[1:] {
		if rest, ok := strings.CutPrefix(line, "identity "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 || n > maxIdentityN || strconv.Itoa(n) != rest {
				return nil, fmt.Errorf("durable: bad manifest identity line %q (want n in [0, 2^31))", line)
			}
			if i != len(lines)-2 {
				return nil, fmt.Errorf("durable: manifest identity root is not the last entry")
			}
			entries = append(entries, manifestEntry{n: n})
			continue
		}
		var e manifestEntry
		if _, err := fmt.Sscanf(line, "snapshot %s %d", &e.file, &e.seq); err != nil {
			return nil, fmt.Errorf("durable: bad manifest line %q", line)
		}
		if e.file != filepath.Base(e.file) || e.file == "" {
			return nil, fmt.Errorf("durable: manifest snapshot name %q is not a bare file name", e.file)
		}
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("durable: manifest lists no recovery root")
	}
	return entries, nil
}

// writeManifest atomically replaces dir's MANIFEST with entries: temp
// write, file sync, rename, directory sync. Any failure leaves the old
// manifest in effect.
func writeManifest(fsys FS, dir string, entries []manifestEntry) error {
	tmp := filepath.Join(dir, manifestTmpName)
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(encodeManifest(entries)); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}
