// Package checkpoint implements the on-disk format for fabric
// snapshots: a little-endian binary payload wrapped in a versioned,
// checksummed envelope, written atomically (temp file + rename) so a
// crash mid-write can never leave a torn checkpoint behind.
//
// A payload is produced and consumed by one walk over the state: the
// same code visits every field through a Codec, which appends the field
// when encoding and overwrites it when decoding, so the writer and the
// reader cannot drift apart. Decoding errors are sticky, every count is
// bounded by the bytes that remain, and the envelope accepts exactly one
// format Version: a layout change is a line in the walk plus a Version
// bump, and older files are refused rather than half-understood.
//
// The envelope carries a configuration hash so a checkpoint taken
// under one fabric geometry cannot be restored into an incompatible
// one; the hash deliberately excludes execution-strategy knobs
// (worker count, idle gating) because restores across those must be
// bit-identical.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

// Version is the checkpoint format version, the only one this build
// reads or writes. Bump it on any payload layout change.
const Version uint32 = 4

// magic identifies a checkpoint file. 8 bytes: "MMRCKPT" + NUL.
var magic = [8]byte{'M', 'M', 'R', 'C', 'K', 'P', 'T', 0}

// Codec walks a payload in one of two directions. Encoding, each
// primitive appends the value its pointer names; decoding, it reads the
// next value into it. All integers are little-endian and fixed-width so
// the format is platform-independent.
//
// Errors are sticky: after the first failure (a short read, an
// implausible count, a range check, or a Fail from the walk) every read
// yields zero and Err reports the failure, so a walk needs only
// occasional error checks — before any step that would act on a value.
type Codec struct {
	buf []byte
	off int // read offset (decoding)
	dec bool
	err error
}

// NewEncoder returns a codec that appends to an empty payload.
func NewEncoder() *Codec { return &Codec{} }

// NewDecoder returns a codec that reads payload.
func NewDecoder(payload []byte) *Codec { return &Codec{buf: payload, dec: true} }

// Decoding reports whether the codec reads (true) or writes (false).
func (c *Codec) Decoding() bool { return c.dec }

// Bytes returns the encoded payload.
func (c *Codec) Bytes() []byte { return c.buf }

// Err returns the first error, or nil.
func (c *Codec) Err() error { return c.err }

// Fail records err unless an earlier error is already recorded; a nil
// err records nothing.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Close ends a walk: it returns the first error, or, when decoding, an
// error if bytes remain unread.
func (c *Codec) Close() error {
	if c.err == nil && c.dec && c.off != len(c.buf) {
		c.err = fmt.Errorf("checkpoint: payload has %d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

var zeros [8]byte

// take returns the next n ≤ 8 payload bytes, or zeros once the codec
// has failed or the payload is exhausted.
func (c *Codec) take(n int) []byte {
	if c.err == nil && n <= len(c.buf)-c.off {
		b := c.buf[c.off : c.off+n]
		c.off += n
		return b
	}
	if c.err == nil {
		c.err = fmt.Errorf("checkpoint: truncated payload (want %d bytes at offset %d of %d)", n, c.off, len(c.buf))
	}
	return zeros[:n]
}

// word reads the next 8-byte little-endian word. It is kept out of line
// so that the primitives calling it stay small enough to inline, which
// keeps encoding a field as cheap as an append.
//
//go:noinline
func (c *Codec) word() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }

// byte reads the next byte, out of line like word.
//
//go:noinline
func (c *Codec) byte() uint8 { return c.take(1)[0] }

// U8 walks one byte.
func (c *Codec) U8(v *uint8) { Byte(c, v) }

// U16 walks a uint16.
func (c *Codec) U16(v *uint16) {
	if c.dec {
		*v = binary.LittleEndian.Uint16(c.take(2))
		return
	}
	c.buf = binary.LittleEndian.AppendUint16(c.buf, *v)
}

// I64 and Int — the bulk of a payload — are written out rather than
// delegated to Word, which keeps them small enough to inline.

// I64 walks an int64.
func (c *Codec) I64(v *int64) {
	if c.dec {
		*v = int64(c.word())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

// Int walks an int as an int64.
func (c *Codec) Int(v *int) {
	if c.dec {
		*v = int(c.word())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

// F64 walks a float64 by bit pattern, preserving NaN payloads and signed
// zeros so restores are bit-exact.
func (c *Codec) F64(v *float64) {
	if c.dec {
		*v = math.Float64frombits(c.word())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*v))
}

// Bool walks a bool as one byte.
func (c *Codec) Bool(v *bool) {
	if c.dec {
		*v = c.byte() != 0
		return
	}
	b := uint8(0)
	if *v {
		b = 1
	}
	c.buf = append(c.buf, b)
}

// String walks a string prefixed by its uint32 byte length.
func (c *Codec) String(s *string) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint32(c.buf, uint32(len(*s)))
		c.buf = append(c.buf, *s...)
		return
	}
	n := int(binary.LittleEndian.Uint32(c.take(4)))
	if c.err == nil && n > len(c.buf)-c.off {
		c.Fail(fmt.Errorf("checkpoint: string of %d bytes at offset %d of %d", n, c.off, len(c.buf)))
	}
	if c.err != nil {
		*s = ""
		return
	}
	*s = string(c.buf[c.off : c.off+n])
	c.off += n
}

// Count walks an element count (as an int64). Decoding, a count that is
// negative or larger than the bytes that remain — every element takes
// at least one — is an error and reads as zero, so a corrupted count can
// drive neither a giant loop nor a giant allocation.
func (c *Codec) Count(n *int, what string) {
	c.Int(n)
	if c.dec && c.err == nil && (*n < 0 || *n > len(c.buf)-c.off) {
		c.Fail(fmt.Errorf("checkpoint: %s count %d is implausible (%d bytes remain)", what, *n, len(c.buf)-c.off))
	}
	if c.dec && c.err != nil {
		*n = 0
	}
}

// Slice walks len(s) as a count. Encoding returns s unchanged; decoding
// returns a fresh slice of the recorded length (nil when empty, like an
// append-built one) for the walk to fill element by element.
func Slice[T any](c *Codec, s []T, what string) []T {
	k := len(s)
	c.Count(&k, what)
	if !c.dec {
		return s
	}
	if k == 0 {
		return s[:0]
	}
	return make([]T, k)
}

// I64s walks a slice whose length the reader already knows, prefixed by
// that length. Decoding fills v in place and fails if the recorded
// length differs.
func (c *Codec) I64s(v []int64, what string) {
	if c.sliceLen(len(v), what) {
		for i := range v {
			c.I64(&v[i])
		}
	}
}

// F64s is I64s for float64 slices.
func (c *Codec) F64s(v []float64, what string) {
	if c.sliceLen(len(v), what) {
		for i := range v {
			c.F64(&v[i])
		}
	}
}

// sliceLen walks a known length and reports whether the payload agrees.
func (c *Codec) sliceLen(want int, what string) bool {
	n := want
	c.Int(&n)
	if n != want {
		c.Fail(fmt.Errorf("checkpoint: %s holds %d values, want %d", what, n, want))
	}
	return n == want
}

// Bounded walks an int that decoding requires to lie in [0, n). After
// any decoding error it reads as 0, so a walk may index or loop with it
// without a further check.
func (c *Codec) Bounded(v *int, n int, what string) {
	c.Int(v)
	c.Check(what, *v, 0, n)
	if c.dec && c.err != nil {
		*v = 0
	}
}

// Check records a decoding error unless lo ≤ v < hi; it never fails an
// encode.
func (c *Codec) Check(what string, v, lo, hi int) {
	if c.dec && (v < lo || v >= hi) {
		c.outside(what, v, lo, hi)
	}
}

func (c *Codec) outside(what string, v, lo, hi int) {
	c.Fail(fmt.Errorf("checkpoint: %s %d outside [%d,%d)", what, v, lo, hi))
}

// Word walks a value of any integer type as one little-endian 8-byte
// word (sign-extended when signed); decoding converts back to the
// value's type. Named types and the narrow ints of packed structs use it.
func Word[T ~int | ~int16 | ~int32 | ~int64 | ~uint64](c *Codec, v *T) {
	if c.dec {
		*v = T(c.word())
		return
	}
	c.buf = binary.LittleEndian.AppendUint64(c.buf, uint64(*v))
}

// Byte walks a value of any byte-sized type as one byte.
func Byte[T ~uint8](c *Codec, v *T) {
	if c.dec {
		*v = T(c.byte())
		return
	}
	c.buf = append(c.buf, uint8(*v))
}

// Envelope layout:
//
//	[0:8)   magic "MMRCKPT\0"
//	[8:12)  format version (uint32 LE)
//	[12:20) configuration hash (uint64 LE)
//	[20:28) payload length (uint64 LE)
//	[28:32) CRC32 (IEEE) of payload (uint32 LE)
//	[32:..) payload
const headerLen = 32

// Seal wraps payload in the checkpoint envelope at the current format
// version.
func Seal(configHash uint64, payload []byte) []byte {
	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic[:]...)
	out = binary.LittleEndian.AppendUint32(out, Version)
	out = binary.LittleEndian.AppendUint64(out, configHash)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return out
}

// Open validates the envelope of data and returns the configuration
// hash and payload. It rejects bad magic, any version other than
// Version, truncated files and checksum mismatches.
func Open(data []byte) (configHash uint64, payload []byte, err error) {
	if len(data) < headerLen {
		return 0, nil, fmt.Errorf("checkpoint: file too short (%d bytes)", len(data))
	}
	var m [8]byte
	copy(m[:], data[:8])
	if m != magic {
		return 0, nil, fmt.Errorf("checkpoint: bad magic %q", m[:])
	}
	if ver := binary.LittleEndian.Uint32(data[8:12]); ver != Version {
		return 0, nil, fmt.Errorf("checkpoint: unsupported format version %d (this build reads version %d only)", ver, Version)
	}
	configHash = binary.LittleEndian.Uint64(data[12:20])
	plen := binary.LittleEndian.Uint64(data[20:28])
	wantCRC := binary.LittleEndian.Uint32(data[28:32])
	if uint64(len(data)-headerLen) != plen {
		return 0, nil, fmt.Errorf("checkpoint: payload length mismatch (header says %d, file has %d)", plen, len(data)-headerLen)
	}
	payload = data[headerLen:]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return 0, nil, fmt.Errorf("checkpoint: CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return configHash, payload, nil
}

// WriteFile atomically writes a sealed checkpoint to path: the bytes
// land in a temp file in the same directory, are fsynced, and are
// renamed over path so concurrent readers see either the old or the
// new checkpoint, never a torn one.
func WriteFile(path string, configHash uint64, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	data := Seal(configHash, payload)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync temp: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	return nil
}

// ReadFile reads and validates a checkpoint from path, checking the
// configuration hash against wantHash, and returns the payload.
func ReadFile(path string, wantHash uint64) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	gotHash, payload, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if gotHash != wantHash {
		return nil, fmt.Errorf("checkpoint: %s was taken under a different fabric configuration (hash %016x, want %016x)", path, gotHash, wantHash)
	}
	return payload, nil
}
