package checkpoint

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walkSample walks one value of every primitive, so the same function
// both writes the sample and reads it back.
type sample struct {
	u8    uint8
	u16   uint16
	u64   uint64
	i64   int64
	i     int
	small int16
	f     float64
	inf   float64
	negz  float64
	t, f2 bool
	s     string
	n     int
	list  []int64
	fixed []float64
}

func walkSample(c *Codec, v *sample) {
	c.U8(&v.u8)
	c.U16(&v.u16)
	Word(c, &v.u64)
	c.I64(&v.i64)
	c.Int(&v.i)
	Word(c, &v.small)
	c.F64(&v.f)
	c.F64(&v.inf)
	c.F64(&v.negz)
	c.Bool(&v.t)
	c.Bool(&v.f2)
	c.String(&v.s)
	c.Bounded(&v.n, 10, "index")
	v.list = Slice(c, v.list, "list")
	for i := range v.list {
		c.I64(&v.list[i])
	}
	c.F64s(v.fixed, "fixed")
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	want := sample{
		u8: 0xab, u16: 0xbeef, u64: 0x0123456789abcdef, i64: -42, i: -7, small: -300,
		f: 3.14159, inf: math.Inf(-1), negz: math.Copysign(0, -1), t: true,
		s: "hello, fabric", n: 9, list: []int64{5, -6}, fixed: []float64{1.5, 2.5},
	}
	e := NewEncoder()
	walkSample(e, &want)
	if err := e.Close(); err != nil {
		t.Fatalf("encode: %v", err)
	}

	got := sample{fixed: make([]float64, 2)}
	d := NewDecoder(e.Bytes())
	walkSample(d, &got)
	if err := d.Close(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if math.Float64bits(got.negz) != math.Float64bits(want.negz) || !math.IsInf(got.inf, -1) {
		t.Errorf("float bit patterns not preserved: %v %v", got.negz, got.inf)
	}
	got.negz, got.inf = want.negz, want.inf
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	var u uint64
	Word(d, &u) // short read
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Subsequent reads must return zeros and not panic.
	v := uint16(7)
	d.U16(&v)
	s := "x"
	d.String(&s)
	n := 3
	d.Bounded(&n, 10, "index")
	if u != 0 || v != 0 || s != "" || n != 0 {
		t.Errorf("reads after error: %d %d %q %d, want zeros", u, v, s, n)
	}
}

func TestDecoderRejectsBadCounts(t *testing.T) {
	word := func(v int64) []byte {
		e := NewEncoder()
		e.I64(&v)
		return e.Bytes()
	}
	for _, tc := range []struct {
		name string
		word int64
		walk func(c *Codec)
		want string
	}{
		{"negative count", -1, func(c *Codec) { var n int; c.Count(&n, "things") }, "implausible"},
		{"count beyond payload", 1 << 40, func(c *Codec) { var n int; c.Count(&n, "things") }, "implausible"},
		{"index out of range", 4, func(c *Codec) { var n int; c.Bounded(&n, 4, "slot") }, "outside"},
		{"fixed slice length", 2, func(c *Codec) { c.I64s(make([]int64, 3), "registers") }, "want 3"},
	} {
		d := NewDecoder(word(tc.word))
		tc.walk(d)
		if err := d.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// Encoding never range-checks.
	e := NewEncoder()
	n := 99
	e.Bounded(&n, 4, "slot")
	if err := e.Close(); err != nil || n != 99 {
		t.Errorf("encode of an out-of-range index: err %v, value %d", err, n)
	}
	// Decoding must consume the whole payload.
	d := NewDecoder(word(5))
	if err := d.Close(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("unread payload: got %v, want trailing-bytes error", err)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("fabric state goes here")
	data := Seal(0xfeedface, payload)
	hash, got, err := Open(data)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if hash != 0xfeedface {
		t.Errorf("hash = %#x", hash)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q", got)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	payload := []byte("some state")
	data := Seal(7, payload)

	// Truncated.
	if _, _, err := Open(data[:len(data)-3]); err == nil {
		t.Error("expected error for truncated file")
	}
	// Short header.
	if _, _, err := Open(data[:10]); err == nil {
		t.Error("expected error for short header")
	}
	// Flipped payload byte breaks the CRC.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("expected CRC error, got %v", err)
	}
	// Bad magic.
	bad = append([]byte(nil), data...)
	bad[0] = 'X'
	if _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("expected magic error, got %v", err)
	}
	// Unknown version.
	bad = append([]byte(nil), data...)
	bad[8] = 0xff
	if _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error, got %v", err)
	}
	// Only the current version is read: an older file is refused too.
	bad = append([]byte(nil), data...)
	bad[8] = byte(Version - 1)
	if _, _, err := Open(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("expected version error for a version-%d file, got %v", Version-1, err)
	}
}

func TestWriteFileAtomicAndReadBack(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fabric.ckpt")
	payload := []byte("checkpoint one")
	if err := WriteFile(path, 99, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path, 99)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %q", got)
	}
	// Overwrite with a second checkpoint; the rename must replace it.
	if err := WriteFile(path, 99, []byte("checkpoint two")); err != nil {
		t.Fatalf("WriteFile overwrite: %v", err)
	}
	got, err = ReadFile(path, 99)
	if err != nil {
		t.Fatalf("ReadFile after overwrite: %v", err)
	}
	if string(got) != "checkpoint two" {
		t.Errorf("payload = %q", got)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the checkpoint", len(entries))
	}
	// Hash mismatch rejected.
	if _, err := ReadFile(path, 100); err == nil {
		t.Error("expected configuration-hash mismatch error")
	}
}
