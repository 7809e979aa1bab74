package network

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mmr/internal/checkpoint"
	"mmr/internal/flit"
	"mmr/internal/topology"
	"mmr/internal/traffic"
)

// detConfig rebuilds the detScenario configuration on a fresh topology
// (topologies carry mutable link state, so restored networks need their
// own) with the given execution strategy.
func detConfig(t testing.TB, workers int, noIdleSkip bool) Config {
	t.Helper()
	tp, err := topology.Mesh(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	cfg.Workers = workers
	cfg.NoIdleSkip = noIdleSkip
	cfg.Fault = FaultPolicy{Restore: true, MaxRetries: 4, RetryBackoff: 32, Degrade: true, Paranoid: true}
	return cfg
}

// TestCheckpointRoundTripBitExact is the tentpole's core proof: snapshot
// the loaded fault-plan scenario mid-run at cycle 1200 (links down,
// routers down, restorations and fault-plan events pending, flits in
// flight), restore the payload into freshly built fabrics at every
// worker count with gating both on and off, run everything to cycle
// 3000, and require the restored runs to be indistinguishable from the
// uninterrupted one: identical statistics (floating-point accumulator
// state compared exactly), identical session logs, and — the strongest
// form — byte-identical re-checkpoints at both the snapshot point and
// the end state.
func TestCheckpointRoundTripBitExact(t *testing.T) {
	ref := buildDetNetwork(t, 1, true)
	defer ref.Shutdown()
	ref.Run(1200)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState at cycle 1200: %v", err)
	}
	ref.Run(3000)
	refFinal, err := ref.EncodeState()
	if err != nil {
		t.Fatalf("EncodeState at cycle 3000: %v", err)
	}
	refStats, refEvents := ref.Stats(), ref.SessionEvents()
	if refStats.ConnsBroken == 0 || refStats.FlitsDelivered == 0 {
		t.Fatalf("degenerate scenario: %+v", refStats)
	}

	for _, noIdleSkip := range []bool{false, true} {
		for _, w := range []int{1, 2, 4} {
			n, err := New(detConfig(t, w, noIdleSkip))
			if err != nil {
				t.Fatal(err)
			}
			if err := n.RestoreState(snap); err != nil {
				n.Shutdown()
				t.Fatalf("workers=%d gated=%v: restore: %v", w, !noIdleSkip, err)
			}
			if n.Now() != 1200 {
				t.Fatalf("restored clock %d, want 1200", n.Now())
			}
			resnap, err := n.EncodeState()
			if err != nil {
				t.Fatalf("workers=%d gated=%v: re-encode: %v", w, !noIdleSkip, err)
			}
			if !bytes.Equal(snap, resnap) {
				t.Errorf("workers=%d gated=%v: restored state re-encodes differently (%d vs %d bytes)",
					w, !noIdleSkip, len(snap), len(resnap))
			}
			n.Run(3000)
			st, ev := n.Stats(), n.SessionEvents()
			if !reflect.DeepEqual(refStats, st) {
				t.Errorf("workers=%d gated=%v: stats diverged after restore:\nref:      %+v\nrestored: %+v",
					w, !noIdleSkip, refStats, st)
			}
			if !reflect.DeepEqual(refEvents, ev) {
				t.Errorf("workers=%d gated=%v: session log diverged (%d vs %d events)",
					w, !noIdleSkip, len(refEvents), len(ev))
			}
			final, err := n.EncodeState()
			if err != nil {
				t.Fatalf("workers=%d gated=%v: final encode: %v", w, !noIdleSkip, err)
			}
			if !bytes.Equal(refFinal, final) {
				t.Errorf("workers=%d gated=%v: end state not byte-identical to uninterrupted run (%d vs %d bytes)",
					w, !noIdleSkip, len(refFinal), len(final))
			}
			n.Shutdown()
		}
	}
}

// TestCheckpointFileRoundTrip exercises the on-disk path: SaveCheckpoint
// writes the sealed envelope, RestoreCheckpoint rebuilds an equivalent
// fabric from it, and a configuration mismatch (different seed) is
// refused at the envelope hash before any state is touched.
func TestCheckpointFileRoundTrip(t *testing.T) {
	ref := buildDetNetwork(t, 2, true)
	defer ref.Shutdown()
	ref.Run(1000)
	path := filepath.Join(t.TempDir(), "fabric.ckpt")
	if err := ref.SaveCheckpoint(path); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	ref.Run(2200)

	n, err := RestoreCheckpoint(detConfig(t, 4, false), path)
	if err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	defer n.Shutdown()
	n.Run(2200)
	if !reflect.DeepEqual(ref.Stats(), n.Stats()) {
		t.Errorf("file round-trip diverged:\nref:      %+v\nrestored: %+v", ref.Stats(), n.Stats())
	}

	badCfg := detConfig(t, 1, false)
	badCfg.Seed = 12
	if _, err := RestoreCheckpoint(badCfg, path); err == nil ||
		!strings.Contains(err.Error(), "different fabric configuration") {
		t.Errorf("restore under a different seed: got %v, want config-hash mismatch", err)
	}
}

// TestEncodeStateRefusesNonDurablePending: user closures scheduled via
// Network.Schedule cannot be serialized, so a checkpoint with one
// pending must be refused rather than silently dropping it.
func TestEncodeStateRefusesNonDurablePending(t *testing.T) {
	tp, _ := topology.Mesh(3, 3, 4)
	cfg := DefaultConfig(tp)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	n.Run(10)
	n.Schedule(100, func() {})
	if _, err := n.EncodeState(); err == nil || !strings.Contains(err.Error(), "durable journal") {
		t.Errorf("EncodeState with a user closure pending: got %v, want durable-journal refusal", err)
	}
}

// TestRestoreStateRequiresFreshNetwork: restoring over a fabric that has
// already run or holds connections must be refused — restore composes
// with New, never with live state.
func TestRestoreStateRequiresFreshNetwork(t *testing.T) {
	ref := buildDetNetwork(t, 1, false)
	defer ref.Shutdown()
	ref.Run(50)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}

	tp, _ := topology.Mesh(4, 4, 4)
	cfg := DefaultConfig(tp)
	cfg.Seed = 11
	used, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer used.Shutdown()
	if _, err := used.Open(0, 5, traffic.ConnSpec{Class: flit.ClassCBR, Rate: 20 * traffic.Mbps}); err != nil {
		t.Fatal(err)
	}
	if err := used.RestoreState(snap); err == nil || !strings.Contains(err.Error(), "freshly built") {
		t.Errorf("restore into a used network: got %v, want freshly-built refusal", err)
	}
}

// TestCheckpointCorruptPayloadRejected: a bit flip anywhere in the
// payload must be caught by the envelope CRC, and a truncated payload
// that somehow passed the envelope must fail the decoder, never panic.
func TestCheckpointCorruptPayloadRejected(t *testing.T) {
	ref := buildDetNetwork(t, 1, true)
	defer ref.Shutdown()
	ref.Run(800)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	// Truncations straight into RestoreState (bypassing the envelope)
	// must produce errors, not panics or giant allocations.
	for _, cut := range []int{0, 8, len(snap) / 3, len(snap) - 1} {
		n, err := New(detConfig(t, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		if err := n.RestoreState(snap[:cut]); err == nil {
			t.Errorf("restore of %d/%d bytes succeeded", cut, len(snap))
		}
		n.Shutdown()
	}
	// Trailing garbage is also refused.
	n, err := New(detConfig(t, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Shutdown()
	if err := n.RestoreState(append(append([]byte(nil), snap...), 0xFF)); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Errorf("restore with trailing bytes: got %v, want trailing-bytes refusal", err)
	}
}

// TestCheckpointPayloadGolden pins the payload layout: the sha256 of the
// fault-plan determinism scenario's EncodeState at cycle 1200. Round
// trips cannot see a layout change that encode and decode make together;
// this hash can. A deliberate layout change bumps checkpoint.Version and
// re-records the hash.
func TestCheckpointPayloadGolden(t *testing.T) {
	const want = "805f00c801d28ee63ad7f40879625e874bfbd5d37dad73bf0ca4af69651197d8"
	n := buildDetNetwork(t, 1, true)
	defer n.Shutdown()
	n.Run(1200)
	snap, err := n.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(snap)); got != want {
		t.Errorf("payload sha256 %s (%d bytes), want %s", got, len(snap), want)
	}
}

// corruptSnapshot is the payload the corruption tests mutate: the
// fault-plan determinism scenario at cycle 800.
func corruptSnapshot(t testing.TB) []byte {
	ref := buildDetNetwork(t, 1, true)
	defer ref.Shutdown()
	ref.Run(800)
	snap, err := ref.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// corruptSites are words that used to panic during restore, one per
// site, each found by overwriting 8-byte words across corruptSnapshot:
// an unchecked value reached the event engine's clock, the resource
// audit, a VC array, a channel-map index or an admission register. The
// offsets are pinned to the snapshot's layout, which
// TestCheckpointPayloadGolden guards.
var corruptSites = []struct {
	site   string
	offset int
	word   int64
	want   string
}{
	{"clock after a durable event", 0, 1000, "durable event time"},
	{"audit: connection node", 17226, 17, "path node 17"},
	{"audit: connection hop", 17110, 17, "hop node"},
	{"VC memory index", 17168, 1 << 40, "path VC"},
	{"channel-map VC", 80910, 17, "mapped VC"},
	{"channel-map port", 80881, 1 << 40, "mapped port"},
	{"admission registers", 80156, -1, "negative restored state"},
}

// patch overwrites little-endian 8-byte words of payload as ops directs:
// each 12-byte op is a uint32 offset (taken modulo the payload length)
// followed by the word. A trailing partial op truncates the payload to
// its first byte's share of the length.
func patch(payload, ops []byte) []byte {
	buf := append([]byte(nil), payload...)
	for ; len(ops) >= 12; ops = ops[12:] {
		off := int(binary.LittleEndian.Uint32(ops) % uint32(len(buf)-7))
		copy(buf[off:off+8], ops[4:12])
	}
	if len(ops) > 0 {
		buf = buf[:len(buf)*int(ops[0])/256]
	}
	return buf
}

// patchOp encodes one patch op writing word at offset.
func patchOp(offset int, word int64) []byte {
	op := binary.LittleEndian.AppendUint32(nil, uint32(offset))
	return binary.LittleEndian.AppendUint64(op, uint64(word))
}

// TestRestoreStateRejectsCorruptFields: each corruptSites word must be a
// decoding error naming the field, not a panic.
func TestRestoreStateRejectsCorruptFields(t *testing.T) {
	snap := corruptSnapshot(t)
	if len(snap) != 82655 {
		t.Fatalf("payload is %d bytes, want 82655: the layout moved, re-derive the offsets", len(snap))
	}
	for _, tc := range corruptSites {
		n, err := New(detConfig(t, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		err = n.RestoreState(patch(snap, patchOp(tc.offset, tc.word)))
		n.Shutdown()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s (word %d at offset %d): got %v, want an error containing %q", tc.site, tc.word, tc.offset, err, tc.want)
		}
	}
}

// FuzzRestoreState corrupts a valid payload — overwriting words and
// truncating it as patch directs — seals it again with a good CRC, and
// restores it. The restore must fail with an error or yield a fabric
// that passes the resource audit; it must never panic, and no length
// field may drive an allocation out of proportion to the payload.
func FuzzRestoreState(f *testing.F) {
	snap := corruptSnapshot(f)
	f.Add([]byte{})
	f.Add([]byte{128})
	for _, tc := range corruptSites {
		f.Add(patchOp(tc.offset, tc.word))
	}
	hash := func() uint64 {
		n, err := New(detConfig(f, 1, false))
		if err != nil {
			f.Fatal(err)
		}
		defer n.Shutdown()
		return n.ConfigHash()
	}()
	f.Fuzz(func(t *testing.T, ops []byte) {
		_, payload, err := checkpoint.Open(checkpoint.Seal(hash, patch(snap, ops)))
		if err != nil {
			t.Fatal(err)
		}
		n, err := New(detConfig(t, 1, false))
		if err != nil {
			t.Fatal(err)
		}
		defer n.Shutdown()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = n.RestoreState(payload)
		runtime.ReadMemStats(&after)
		// A restore's allocations are bounded by its input: every count is
		// capped by the bytes that remain, the largest decoded record is
		// under 128 bytes, and the per-node structures preexist.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(payload))+1<<20 {
			t.Fatalf("restore of %d bytes allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			return
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("restored fabric fails the resource audit: %v", err)
		}
	})
}
