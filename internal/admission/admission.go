// Package admission implements the MMR's bandwidth allocation mechanism
// (§4.2). Each output link carries two registers: the total guaranteed
// flit cycles per round allocated to connections (CBR demands plus VBR
// permanent bandwidths), and the total VBR peak bandwidth requested. A CBR
// connection is admitted while guaranteed allocation fits in a round; a
// VBR connection additionally requires the accumulated peak demand to stay
// under round length × concurrency factor — the knob trading QoS assurance
// against connection count and link utilization. A slice of each round can
// be held back for best-effort traffic so it cannot starve.
package admission

import "fmt"

// LinkAllocator is the per-output-link admission state.
type LinkAllocator struct {
	roundLen    int     // flit cycles per round (K × V, §4.1)
	beReserve   int     // cycles/round reserved for best-effort traffic
	concurrency float64 // VBR concurrency factor (set at power-on, §4.2)

	guaranteed int // register 1: Σ CBR allocations + VBR permanent
	peak       int // register 2: Σ VBR peak demands
	conns      int
}

// NewLinkAllocator returns an allocator for a link whose rounds are
// roundLen flit cycles long, reserving beReserve cycles per round for
// best-effort traffic, with the given VBR concurrency factor (values
// ≥ 1; 1 means peaks must be fully reservable, larger values oversubscribe).
func NewLinkAllocator(roundLen, beReserve int, concurrency float64) (*LinkAllocator, error) {
	if roundLen < 1 {
		return nil, fmt.Errorf("admission: round length %d < 1", roundLen)
	}
	if beReserve < 0 || beReserve >= roundLen {
		return nil, fmt.Errorf("admission: best-effort reserve %d outside [0,%d)", beReserve, roundLen)
	}
	if concurrency < 1 {
		return nil, fmt.Errorf("admission: concurrency factor %.2f < 1", concurrency)
	}
	return &LinkAllocator{roundLen: roundLen, beReserve: beReserve, concurrency: concurrency}, nil
}

// MustNewLinkAllocator is NewLinkAllocator for static configurations.
func MustNewLinkAllocator(roundLen, beReserve int, concurrency float64) *LinkAllocator {
	a, err := NewLinkAllocator(roundLen, beReserve, concurrency)
	if err != nil {
		panic(err)
	}
	return a
}

// budget returns the guaranteed cycles available to connections.
func (a *LinkAllocator) budget() int { return a.roundLen - a.beReserve }

// RoundLen returns the configured round length.
func (a *LinkAllocator) RoundLen() int { return a.roundLen }

// Guaranteed returns the currently allocated guaranteed cycles per round.
func (a *LinkAllocator) Guaranteed() int { return a.guaranteed }

// PeakTotal returns the accumulated VBR peak demand.
func (a *LinkAllocator) PeakTotal() int { return a.peak }

// Connections returns the number of admitted connections.
func (a *LinkAllocator) Connections() int { return a.conns }

// GuaranteedLoad returns the fraction of the round allocated to
// guaranteed traffic.
func (a *LinkAllocator) GuaranteedLoad() float64 {
	return float64(a.guaranteed) / float64(a.roundLen)
}

// Headroom returns the guaranteed cycles per round still available to new
// connections: the upper bound on any single admission this link can
// accept. Batched establishment uses it for provably-fatal-only
// pre-checks — a demand exceeding the headroom of every candidate link
// cannot be admitted no matter which path a search finds.
func (a *LinkAllocator) Headroom() int {
	if h := a.budget() - a.guaranteed; h > 0 {
		return h
	}
	return 0
}

// RestoreState overwrites the allocator's admission registers. The
// configured geometry (round length, reserve, concurrency) is not part
// of the state: a restored allocator must be built with the same
// configuration, which the checkpoint envelope's config hash enforces.
// Negative registers are refused.
func (a *LinkAllocator) RestoreState(guaranteed, peak, conns int) error {
	if guaranteed < 0 || peak < 0 || conns < 0 {
		return fmt.Errorf("admission: negative restored state (%d,%d,%d)", guaranteed, peak, conns)
	}
	a.guaranteed, a.peak, a.conns = guaranteed, peak, conns
	return nil
}

// CanAdmitCBR reports whether a CBR connection demanding cycles/round
// fits.
func (a *LinkAllocator) CanAdmitCBR(cycles int) bool {
	return cycles > 0 && a.guaranteed+cycles <= a.budget()
}

// AdmitCBR reserves cycles/round for a CBR connection, reporting success.
func (a *LinkAllocator) AdmitCBR(cycles int) bool {
	if !a.CanAdmitCBR(cycles) {
		return false
	}
	a.guaranteed += cycles
	a.conns++
	return true
}

// AdjustCBR changes an existing CBR connection's allocation by
// deltaCycles without changing the connection count — the admission side
// of §4.3's dynamic bandwidth management. Growth is admission-tested;
// shrinking always succeeds.
func (a *LinkAllocator) AdjustCBR(deltaCycles int) bool {
	if deltaCycles > 0 && a.guaranteed+deltaCycles > a.budget() {
		return false
	}
	a.guaranteed += deltaCycles
	if a.guaranteed < 0 {
		panic("admission: adjustment below zero")
	}
	return true
}

// ReleaseCBR returns a CBR connection's allocation.
func (a *LinkAllocator) ReleaseCBR(cycles int) {
	a.guaranteed -= cycles
	a.conns--
	if a.guaranteed < 0 || a.conns < 0 {
		panic("admission: CBR release without matching admit")
	}
}

// CanAdmitVBR reports whether a VBR connection with the given permanent
// and peak cycles/round fits: (i) permanent bandwidth must be fully
// reservable, and (ii) total peak demand must stay within roundLen ×
// concurrency factor (§4.2 conditions i and ii).
func (a *LinkAllocator) CanAdmitVBR(perm, peak int) bool {
	if perm <= 0 || peak < perm {
		return false
	}
	if a.guaranteed+perm > a.budget() {
		return false
	}
	limit := float64(a.budget()) * a.concurrency
	return float64(a.peak+peak) <= limit
}

// AdmitVBR reserves a VBR connection's permanent and peak demands,
// reporting success.
func (a *LinkAllocator) AdmitVBR(perm, peak int) bool {
	if !a.CanAdmitVBR(perm, peak) {
		return false
	}
	a.guaranteed += perm
	a.peak += peak
	a.conns++
	return true
}

// ReleaseVBR returns a VBR connection's demands.
func (a *LinkAllocator) ReleaseVBR(perm, peak int) {
	a.guaranteed -= perm
	a.peak -= peak
	a.conns--
	if a.guaranteed < 0 || a.peak < 0 || a.conns < 0 {
		panic("admission: VBR release without matching admit")
	}
}
