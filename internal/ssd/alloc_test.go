package ssd

import (
	"testing"

	"leaftl/internal/flash"
	"leaftl/internal/leaftl"
)

// TestAllocBlockOnRandomizedAgainstReference mirrors the victim-index
// reference test for the rotating allocator: random interleavings of
// allocations and block returns must track a straightline reference
// model exactly — same picks, same residual list order. The model is the
// rule as stated: walk the channels in rotation from the cursor, take
// the oldest free block of the first channel that has one, and leave the
// cursor one channel past the block taken.
func TestAllocBlockOnRandomizedAgainstReference(t *testing.T) {
	cfg := testConfig()
	d := newTestDevice(t, cfg, leaftl.New(0, cfg.Flash.PageSize))
	rng := seededRand(t, 77)
	fc := cfg.Flash

	ref := append([]flash.BlockID(nil), d.free...)
	cursor := 0
	refTake := func() flash.BlockID {
		idx := 0
	search:
		for k := 0; k < fc.Channels; k++ {
			ch := (cursor + k) % fc.Channels
			for i, b := range ref {
				if int(b)%fc.Channels == ch {
					idx = i
					break search
				}
			}
		}
		b := ref[idx]
		ref = append(ref[:idx], ref[idx+1:]...)
		cursor = (int(b)%fc.Channels + 1) % fc.Channels
		return b
	}

	var allocated []flash.BlockID
	lastChan := -1
	for op := 0; op < 20000; op++ {
		if len(ref) > 4 && (len(allocated) == 0 || rng.Intn(2) == 0) {
			otherChan := false // a free block sits off the channel taken last
			for _, b := range ref {
				otherChan = otherChan || fc.ChannelOfBlock(b) != lastChan
			}
			got, err := d.allocBlock(0)
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if want := refTake(); got != want {
				t.Fatalf("op %d: allocBlock = block %d, reference %d", op, got, want)
			}
			if otherChan && fc.ChannelOfBlock(got) == lastChan {
				t.Fatalf("op %d: channel %d taken twice in a row with other channels free", op, lastChan)
			}
			lastChan = fc.ChannelOfBlock(got)
			allocated = append(allocated, got)
		} else {
			// Return a random allocated block, as a GC erase would.
			i := rng.Intn(len(allocated))
			b := allocated[i]
			allocated = append(allocated[:i], allocated[i+1:]...)
			d.free = append(d.free, b)
			d.isFree[b] = true
			d.blockSeq[b] = 0
			ref = append(ref, b)
		}
		if len(d.free) != len(ref) {
			t.Fatalf("op %d: free list length %d, reference %d", op, len(d.free), len(ref))
		}
		for i := range ref {
			if d.free[i] != ref[i] {
				t.Fatalf("op %d: free list diverges at %d: %d vs %d", op, i, d.free[i], ref[i])
			}
		}
	}
}
