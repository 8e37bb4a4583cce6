package ssd

import "hash/fnv"

// StateDigest folds every piece of order-dependent device state — host
// ground truth, PVT/BVC bitmaps, free-pool order, the allocator's
// channel cursor and allocation sequence, the write buffer with its
// flush order, the GC destination lane, and reliability marks — into
// one FNV-1a hash. Two devices with equal digests hold bit-identical
// firmware state: the same data at the same physical addresses with the
// same bookkeeping.
//
// Virtual-time fields (the clock, flush/GC horizons, latency histograms,
// Stats durations) are deliberately excluded: the issue-time determinism
// test replays one trace through different queue counts, which changes
// *when* requests run but must never change *what* the device holds. The
// digest is the "what".
func (d *Device) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	wbool := func(b bool) {
		if b {
			w64(1)
		} else {
			w64(0)
		}
	}

	for l := range d.truth {
		w64(uint64(d.truth[l]))
		w64(d.token[l])
		wbool(d.lost[l])
	}
	for p := range d.valid {
		wbool(d.valid[p])
	}
	for b := range d.bvc {
		w64(uint64(d.bvc[b]))
		w64(d.blockSeq[b])
		wbool(d.bad[b])
		wbool(d.scrubSet[b])
	}
	w64(uint64(len(d.free)))
	for _, b := range d.free {
		w64(uint64(b))
	}
	w64(uint64(d.nextChan))
	w64(uint64(len(d.scrubPend)))
	for _, b := range d.scrubPend {
		w64(uint64(b))
	}
	w64(d.nextSeq)
	w64(d.writeStamp)
	w64(uint64(len(d.bufOrder)))
	for _, l := range d.bufOrder {
		w64(uint64(l))
		w64(d.token[l]) // a buffered LPA's payload
	}
	wbool(d.gcLane.open)
	w64(uint64(d.gcLane.block))
	w64(uint64(d.gcLane.next))
	return h.Sum64()
}
