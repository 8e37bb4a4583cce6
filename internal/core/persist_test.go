package core

import (
	"math/rand"
	"testing"

	"leaftl/internal/addr"
)

// buildChurnedTable creates a table with multiple levels, approximate
// segments and CRB state.
func buildChurnedTable(t *testing.T, gamma int, seed int64) (*Table, model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := NewTable(gamma)
	m := model{}
	ppa := addr.PPA(0)
	for round := 0; round < 120; round++ {
		start := addr.LPA(rng.Intn(2048))
		var pairs []addr.Mapping
		switch round % 3 {
		case 0:
			n := 1 + rng.Intn(200)
			for i := 0; i < n; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i), PPA: ppa})
				ppa++
			}
		case 1:
			st := 2 + rng.Intn(4)
			for i := 0; i < 40; i++ {
				pairs = append(pairs, addr.Mapping{LPA: start + addr.LPA(i*st), PPA: ppa})
				ppa++
			}
		default:
			l := start
			for i := 0; i < 30; i++ {
				l += addr.LPA(1 + rng.Intn(4))
				pairs = append(pairs, addr.Mapping{LPA: l, PPA: ppa})
				ppa++
			}
		}
		tb.Update(pairs)
		m.apply(pairs)
	}
	return tb, m
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, gamma := range []int{0, 4} {
		t.Run(gammaName(gamma), func(t *testing.T) {
			tb, m := buildChurnedTable(t, gamma, 31)
			data, err := tb.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}

			restored := NewTable(99) // gamma overwritten by the snapshot
			if err := restored.UnmarshalBinary(data); err != nil {
				t.Fatal(err)
			}
			if restored.Gamma() != gamma {
				t.Errorf("gamma = %d, want %d", restored.Gamma(), gamma)
			}
			// Every lookup must agree exactly with the original table.
			for lpa := range m {
				want, wres, wok := tb.Lookup(lpa)
				got, gres, gok := restored.Lookup(lpa)
				if wok != gok || want != got || wres != gres {
					t.Fatalf("Lookup(%d): original %d/%v/%v, restored %d/%v/%v",
						lpa, want, wres, wok, got, gres, gok)
				}
			}
			// Structure statistics survive too.
			if a, b := tb.Stats(), restored.Stats(); a != b {
				t.Errorf("stats differ: %+v vs %+v", a, b)
			}
			// Mutations after restore keep working.
			restored.Update(mappings(0, 1, 999999, 64))
			if ppa, _, ok := restored.Lookup(10); !ok || ppa != 999999+10 {
				t.Errorf("post-restore update broken: %d %v", ppa, ok)
			}
		})
	}
}

func TestMarshalSizeMatchesAccounting(t *testing.T) {
	tb, _ := buildChurnedTable(t, 4, 7)
	data, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot = footprint (segments + CRB) + headers; headers are small.
	footprint := tb.SizeBytes()
	if len(data) < footprint {
		t.Errorf("snapshot %dB smaller than footprint %dB", len(data), footprint)
	}
	st := tb.Stats()
	overhead := len(data) - footprint
	// Per group: 4B gid + 32B exact bitmap + 2B level count + 2B CRB
	// count.
	maxOverhead := 16 + st.Groups*40 + st.TotalLevels*2 + st.Approximate*1
	if overhead > maxOverhead {
		t.Errorf("snapshot overhead %dB exceeds bound %dB", overhead, maxOverhead)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tb, _ := buildChurnedTable(t, 0, 3)
	good, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), good[4:]...),
		"bad version":   append([]byte("LFTL\xff"), good[5:]...),
		"truncated":     good[:len(good)/2],
		"trailing junk": append(append([]byte(nil), good...), 0xAA),
	}
	for name, data := range cases {
		fresh := NewTable(0)
		if err := fresh.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMarshalDeterministic(t *testing.T) {
	tb, _ := buildChurnedTable(t, 4, 5)
	a, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("marshal is nondeterministic")
	}
}

func TestMarshalEmptyTable(t *testing.T) {
	tb := NewTable(2)
	data, err := tb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewTable(0)
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Gamma() != 2 || restored.Stats().Groups != 0 {
		t.Errorf("restored empty table: gamma=%d groups=%d", restored.Gamma(), restored.Stats().Groups)
	}
}
