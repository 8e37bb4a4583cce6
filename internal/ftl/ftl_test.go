package ftl

import (
	"slices"
	"testing"
)

func TestCostAdd(t *testing.T) {
	a := Cost{ReadIDs: []uint64{1}, WriteIDs: []uint64{2, 3}}
	a.Add(Cost{ReadIDs: []uint64{4, 5}, WriteIDs: []uint64{6}})
	a.AddRead(7)
	a.AddWrite(8)
	if !slices.Equal(a.ReadIDs, []uint64{1, 4, 5, 7}) || !slices.Equal(a.WriteIDs, []uint64{2, 3, 6, 8}) {
		t.Errorf("Add gave %+v", a)
	}
}
