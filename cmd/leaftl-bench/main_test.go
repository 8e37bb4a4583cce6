package main

import (
	"reflect"
	"testing"
)

func TestParseLists(t *testing.T) {
	for _, tc := range []struct {
		in      string
		ints    []int
		floats  []float64
		intErr  bool
		fltsErr bool
	}{
		{in: "", ints: nil, floats: nil},
		{in: "1, 2,4", ints: []int{1, 2, 4}, floats: []float64{1, 2, 4}},
		{in: "0,0.25", intErr: true, floats: []float64{0, 0.25}},
		{in: "1,,2", ints: []int{1, 2}, floats: []float64{1, 2}},
		{in: "1,x", intErr: true, fltsErr: true},
		{in: "half", intErr: true, fltsErr: true},
	} {
		ints, err := parseIntList(tc.in)
		if (err != nil) != tc.intErr || !reflect.DeepEqual(ints, tc.ints) {
			t.Errorf("parseIntList(%q) = %v, %v", tc.in, ints, err)
		}
		floats, err := parseFloatList(tc.in)
		if (err != nil) != tc.fltsErr || !reflect.DeepEqual(floats, tc.floats) {
			t.Errorf("parseFloatList(%q) = %v, %v", tc.in, floats, err)
		}
	}
}
