package main

import (
	"reflect"
	"testing"
)

func TestParseScatters(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int // nil: the list must be rejected
	}{
		{"1,2,3,4,6,8,12,16", []int{1, 2, 3, 4, 6, 8, 12, 16}},
		{" 1 , 2,\t4 ", []int{1, 2, 4}},
		{"5", []int{5}},
		{"1,x", nil},
		{"1,0,2", nil},
		{"-3", nil},
		{"1,,2", nil},
		{"", nil},
		{"1 2", nil},
	} {
		got, err := parseScatters(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseScatters(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseScatters(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}
