package data

import (
	"fmt"

	"cynthia/internal/tensor"
)

// Split partitions the set into a training prefix and test suffix.
func (s *Set) Split(trainFrac float64) (train, test *Set, err error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return nil, nil, fmt.Errorf("data: train fraction %v out of (0,1)", trainFrac)
	}
	cut := int(float64(s.Len()) * trainFrac)
	if cut < 1 || cut >= s.Len() {
		return nil, nil, fmt.Errorf("data: split leaves an empty side")
	}
	return s.Slice(0, cut), s.Slice(cut, s.Len()), nil
}

// Slice returns rows [lo, hi) as a new Set sharing storage.
func (s *Set) Slice(lo, hi int) *Set {
	return &Set{
		X:       tensor.FromSlice(hi-lo, s.X.Cols, s.X.Data[lo*s.X.Cols:hi*s.X.Cols]),
		Labels:  s.Labels[lo:hi],
		Classes: s.Classes,
	}
}
