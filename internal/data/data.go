// Package data generates synthetic labeled datasets for the real training
// path. The paper trains on mnist and cifar-10; those datasets cannot be
// bundled, so we substitute class-structured synthetic data (a Gaussian
// mixture with per-class centers) that exercises the same code paths:
// mini-batching, shuffling, multi-worker sharding, and a learnable signal
// whose training loss actually decreases.
package data

import (
	"fmt"
	"math/rand"

	"cynthia/internal/tensor"
)

// Set is a labeled dataset.
type Set struct {
	// X holds one sample per row.
	X *tensor.Dense
	// Labels holds the class index of each row.
	Labels []int
	// Classes is the number of distinct classes.
	Classes int
}

// Len returns the number of samples.
func (s *Set) Len() int { return len(s.Labels) }

// Synthetic generates n samples of a Gaussian mixture: each class gets a
// random center on the unit sphere scaled by sep, and samples are the
// center plus unit Gaussian noise. Larger sep is easier to learn.
func Synthetic(rng *rand.Rand, n, features, classes int, sep float64) (*Set, error) {
	if n < 1 || features < 1 || classes < 2 {
		return nil, fmt.Errorf("data: invalid config n=%d features=%d classes=%d", n, features, classes)
	}
	centers := tensor.NewDense(classes, features)
	for c := 0; c < classes; c++ {
		row := centers.Row(c)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		norm := tensor.Norm2(row)
		if norm > 0 {
			tensor.Scale(sep/norm, row)
		}
	}
	s := &Set{X: tensor.NewDense(n, features), Labels: make([]int, n), Classes: classes}
	for i := 0; i < n; i++ {
		c := rng.Intn(classes)
		s.Labels[i] = c
		row := s.X.Row(i)
		center := centers.Row(c)
		for j := range row {
			row[j] = center[j] + rng.NormFloat64()
		}
	}
	return s, nil
}

// MnistLike generates an mnist-shaped dataset: 784 features, 10 classes.
func MnistLike(rng *rand.Rand, n int) (*Set, error) {
	return Synthetic(rng, n, 784, 10, 4.0)
}

// Shard returns worker w's 1/n interleaved shard (data parallelism: each
// worker trains on a disjoint subset).
func (s *Set) Shard(w, n int) (*Set, error) {
	if n < 1 || w < 0 || w >= n {
		return nil, fmt.Errorf("data: shard %d of %d invalid", w, n)
	}
	count := (s.Len() - w + n - 1) / n
	out := &Set{X: tensor.NewDense(max(count, 1), s.X.Cols), Labels: make([]int, 0, count), Classes: s.Classes}
	row := 0
	for i := w; i < s.Len(); i += n {
		copy(out.X.Row(row), s.X.Row(i))
		out.Labels = append(out.Labels, s.Labels[i])
		row++
	}
	out.X = tensor.FromSlice(row, s.X.Cols, out.X.Data[:row*s.X.Cols])
	return out, nil
}

// Batcher yields shuffled mini-batches, reshuffling every epoch.
type Batcher struct {
	set   *Set
	batch int
	rng   *rand.Rand
	order []int
	pos   int
}

// NewBatcher creates a batcher over the set.
func NewBatcher(s *Set, batch int, rng *rand.Rand) (*Batcher, error) {
	if batch < 1 || batch > s.Len() {
		return nil, fmt.Errorf("data: batch %d for %d samples", batch, s.Len())
	}
	b := &Batcher{set: s, batch: batch, rng: rng, order: make([]int, s.Len())}
	for i := range b.order {
		b.order[i] = i
	}
	b.shuffle()
	return b, nil
}

func (b *Batcher) shuffle() {
	b.rng.Shuffle(len(b.order), func(i, j int) { b.order[i], b.order[j] = b.order[j], b.order[i] })
	b.pos = 0
}

// Next returns the next mini-batch, reshuffling at epoch boundaries. The
// returned matrices are freshly allocated (safe to retain).
func (b *Batcher) Next() (*tensor.Dense, []int) {
	if b.pos+b.batch > len(b.order) {
		b.shuffle()
	}
	x := tensor.NewDense(b.batch, b.set.X.Cols)
	labels := make([]int, b.batch)
	for k := 0; k < b.batch; k++ {
		idx := b.order[b.pos+k]
		copy(x.Row(k), b.set.X.Row(idx))
		labels[k] = b.set.Labels[idx]
	}
	b.pos += b.batch
	return x, labels
}
