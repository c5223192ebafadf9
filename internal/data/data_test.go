package data

import (
	"math/rand"
	"testing"

	"cynthia/internal/nn"
	"cynthia/internal/tensor"
)

func TestSyntheticValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Synthetic(rng, 0, 4, 2, 1); err == nil {
		t.Error("zero samples accepted")
	}
	if _, err := Synthetic(rng, 4, 0, 2, 1); err == nil {
		t.Error("zero features accepted")
	}
	if _, err := Synthetic(rng, 4, 4, 1, 1); err == nil {
		t.Error("one class accepted")
	}
}

func TestSyntheticShapeAndLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s, err := Synthetic(rng, 100, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 || s.X.Rows != 100 || s.X.Cols != 8 {
		t.Errorf("shape = %d/%dx%d", s.Len(), s.X.Rows, s.X.Cols)
	}
	seen := map[int]bool{}
	for _, l := range s.Labels {
		if l < 0 || l >= 3 {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) != 3 {
		t.Errorf("only %d classes present", len(seen))
	}
}

func TestSyntheticIsLearnable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s, err := Synthetic(rng, 400, 16, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.NewMLP([]int{16, 32, 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatcher(s, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := m.NewGradients()
	for step := 0; step < 150; step++ {
		x, labels := b.Next()
		if _, err := m.LossAndGrad(x, labels, g); err != nil {
			t.Fatal(err)
		}
		for l := range m.W {
			tensor.Axpy(-0.1, g.W[l].Data, m.W[l].Data)
			tensor.Axpy(-0.1, g.B[l], m.B[l])
		}
	}
	if acc := m.Accuracy(s.X, s.Labels); acc < 0.9 {
		t.Errorf("accuracy = %v after training, want > 0.9", acc)
	}
}

func TestMnistLike(t *testing.T) {
	m, err := MnistLike(rand.New(rand.NewSource(4)), 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.X.Cols != 784 || m.Classes != 10 {
		t.Errorf("mnist-like shape %d/%d", m.X.Cols, m.Classes)
	}
}

func TestSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, _ := Synthetic(rng, 100, 4, 2, 2)
	train, test, err := s.Split(0.8)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != 80 || test.Len() != 20 {
		t.Errorf("split = %d/%d", train.Len(), test.Len())
	}
	if _, _, err := s.Split(0); err == nil {
		t.Error("zero fraction accepted")
	}
	if _, _, err := s.Split(1); err == nil {
		t.Error("unit fraction accepted")
	}
}

func TestShardPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s, _ := Synthetic(rng, 103, 4, 2, 2)
	total := 0
	for w := 0; w < 4; w++ {
		sh, err := s.Shard(w, 4)
		if err != nil {
			t.Fatal(err)
		}
		total += sh.Len()
		// Shard content must match the interleaved rows.
		for k := 0; k < sh.Len(); k++ {
			src := w + 4*k
			if sh.Labels[k] != s.Labels[src] {
				t.Fatalf("shard %d row %d label mismatch", w, k)
			}
			if sh.X.At(k, 0) != s.X.At(src, 0) {
				t.Fatalf("shard %d row %d data mismatch", w, k)
			}
		}
	}
	if total != s.Len() {
		t.Errorf("shards cover %d of %d samples", total, s.Len())
	}
	if _, err := s.Shard(4, 4); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

func TestBatcherEpochsCoverData(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, _ := Synthetic(rng, 30, 4, 2, 2)
	b, err := NewBatcher(s, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for i := 0; i < 3; i++ { // one epoch = 3 batches
		x, labels := b.Next()
		if x.Rows != 10 || len(labels) != 10 {
			t.Fatalf("batch shape %d/%d", x.Rows, len(labels))
		}
		for r := 0; r < x.Rows; r++ {
			counts[x.At(r, 0)]++
		}
	}
	// All 30 distinct first-features seen exactly once in the epoch.
	if len(counts) != 30 {
		t.Errorf("epoch covered %d distinct samples, want 30", len(counts))
	}
	if _, err := NewBatcher(s, 0, rng); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := NewBatcher(s, 31, rng); err == nil {
		t.Error("oversized batch accepted")
	}
}

func TestBatcherReshuffles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s, _ := Synthetic(rng, 20, 2, 2, 2)
	b, _ := NewBatcher(s, 20, rng)
	x1, _ := b.Next()
	x2, _ := b.Next()
	same := true
	for i := range x1.Data {
		if x1.Data[i] != x2.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("two epochs had identical order")
	}
}
