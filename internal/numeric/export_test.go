package numeric

import "math"

// MeanAbsRel returns the mean |a-b|/b over the pairs, the average relative
// error metric the paper reports.
func MeanAbsRel(predicted, observed []float64) float64 {
	if len(predicted) != len(observed) || len(observed) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range observed {
		if observed[i] == 0 {
			return math.Inf(1)
		}
		sum += math.Abs(predicted[i]-observed[i]) / observed[i]
	}
	return sum / float64(len(observed))
}
