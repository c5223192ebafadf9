package baseline

import (
	"fmt"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/numeric"
	"cynthia/internal/perf"
)

// Sample is one Optimus profiling observation: the measured mean iteration
// time of the workload on a cluster of nWorkers and nPS homogeneous
// dockers.
type Sample struct {
	Workers  int
	PS       int
	IterTime float64
}

// Optimus is the online-fitted speed model of Peng et al.: the iteration
// time is a parametric function of the worker and PS counts, with
// coefficients fitted by least squares over profiling samples. Following
// the structure the paper describes (computation shrinking with workers,
// communication growing with workers per PS, no overlap and no bottleneck
// term), the model is
//
//	BSP: titer(n, p) = θ0/n + θ1·n/p + θ2
//	ASP: titer(n, p) = θ0 + θ1·n/p
//
// Its weakness — inherited faithfully — is extrapolation: fitted on
// bottleneck-free small clusters, it cannot anticipate the PS saturation
// regime (paper Sec. 5.1), and its accuracy depends on the quality of the
// samples.
type Optimus struct {
	sync  model.SyncMode
	theta []float64
	// baseGFLOPS is the worker capability the samples were taken on;
	// predictions scale the compute term for other homogeneous worker
	// types and use the slowest worker for heterogeneous clusters.
	baseGFLOPS float64
}

// MinSamples is the number of profiling observations the fit requires.
const MinSamples = 3

// FitOptimus fits the Optimus model to profiling samples measured on
// workers with the given CPU capability.
func FitOptimus(sync model.SyncMode, baseGFLOPS float64, samples []Sample) (*Optimus, error) {
	if len(samples) < MinSamples {
		return nil, fmt.Errorf("baseline: optimus needs >= %d samples, got %d", MinSamples, len(samples))
	}
	if baseGFLOPS <= 0 {
		return nil, fmt.Errorf("baseline: non-positive baseline capability")
	}
	var x [][]float64
	var y []float64
	for _, s := range samples {
		if s.Workers < 1 || s.PS < 1 || s.IterTime <= 0 {
			return nil, fmt.Errorf("baseline: bad sample %+v", s)
		}
		x = append(x, features(sync, s.Workers, s.PS))
		y = append(y, s.IterTime)
	}
	theta, err := numeric.LeastSquares(x, y)
	if err != nil {
		return nil, fmt.Errorf("baseline: optimus fit: %w", err)
	}
	// Guard against pathological fits: a negative compute or
	// communication coefficient would predict negative times at scale.
	for i, th := range theta {
		if i < 2 && th < 0 {
			theta[i] = 0
		}
	}
	return &Optimus{sync: sync, theta: theta, baseGFLOPS: baseGFLOPS}, nil
}

func features(sync model.SyncMode, n, p int) []float64 {
	nf, pf := float64(n), float64(p)
	if sync == model.ASP {
		return []float64{1, nf / pf}
	}
	return []float64{1 / nf, nf / pf, 1}
}

// Name implements perf.Predictor.
func (*Optimus) Name() string { return "Optimus" }

// IterTime implements perf.Predictor. The compute-dependent terms scale
// with the ratio of sampled to target worker speed; heterogeneous clusters
// are pessimistically represented by their slowest worker, since the model
// has no notion of per-worker rates (the inapplicability the paper points
// out in Sec. 6).
func (o *Optimus) IterTime(p *perf.Profile, cluster cloud.ClusterSpec) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	n, nps := cluster.NumWorkers(), cluster.NumPS()
	if n < 1 || nps < 1 {
		return 0, fmt.Errorf("baseline: cluster needs >=1 worker and >=1 PS")
	}
	if p.Workload.Sync != o.sync {
		return 0, fmt.Errorf("baseline: optimus fitted for %v, asked about %v", o.sync, p.Workload.Sync)
	}
	f := features(o.sync, n, nps)
	speedRatio := o.baseGFLOPS / cluster.MinWorkerGFLOPS()
	var t float64
	if o.sync == model.ASP {
		// θ0 is the compute term for ASP.
		t = float64(o.theta[0]*speedRatio) + float64(o.theta[1]*f[1])
	} else {
		t = float64(o.theta[0]*f[0]*speedRatio) + float64(o.theta[1]*f[1]) + o.theta[2]
	}
	if t < 0 {
		t = 0
	}
	return t, nil
}

// TrainingTime implements perf.Predictor.
func (o *Optimus) TrainingTime(p *perf.Profile, cluster cloud.ClusterSpec, iters int) (float64, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("baseline: iteration count %d must be positive", iters)
	}
	titer, err := o.IterTime(p, cluster)
	if err != nil {
		return 0, err
	}
	if o.sync == model.ASP {
		return float64(iters) * titer / float64(cluster.NumWorkers()), nil
	}
	return float64(iters) * titer, nil
}

var _ perf.Predictor = (*Optimus)(nil)
