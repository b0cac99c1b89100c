package predict

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrNoData is returned when training is attempted without examples.
var ErrNoData = errors.New("predict: no training examples")

// Model is a standardized logistic-regression scorer.
type Model struct {
	Weights []float64
	Bias    float64
	// Mean/Std are the feature standardization parameters learned from
	// the training set.
	Mean, Std []float64
}

// Gradient-descent settings, well-behaved for this feature set: epochs
// full-batch steps at learningRate, with an l2 weight penalty.
const (
	epochs               = 400
	learningRate float64 = 0.3
	l2           float64 = 1e-3
)

// TrainLogistic fits a logistic regression by full-batch gradient descent
// on standardized features.
func TrainLogistic(train []Example) (*Model, error) {
	if len(train) == 0 {
		return nil, ErrNoData
	}
	dim := len(train[0].Features)
	for _, ex := range train {
		if len(ex.Features) != dim {
			return nil, fmt.Errorf("predict: inconsistent feature dimension %d != %d", len(ex.Features), dim)
		}
	}
	m := &Model{
		Weights: make([]float64, dim),
		Mean:    make([]float64, dim),
		Std:     make([]float64, dim),
	}
	n := float64(len(train))
	for _, ex := range train {
		for j, v := range ex.Features {
			m.Mean[j] += v
		}
	}
	for j := range m.Mean {
		m.Mean[j] /= n
	}
	for _, ex := range train {
		for j, v := range ex.Features {
			d := v - m.Mean[j]
			m.Std[j] += d * d
		}
	}
	for j := range m.Std {
		m.Std[j] = math.Sqrt(m.Std[j] / n)
		if m.Std[j] < 1e-9 {
			m.Std[j] = 1 // constant feature: standardizes to zero
		}
	}

	std := make([][]float64, len(train))
	for i, ex := range train {
		row := make([]float64, dim)
		for j, v := range ex.Features {
			row[j] = (v - m.Mean[j]) / m.Std[j]
		}
		std[i] = row
	}

	grad := make([]float64, dim)
	for epoch := 0; epoch < epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gradBias := 0.0
		for i, row := range std {
			z := m.Bias
			for j, v := range row {
				z += m.Weights[j] * v
			}
			p := sigmoid(z)
			y := 0.0
			if train[i].Label {
				y = 1
			}
			err := p - y
			for j, v := range row {
				grad[j] += err * v
			}
			gradBias += err
		}
		for j := range m.Weights {
			m.Weights[j] -= learningRate * (grad[j]/n + l2*m.Weights[j])
		}
		m.Bias -= learningRate * gradBias / n
	}
	return m, nil
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Score returns the predicted failure probability for a raw feature
// vector.
func (m *Model) Score(features []float64) float64 {
	z := m.Bias
	for j, v := range features {
		if j >= len(m.Weights) {
			break
		}
		z += m.Weights[j] * (v - m.Mean[j]) / m.Std[j]
	}
	return sigmoid(z)
}

// TopFactors returns the feature names ranked by absolute standardized
// weight — the model's answer to "which factors matter".
func (m *Model) TopFactors(names []string) []string {
	type wf struct {
		name string
		w    float64
	}
	ranked := make([]wf, 0, len(m.Weights))
	for j, w := range m.Weights {
		name := fmt.Sprintf("f%d", j)
		if j < len(names) {
			name = names[j]
		}
		ranked = append(ranked, wf{name, math.Abs(w)})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].w > ranked[j].w })
	out := make([]string, len(ranked))
	for i, r := range ranked {
		out[i] = r.name
	}
	return out
}
