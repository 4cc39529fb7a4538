package randmodel

import (
	"fmt"

	"sigfim/internal/bitset"
	"sigfim/internal/dataset"
	"sigfim/internal/stats"
)

// IndependentModel is the paper's null model: a dataset of T transactions
// over len(Freqs) items where item i joins each transaction independently
// with probability Freqs[i].
type IndependentModel struct {
	T     int
	Freqs []float64
}

// FromProfile builds the null model matching a measured dataset profile —
// "a random dataset with the same number of transactions and the same
// individual item frequencies" (paper, abstract).
func FromProfile(p dataset.Profile) IndependentModel {
	return IndependentModel{T: p.T, Freqs: p.Freqs}
}

// Validate checks model parameters.
func (m IndependentModel) Validate() error {
	if m.T < 0 {
		return fmt.Errorf("randmodel: negative transaction count %d", m.T)
	}
	for i, f := range m.Freqs {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("randmodel: frequency %v of item %d outside [0,1]", f, i)
		}
	}
	return nil
}

// NumTransactions returns t.
func (m IndependentModel) NumTransactions() int { return m.T }

// NumItems returns n.
func (m IndependentModel) NumItems() int { return len(m.Freqs) }

// ItemFrequencies returns the model's frequency vector.
func (m IndependentModel) ItemFrequencies() []float64 { return m.Freqs }

// Generate draws one dataset. Column i is filled by visiting only the
// transactions that contain item i (geometric skip sampling), so the total
// expected cost is the expected dataset size sum_i T*f_i. It is a thin
// wrapper over GenerateInto with a fresh Vertical.
func (m IndependentModel) Generate(r *stats.RNG) *dataset.Vertical {
	v := &dataset.Vertical{}
	m.GenerateInto(r, v)
	return v
}

// GenerateInto draws one dataset into v, reusing v's column backing arrays
// (see randmodel.InPlaceGenerator). The random stream consumed is identical
// to Generate's, so for a fixed seed the pooled and fresh paths produce the
// same dataset.
func (m IndependentModel) GenerateInto(r *stats.RNG, v *dataset.Vertical) {
	v.Reuse(m.T, len(m.Freqs))
	for i, f := range m.Freqs {
		v.Tids[i] = sampleColumn(v.Tids[i], m.T, f, r)
	}
}

// sampleColumn appends the sorted tids of a Bernoulli(f) column of height t
// to col (passed with length zero) and returns it.
func sampleColumn(col bitset.TidList, t int, f float64, r *stats.RNG) bitset.TidList {
	if !(f > 0) || t == 0 {
		return col
	}
	if col == nil {
		col = make(bitset.TidList, 0, int(float64(t)*f)+4)
	}
	return stats.AppendBernoulli(col, t, f, r)
}

// ExpectedItemsetSupport returns t * prod(f_i over the itemset): the mean of
// the Binomial support distribution of the itemset under this model.
func (m IndependentModel) ExpectedItemsetSupport(items []uint32) float64 {
	p := 1.0
	for _, it := range items {
		p *= m.Freqs[it]
	}
	return float64(m.T) * p
}

// ItemsetSupportDist returns the exact Binomial distribution of the support
// of the given itemset under the model.
func (m IndependentModel) ItemsetSupportDist(items []uint32) stats.Binomial {
	p := 1.0
	for _, it := range items {
		p *= m.Freqs[it]
	}
	return stats.Binomial{N: m.T, P: p}
}
