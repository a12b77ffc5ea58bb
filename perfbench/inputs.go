package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/dataset"
	"repro/internal/svm"
)

// inputs is everything the seed decides: the diabetes dataset, the
// linear model the trainer serves, the order samples are sent in, and the
// plaintext labels the oracle expects.
type inputs struct {
	spec dataset.Spec
	// model is model A, the oracle's; served is what the trainer
	// publishes (the same model unless a fault is injected).
	model, served *svm.Model
	// samples holds the test set in seeded order twice over, so any
	// window of up to len/2 samples is a plain sub-slice.
	samples [][]float64
	labels  []int
}

// makeInputs generates the workload inputs for seed. Its two steps are
// traced as children of root.
func makeInputs(seed uint64, fault bool, root open) (*inputs, error) {
	spec, err := dataset.SpecByName("diabetes")
	if err != nil {
		return nil, err
	}
	gen := root.child("dataset.generate")
	train, test, err := dataset.Generate(spec, dataset.Options{Seed: seed})
	gen.end()
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	fit := root.child("svm.train")
	model, err := svm.Train(train.X, train.Y, svm.Config{Kernel: svm.Linear(), C: spec.LinC})
	fit.end()
	if err != nil {
		return nil, fmt.Errorf("train model A: %w", err)
	}
	in := &inputs{spec: spec, model: model, served: model}
	if fault {
		in.served = invert(model)
	}
	order := rand.New(rand.NewPCG(seed, 0x0dde_5a3b)).Perm(len(test.X))
	n := len(order)
	in.samples = make([][]float64, 2*n)
	in.labels = make([]int, 2*n)
	for i, j := range order {
		label, err := model.Classify(test.X[j])
		if err != nil {
			return nil, fmt.Errorf("oracle label: %w", err)
		}
		in.samples[i], in.samples[i+n] = test.X[j], test.X[j]
		in.labels[i], in.labels[i+n] = label, label
	}
	return in, nil
}

// window returns n consecutive samples starting at position start of the
// seeded order (wrapping), with the labels the oracle expects for them.
func (in *inputs) window(start, n int) ([][]float64, []int) {
	s := start % (len(in.samples) / 2)
	return in.samples[s : s+n], in.labels[s : s+n]
}

// mismatches counts labels that disagree with the oracle.
func mismatches(got, want []int) int {
	if len(got) != len(want) {
		return len(want)
	}
	n := 0
	for i := range got {
		if got[i] != want[i] {
			n++
		}
	}
	return n
}

// invert returns m with every decision value negated, so every label
// flips: the model a faulty trainer would serve.
func invert(m *svm.Model) *svm.Model {
	out := *m
	out.AlphaY = make([]float64, len(m.AlphaY))
	for i, a := range m.AlphaY {
		out.AlphaY[i] = -a
	}
	out.Bias = -m.Bias
	return &out
}
