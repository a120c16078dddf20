package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/report"
	"repro/internal/symptom"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// BuildCodeDrivenDataset reproduces the paper's data-set construction
// pipeline (Section III-B1): "we used WAP configured to output the candidate
// vulnerabilities, and we ran it with 29 open source PHP web applications.
// Then, each candidate vulnerability was processed manually to collect the
// attributes and to classify it as being a false positive or not."
//
// Here the analyzer runs over the synthetic corpus, candidates are labelled
// from the planted ground truth (standing in for the manual classification),
// symptoms are extracted exactly as in production, and noise is eliminated
// by dropping duplicate and ambiguous instances — the same procedure the
// paper describes.
func BuildCodeDrivenDataset(seed int64) (*ml.Dataset, error) {
	extractor := symptom.NewExtractor(nil)
	var pool []symptom.Vector

	classes := vuln.WAPe()
	for _, app := range corpus.WebAppSuite(seed) {
		if len(app.Spots) == 0 {
			continue
		}
		proj := core.LoadMap(app.Name, app.Files)
		irc := ir.NewCache()
		sx := extractor.NewScan()
		cfgs := make([]taint.Config, len(classes))
		for i, cls := range classes {
			cfgs[i] = taint.Config{Class: cls, Resolver: proj}
		}
		for _, sf := range proj.Files {
			// One fused pass per file, one lane per class in WAPe order.
			fz := taint.NewFused(cfgs)
			fz.FileIR(sf.AST, irc.File(sf.AST), irc)
			for lane := range classes {
				for _, cand := range fz.Candidates(lane) {
					// Label from ground truth: a candidate inside a planted
					// FP spot is a false positive, inside a vulnerable spot
					// a real vulnerability; unmatched candidates (duplicate
					// detections across grouped classes) keep their spot's
					// label too.
					label, ok := labelFromTruth(app, cand)
					if !ok {
						continue
					}
					present := sx.Extract(cand, sf.AST)
					pool = append(pool, symptom.NewVectorFromSet(present, label))
				}
			}
		}
	}
	if len(pool) == 0 {
		return nil, fmt.Errorf("experiments: no labelled candidates collected")
	}

	// Noise elimination: drop ambiguous attribute patterns and duplicates.
	labels := make(map[string]map[bool]bool)
	attrsKey := func(v symptom.Vector) string { return v.Key()[:len(v.Attrs)] }
	for _, v := range pool {
		k := attrsKey(v)
		if labels[k] == nil {
			labels[k] = make(map[bool]bool, 2)
		}
		labels[k][v.Label] = true
	}
	seen := make(map[string]bool)
	d := &ml.Dataset{}
	var nFP, nRV int
	for _, v := range pool {
		k := attrsKey(v)
		if len(labels[k]) > 1 || seen[k] {
			continue
		}
		seen[k] = true
		d.Instances = append(d.Instances, ml.NewInstance(v.Attrs, v.Label))
		if v.Label {
			nFP++
		} else {
			nRV++
		}
	}
	if nFP == 0 || nRV == 0 {
		return nil, fmt.Errorf("experiments: degenerate code-driven set (%d FP / %d RV)", nFP, nRV)
	}
	return d, nil
}

// labelFromTruth matches a candidate to the app's planted spots.
func labelFromTruth(app *corpus.App, cand *taint.Candidate) (isFP bool, ok bool) {
	group := report.GroupOf(cand.Class)
	for _, spot := range app.Spots {
		if spot.Group == group && spot.Contains(cand.File, cand.SinkPos.Line) {
			return !spot.Vulnerable, true
		}
	}
	return false, false
}

// CodeDrivenComparison evaluates classifiers trained on the code-driven set
// vs the generative set.
type CodeDrivenComparison struct {
	CodeDriven struct {
		Size, FP, RV int
		Accuracy     float64
	}
	Generative struct {
		Size     int
		Accuracy float64
	}
	// CrossAccuracy is the accuracy of a model trained on the generative
	// set and evaluated on the code-driven candidates — the deployment
	// scenario (train once, predict on new applications).
	CrossAccuracy float64
}

// RunCodeDrivenComparison builds both sets and compares.
func RunCodeDrivenComparison(seed int64) (*CodeDrivenComparison, error) {
	codeSet, err := BuildCodeDrivenDataset(seed)
	if err != nil {
		return nil, err
	}
	out := &CodeDrivenComparison{}
	out.CodeDriven.Size = codeSet.Len()
	fp, rv := codeSet.CountLabels()
	out.CodeDriven.FP, out.CodeDriven.RV = fp, rv

	k := 10
	if codeSet.Len() < 20 {
		k = 2
	}
	cm, err := ml.CrossValidate(func() ml.Classifier { return &ml.LogisticRegression{} }, codeSet, k, seed)
	if err != nil {
		return nil, err
	}
	out.CodeDriven.Accuracy = cm.Compute().ACC

	gen := dataset.Generate(dataset.Config{Seed: seed})
	out.Generative.Size = gen.Len()
	cm2, err := ml.CrossValidate(func() ml.Classifier { return &ml.LogisticRegression{} }, gen, 10, seed)
	if err != nil {
		return nil, err
	}
	out.Generative.Accuracy = cm2.Compute().ACC

	// Train on generative, evaluate on code-driven candidates.
	lr := &ml.LogisticRegression{}
	cm3, err := ml.Evaluate(lr, gen, codeSet)
	if err != nil {
		return nil, err
	}
	out.CrossAccuracy = cm3.Compute().ACC
	return out, nil
}

// RenderCodeDrivenComparison renders the comparison.
func RenderCodeDrivenComparison(c *CodeDrivenComparison) string {
	return fmt.Sprintf(`Training-set construction pipelines (Logistic Regression, CV accuracy)

  code-driven (analyzer candidates + ground-truth labels, noise eliminated):
      %d instances (%d FP / %d RV), accuracy %.1f%%
  generative model (the default 256-instance set):
      %d instances, accuracy %.1f%%
  generalization (trained on generative, tested on code-driven candidates):
      accuracy %.1f%%
`,
		c.CodeDriven.Size, c.CodeDriven.FP, c.CodeDriven.RV, c.CodeDriven.Accuracy*100,
		c.Generative.Size, c.Generative.Accuracy*100,
		c.CrossAccuracy*100)
}
