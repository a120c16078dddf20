package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/symptom"
	"repro/internal/weapon"
)

// engineSeed trains the engine's false-positive predictor. It is fixed, so
// the workload seed changes only the inputs the engine receives.
const engineSeed = 2016

// Table VI of the paper: one full pass over the 54-package web suite must
// report these totals.
const (
	tableVIDetected = 413
	tableVIFPP      = 104
	tableVIFP       = 18
)

// newEngine builds and trains the engine wapd serves with: every WAPe class
// plus the built-in weapons.
func newEngine() (*core.Engine, error) {
	opts := core.Options{Mode: core.ModeWAPe, Seed: engineSeed}
	for _, spec := range weapon.BuiltinSpecs() {
		w, err := weapon.Generate(spec)
		if err != nil {
			return nil, err
		}
		opts.Weapons = append(opts.Weapons, w)
	}
	eng, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	return eng, eng.Train()
}

// weaponDynamics returns the built-in weapons' dynamic symptoms, which the
// engine's extractor carries.
func weaponDynamics() ([]symptom.Dynamic, error) {
	var dyn []symptom.Dynamic
	for _, spec := range weapon.BuiltinSpecs() {
		w, err := weapon.Generate(spec)
		if err != nil {
			return nil, err
		}
		dyn = append(dyn, w.Dynamics...)
	}
	return dyn, nil
}

// checkScore scores findings against the app's planted spots, which the
// corpus generator records independently of the analyzer. A scan is correct
// when no planted vulnerability is missed, no finding is spurious, and
// every planted spot (vulnerability or false-positive flow) is matched.
func checkScore(app *corpus.App, findings []report.GroupedFinding) (*report.Score, error) {
	s := report.ScoreApp(app, findings)
	matched := s.TotalDetected() + s.PredictedFP + s.UnpredictedFP
	if s.MissedVulns != 0 || s.Spurious != 0 || matched != len(app.Spots) {
		return s, fmt.Errorf("%s: ground truth mismatch: %d missed, %d spurious, %d of %d spots matched",
			app.Name, s.MissedVulns, s.Spurious, matched, len(app.Spots))
	}
	return s, nil
}
