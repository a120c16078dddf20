package core_test

// The golden-report oracle (make golden): every corpus app — web suite,
// micro suite, branch-sanitizer proofs, and each builtin weapon's dry-run
// proof app — is scanned at parallelism 1 and 3, and its canonical JSON
// report (Stats and Duration cleared) must match the committed file under
// testdata/golden byte for byte. The files were generated before the
// taint engine was consolidated, so they pin today's output independently
// of any engine kept alive just to compare against.
//
// Regenerate only for an intentional output change, and review the diff:
//
//	go test ./internal/core -run TestGoldenReports -update-golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/weapon"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata/golden from the current engine")

func goldenEngine(t *testing.T, par int, weapons []*weapon.Weapon) *core.Engine {
	t.Helper()
	e, err := core.New(core.Options{
		Mode:        core.ModeWAPe,
		Seed:        1,
		Parallelism: par,
		Weapons:     weapons,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	return e
}

// renderCanonical analyzes app and renders the JSON report with the
// schedule-dependent parts (duration, stats) cleared.
func renderCanonical(t *testing.T, e *core.Engine, app *corpus.App) string {
	t.Helper()
	rep, err := e.Analyze(core.LoadMap(app.Name, app.Files))
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	rep.Duration = 0
	rep.Stats = nil
	var buf bytes.Buffer
	if err := report.WriteJSON(&buf, rep); err != nil {
		t.Fatalf("%s: render: %v", app.Name, err)
	}
	return buf.String()
}

// goldenApps returns the corpus scanned without weapons (native), the
// weapon dry-run proof apps, and the builtin weapons they need.
func goldenApps(t *testing.T) (native []*corpus.App, dryrun []*corpus.App, weapons []*weapon.Weapon) {
	t.Helper()
	native = append(native, corpus.WebAppSuite(1)...)
	native = append(native, corpus.MicroSuite(1, 1)...)
	native = append(native, corpus.BranchSanitizerApp())
	for _, spec := range weapon.BuiltinSpecs() {
		spec := spec
		w, err := weapon.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		weapons = append(weapons, w)
		dryrun = append(dryrun, corpus.DryRunApp(&spec))
	}
	return native, dryrun, weapons
}

var nonSlug = regexp.MustCompile(`[^a-z0-9]+`)

// goldenPath names app i of a suite. The index keeps names unique (the web
// suite has two releases of one app) and the files in scan order.
func goldenPath(suite string, i int, app *corpus.App) string {
	slug := strings.Trim(nonSlug.ReplaceAllString(strings.ToLower(app.Name), "-"), "-")
	return filepath.Join("testdata", "golden", suite, fmt.Sprintf("%02d-%s.json", i, slug))
}

func TestGoldenReports(t *testing.T) {
	native, dryrun, weapons := goldenApps(t)
	suites := []struct {
		name    string
		apps    []*corpus.App
		weapons []*weapon.Weapon
	}{
		{"native", native, nil},
		{"weapons", dryrun, weapons},
	}
	pars := []int{1, 3}
	if *updateGolden {
		pars = []int{1}
	}
	for _, par := range pars {
		for _, s := range suites {
			e := goldenEngine(t, par, s.weapons)
			for i, app := range s.apps {
				path := goldenPath(s.name, i, app)
				got := renderCanonical(t, e, app)
				if *updateGolden {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%s: %v (regenerate with -update-golden)", app.Name, err)
				}
				if got != string(want) {
					t.Errorf("par %d, %s: report differs from %s:\ngot:\n%s\nwant:\n%s",
						par, app.Name, path, got, want)
				}
			}
		}
	}
	if *updateGolden {
		t.Logf("rewrote %d golden reports", len(native)+len(dryrun))
	}
}
