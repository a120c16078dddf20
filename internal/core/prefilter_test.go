package core

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/corrector"
	"repro/internal/vuln"
	"repro/internal/weapon"
)

// naiveSinkReachable is the pre-filter's reference semantics: some sink
// token of the class occurs, by strings.Contains, in the lowered source of
// some file of the closure.
func naiveSinkReachable(p *Project, closure []int, cls *vuln.Class, extra []vuln.Sink) bool {
	for _, tok := range sinkTokens(cls, extra) {
		for _, j := range closure {
			if strings.Contains(strings.ToLower(p.Files[j].Src), tok) {
				return true
			}
		}
	}
	return false
}

// oracleExtraSinks adds wap.conf-style sinks, mixed case included, so the
// table's ClassSinks handling is exercised alongside the bundled tokens.
var oracleExtraSinks = map[vuln.ClassID][]vuln.Sink{
	vuln.SQLI: {{Name: "db_exec"}, {Name: "Raw_Query"}},
	vuln.XSSR: {{Name: "render_page"}},
}

// TestPrefilterMatchesNaive checks sinkReachable against the naive
// reference for every (file, class) of every corpus app: web suite,
// WordPress suite, micro suite, branch proofs and weapon dry-run apps.
func TestPrefilterMatchesNaive(t *testing.T) {
	var apps []*corpus.App
	apps = append(apps, corpus.WebAppSuite(1)...)
	for _, pl := range corpus.WordPressSuite(1) {
		apps = append(apps, &pl.App)
	}
	apps = append(apps, corpus.MicroSuite(1, 3)...)
	apps = append(apps, corpus.BranchSanitizerApp())
	var weapons []*weapon.Weapon
	for _, spec := range weapon.BuiltinSpecs() {
		spec := spec
		w, err := weapon.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		weapons = append(weapons, w)
		apps = append(apps, corpus.DryRunApp(&spec))
	}
	e, err := New(Options{Mode: ModeWAPe, Weapons: weapons, ClassSinks: oracleExtraSinks})
	if err != nil {
		t.Fatal(err)
	}
	tab := e.sinkTable()
	checked, skipped := 0, 0
	for _, app := range apps {
		p := LoadMap(app.Name, app.Files)
		reach := fileClosures(p)
		pf := newPrefilter(tab, p, reach)
		for fi := range p.Files {
			for ci, cls := range e.classes {
				want := naiveSinkReachable(p, reach[fi], cls, e.opts.ClassSinks[cls.ID])
				if got := pf.sinkReachable(fi, ci); got != want {
					t.Errorf("%s %s class %s: sinkReachable = %v, naive = %v",
						app.Name, p.Files[fi].Path, cls.ID, got, want)
				}
				checked++
				if !want {
					skipped++
				}
			}
		}
	}
	if skipped == 0 || skipped == checked {
		t.Fatalf("degenerate oracle: %d of %d tasks skippable", skipped, checked)
	}
}

// TestSinkMaskMemoKeyedByTable checks the per-file mask memo: a second scan
// under the same table reuses the mask, another engine's table (a weapon
// hot swap) recomputes it.
func TestSinkMaskMemoKeyedByTable(t *testing.T) {
	p := LoadMap("memo", map[string]string{"a.php": "<?php hot_sink($_GET['x']);"})
	f := p.Files[0]
	base, err := New(Options{Mode: ModeWAPe})
	if err != nil {
		t.Fatal(err)
	}
	m1 := f.sinkMask(base.sinkTable())
	if m2 := f.sinkMask(base.sinkTable()); &m1[0] != &m2[0] {
		t.Error("same table recomputed the mask")
	}
	w, err := weapon.Generate(weapon.Spec{
		Name:       "hotlogi",
		Sinks:      []vuln.Sink{{Name: "hot_sink"}},
		Sanitizers: []string{"hot_clean"},
		Fix:        corrector.Template{Kind: corrector.PHPSanitization, SanFunc: "hot_clean"},
	})
	if err != nil {
		t.Fatal(err)
	}
	swapped, err := base.WithWeapons(1, []*weapon.Weapon{w})
	if err != nil {
		t.Fatal(err)
	}
	pf := newPrefilter(swapped.sinkTable(), p, fileClosures(p))
	ci := len(swapped.classes) - 1
	if swapped.classes[ci].ID != "hotlogi" || !pf.sinkReachable(0, ci) {
		t.Error("hot-swapped weapon's sink not seen through the memo")
	}
}

// FuzzPrefilter checks the single-pass presence mask against
// strings.Contains over the lowered source for every token of a class set
// that includes the overlapping construct aliases and a fuzzed extra sink.
func FuzzPrefilter(f *testing.F) {
	f.Add("<?php mysql_query($q); echo", "db_exec")
	f.Add("<?= $x ?>", "x")
	f.Add("<?php include_once 'a.php'; DIE();", "Include")
	f.Add("<?php ReQuIrE_OnCe($f); EcHo $y;", "echo_")
	f.Add("<?php exi", "")
	f.Add("<?php İNCLUDE 'x'; Kill();", "kill")
	f.Add("<?php $a = 'ÄÖÜ'; system($a);", "ä")
	f.Add("die", "d")
	f.Fuzz(func(t *testing.T, src, extra string) {
		classes := []*vuln.Class{vuln.Get(vuln.XSSR), vuln.Get(vuln.SQLI), vuln.Get(vuln.RFI)}
		for _, c := range vuln.WAPe() {
			for _, s := range c.Sinks {
				if s.Name == "exit" {
					classes = append(classes, c)
				}
			}
		}
		extras := map[vuln.ClassID][]vuln.Sink{vuln.SQLI: {{Name: extra}}}
		tab := newSinkTable(classes, extras)
		m := tab.presence(src)
		lowered := strings.ToLower(src)
		for k, tok := range tab.toks {
			got := m[k/64]&(1<<(k%64)) != 0
			if want := strings.Contains(lowered, tok); got != want {
				t.Fatalf("token %q in %q: mask says %v, strings.Contains %v", tok, src, got, want)
			}
		}
	})
}

// TestSinkMaskConcurrentEngines scans one Project from several goroutines
// on two engines with different token tables, so the per-file mask memo
// flips between tables under concurrent use (run under -race); every scan
// must still find the same flows.
func TestSinkMaskConcurrentEngines(t *testing.T) {
	p := LoadMap("shared", map[string]string{"index.php": vulnApp, "guard.php": guardedApp})
	a := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	b := newEngine(t, Options{Mode: ModeWAPe, Seed: 1, ClassSinks: oracleExtraSinks})
	want, err := a.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		e := a
		if g%2 == 1 {
			e = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rep, err := e.Analyze(p)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rep.Findings) != len(want.Findings) {
					t.Errorf("findings = %d, want %d", len(rep.Findings), len(want.Findings))
					return
				}
			}
		}()
	}
	wg.Wait()
}
