package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// treeHash hashes every file under dir with its relative path.
func treeHash(t *testing.T, dir string) [sha256.Size]byte {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, p)
		h.Write([]byte(rel + "\x00"))
		h.Write(src)
		h.Write([]byte{0})
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

func TestColdLargeInputsDeterministicAndFresh(t *testing.T) {
	hashes := func() [][sha256.Size]byte {
		var out [][sha256.Size]byte
		for i := 0; i < 4; i++ {
			dir := t.TempDir()
			if err := writeTree(dir, coldApp(7, i).Files); err != nil {
				t.Fatal(err)
			}
			out = append(out, treeHash(t, dir))
		}
		return out
	}
	a, b := hashes(), hashes()
	seen := make(map[[sha256.Size]byte]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scan %d: same seed wrote different trees", i)
		}
		if seen[a[i]] {
			t.Errorf("scan %d repeats an earlier tree", i)
		}
		seen[a[i]] = true
	}
}

func TestWarmEditInputsDeterministic(t *testing.T) {
	a, b := newWarmInputs(5), newWarmInputs(5)
	for i := 0; i < 20; i++ {
		pa, pb := a.nextEdit(i), b.nextEdit(i)
		if pa != pb || a.files[pa] != b.files[pb] {
			t.Fatalf("edit %d: %s vs %s", i, pa, pb)
		}
	}
	for p, src := range a.files {
		if b.files[p] != src {
			t.Fatalf("%s differs after the same edits", p)
		}
	}
}

func TestWapdInputsDeterministic(t *testing.T) {
	bodies := func(seed int64) [][]byte {
		r, err := setupWapd(config{seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		w := r.(*wapdWebapps)
		var out [][]byte
		for i := 0; i < 2*len(w.suite); i++ {
			s, err := w.prepare(i)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, w.bodies[s.(*wapdScan).idx])
		}
		return out
	}
	a, b := bodies(9), bodies(9)
	seen := make(map[string]int)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("scan %d: same seed uploaded different bodies", i)
		}
		seen[string(a[i])]++
	}
	if len(seen) != 54 {
		t.Fatalf("two passes uploaded %d distinct packages, want 54", len(seen))
	}
	for _, n := range seen {
		if n != 2 {
			t.Fatal("a pass uploaded a package twice")
		}
	}
}

// declared reads the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// sameMetrics fails unless got reports exactly the declared metrics.
func sameMetrics(t *testing.T, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s: got %+v, want unit %s", name, m, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared", name)
		}
	}
}

func TestEndToEndMetricsMatchDeclaration(t *testing.T) {
	ph := &phase{lat: []time.Duration{time.Millisecond}, attempted: 1, busy: time.Second}
	sameMetrics(t, endToEnd(ph, 1).Metrics, declared(t, "end_to_end"))
}

// TestTracedRunReportsEveryLayer runs a short traced loop of each workload
// and checks that every declared per-layer metric is printed, and nonzero
// on a workload where its layer does work.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("sets up every workload")
	}
	want := declared(t, "per_layer")
	for _, tc := range []struct {
		name    string
		scans   int
		nonzero []string
	}{
		{"cold-large", 4, []string{"lexer.tokens", "parser.ms", "core.load_ms", "ir.lower_alloc_mb", "ir.instrs", "core.tasks", "taint.steps", "symptom.extract_ms", "ml.predict_ms", "report.bytes"}},
		{"warm-edit", 4, []string{"lexer.tokens", "core.reuse_ratio", "core.fingerprint_hits", "resultstore.puts", "resultstore.put_ms", "resultstore.bytes_written"}},
		{"wapd-webapps", 54, []string{"server.analysis_ms", "server.response_bytes", "server.request_bytes", "symptom.extract_ms", "ml.predict_ms", "taint.summary_hit_ratio"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workloads[tc.name]
			r, err := w.setup(config{seed: 1, dir: t.TempDir(), trace: true})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := r.close(); err != nil {
					t.Error(err)
				}
			}()
			l := newLayers()
			ph, err := measure(r, loopSpec{clients: w.clients, minScans: tc.scans, layers: l})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.afterTrace(l); err != nil {
				t.Fatal(err)
			}
			res := perLayer(ph, l)
			if !res.Correct {
				t.Fatalf("%d of %d scans failed", res.Failed, res.Attempted)
			}
			sameMetrics(t, res.Metrics, want)
			for _, name := range tc.nonzero {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
		})
	}
}
