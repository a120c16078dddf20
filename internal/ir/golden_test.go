package ir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/php/parser"
)

// goldenApps is the corpus the committed IR dumps cover: every micro-suite
// app (all vulnerability groups) and a LargeApp sample (filler functions,
// safe snippets, planted SQLI).
func goldenApps() []*corpus.App {
	apps := corpus.MicroSuite(1, 3)
	large := corpus.LargeApp(1, 6, 40)
	large.Name = "large-sample"
	return append(apps, large)
}

// lowerApp lowers every file of app in sorted path order.
func lowerApp(t *testing.T, app *corpus.App) []*ir.File {
	t.Helper()
	var out []*ir.File
	for _, path := range app.SortedPaths() {
		f, _ := parser.Parse(path, app.Files[path])
		out = append(out, ir.LowerFile(f))
	}
	return out
}

// TestGoldenIRDumps pins the lowering byte for byte: each app's
// concatenated ir.Dump must equal the committed testdata/golden file.
// IRGOLDEN_UPDATE=1 rewrites the files from the current lowering.
func TestGoldenIRDumps(t *testing.T) {
	update := os.Getenv("IRGOLDEN_UPDATE") == "1"
	for _, app := range goldenApps() {
		var b strings.Builder
		for _, fir := range lowerApp(t, app) {
			b.WriteString(ir.Dump(fir))
		}
		path := filepath.Join("testdata", "golden", app.Name+".ir")
		if update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with IRGOLDEN_UPDATE=1)", app.Name, err)
		}
		if got := b.String(); got != string(want) {
			t.Errorf("%s: IR dump differs from %s\n%s", app.Name, path, firstDiff(string(want), got))
		}
	}
}

// firstDiff renders the first differing line of two dumps.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "(no line differs)"
}

// TestBlockInstrsDisjoint asserts the instruction arena's aliasing
// contract: every block's Instrs has len == cap, and no two blocks'
// backing ranges overlap, so an append to one block can never clobber
// another's instructions.
func TestBlockInstrsDisjoint(t *testing.T) {
	type span struct {
		lo, hi uintptr
		where  string
	}
	for _, app := range goldenApps() {
		for _, fir := range lowerApp(t, app) {
			var spans []span
			var walk func(fn *ir.Func, where string)
			walk = func(fn *ir.Func, where string) {
				for _, blk := range fn.Blocks {
					if len(blk.Instrs) != cap(blk.Instrs) {
						t.Fatalf("%s b%d: len %d != cap %d", where, blk.ID, len(blk.Instrs), cap(blk.Instrs))
					}
					if len(blk.Instrs) > 0 {
						lo := uintptr(unsafe.Pointer(unsafe.SliceData(blk.Instrs)))
						hi := lo + uintptr(cap(blk.Instrs))*unsafe.Sizeof(ir.Instr{})
						spans = append(spans, span{lo, hi, fmt.Sprintf("%s b%d", where, blk.ID)})
					}
					for i := range blk.Instrs {
						if c := blk.Instrs[i].Closure; c != nil {
							walk(c, where+"/closure")
						}
					}
				}
			}
			walk(fir.Top, fir.Name+":top")
			for _, fn := range fir.Funcs {
				walk(fn, fir.Name+":"+fn.Name)
			}
			for i := range spans {
				for j := i + 1; j < len(spans); j++ {
					a, b := spans[i], spans[j]
					if a.lo < b.hi && b.lo < a.hi {
						t.Fatalf("%s and %s share backing memory", a.where, b.where)
					}
				}
			}
		}
	}
}
