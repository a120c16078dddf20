// Package core assembles WAP's pipeline: project loading, the code analyzer
// (taint detectors for every active class and weapon), the false positive
// predictor (symptom extraction + top-3 classifier ensemble) and the code
// corrector. It offers two configurations: the original WAP v2.1 and the
// paper's extended WAPe.
package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/intern"
	"repro/internal/php/ast"
	"repro/internal/php/parser"
)

// SourceFile is one PHP file of a project.
type SourceFile struct {
	// Path is the project-relative path.
	Path string
	// Src is the raw source text.
	Src string
	// Hash is the SHA-256 of Src. It identifies the file's content for
	// incremental scans: a task may only reuse a stored result when every
	// file in its reachable closure hashes identically.
	Hash [sha256.Size]byte
	// AST is the parsed file.
	AST *ast.File
	// ParseErrs records recoverable syntax errors.
	ParseErrs []*parser.Error
	// Degraded is true when the parser hit its nesting bound and the AST is
	// a truncated approximation of the file.
	Degraded bool
	// Lines is the line count of Src.
	Lines int

	// memo lazily caches artifacts derived purely from Src/AST (which never
	// change after load), so scans that share a SourceFile through parse
	// reuse pay for them once, not per scan.
	memo fileMemo
}

// fileMemo is SourceFile's content-derived cache. Guarded by its mutex: one
// SourceFile can serve concurrent scans (wapd jobs sharing a baseline).
type fileMemo struct {
	mu sync.Mutex
	// called lists the statically named callables the file mentions.
	called []string
	// sinkMask is the file's sink-token presence mask under table sinkTab.
	// A scan under another engine's table (a weapon hot swap) recomputes it.
	sinkTab  *sinkTable
	sinkMask []uint64
}

// sinkMask returns the file's token presence mask under tab, computed once
// per table.
func (f *SourceFile) sinkMask(tab *sinkTable) []uint64 {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	if f.memo.sinkTab != tab {
		f.memo.sinkMask = tab.presence(f.Src)
		f.memo.sinkTab = tab
	}
	return f.memo.sinkMask
}

// calledNames returns the file's statically named callables in sorted
// order, computed once. The returned slice is shared: callers must treat it
// as read-only.
func (f *SourceFile) calledNames() []string {
	f.memo.mu.Lock()
	defer f.memo.mu.Unlock()
	if f.memo.called == nil {
		f.memo.called = calledNames(f.AST)
	}
	return f.memo.called
}

// LoadStats describes how the parse front end ran for one project load.
type LoadStats struct {
	// ParseWall is the wall-clock time of the read+hash+parse phase,
	// excluding the directory walk and the index build.
	ParseWall time.Duration
	// Workers is the number of load workers that executed the phase.
	Workers int
}

// Project is a parsed web application (or plugin): all files plus a
// project-wide function index so taint analysis crosses include boundaries.
type Project struct {
	// Name identifies the application.
	Name  string
	Files []*SourceFile

	// Diagnostics records files skipped at load time and degraded parses.
	// Analysis copies them into the report so no loss of coverage is silent.
	Diagnostics []Diagnostic

	// LoadStats records parse-phase wall time and worker count. Purely
	// informational: it never influences analysis output.
	LoadStats LoadStats

	// funcs and methods resolve callable names to the index in Files of the
	// declaring file (methods also to the winning Class::m key), and byPath
	// resolves paths. The tables name no AST node, so a rescan whose edits
	// keep every file's declared keys shares them as they are.
	funcs   map[string]int32
	methods map[string]methodRef
	byPath  map[string]int
	// ambig holds callable names declared more than once project-wide
	// (functions and methods conflated, conservatively): resolving such a
	// name from different files can yield different declarations, so taint
	// summaries that touched one are never shared across tasks.
	ambig map[string]bool
}

// methodRef locates the declaration a bare method name resolves to.
type methodRef struct {
	file int32
	key  string
}

// ResolveFunc implements taint.FuncResolver.
func (p *Project) ResolveFunc(name string) *ast.FunctionDecl {
	if i, ok := p.funcs[name]; ok {
		return p.Files[i].AST.Funcs[name]
	}
	return nil
}

// ResolveMethod implements taint.FuncResolver.
func (p *Project) ResolveMethod(name string) *ast.FunctionDecl {
	if m, ok := p.methods[name]; ok {
		return p.Files[m.file].AST.Funcs[m.key]
	}
	return nil
}

// AmbiguousCallable implements taint.AmbiguityReporter: it reports whether
// name (lower-case) has more than one declaration anywhere in the project.
func (p *Project) AmbiguousCallable(name string) bool {
	return p.ambig[name]
}

// TotalLines returns the project's total line count.
func (p *Project) TotalLines() int {
	total := 0
	for _, f := range p.Files {
		total += f.Lines
	}
	return total
}

// File returns the source file with the given path, or nil.
func (p *Project) File(path string) *SourceFile {
	if p.byPath != nil {
		if i, ok := p.byPath[path]; ok {
			return p.Files[i]
		}
		return nil
	}
	// Fallback for hand-assembled projects that never called index().
	for _, f := range p.Files {
		if f.Path == path {
			return f
		}
	}
	return nil
}

// LoadMap builds a project from an in-memory path→source map (used by the
// synthetic corpus and tests).
func LoadMap(name string, files map[string]string) *Project {
	return LoadMapOptions(name, files, LoadOptions{})
}

// LoadMapIncremental is LoadMap with parse reuse: files whose bytes equal
// the same path's in prev adopt prev's parsed SourceFile (ASTs are
// immutable after parse, so sharing them across projects is safe) instead
// of re-parsing, and the project-wide indexes are derived from prev's when
// no declaration changed (see buildIndex). prev may be nil.
func LoadMapIncremental(name string, files map[string]string, prev *Project) *Project {
	return LoadMapOptions(name, files, LoadOptions{Prev: prev})
}

// LoadMapOptions is LoadMap with full load options (parse reuse and
// parallelism). The resulting project is byte-identical at any parallelism:
// files are ordered by sorted path regardless of parse completion order.
func LoadMapOptions(name string, files map[string]string, opts LoadOptions) *Project {
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	slots := make([]loadSlot, len(paths))
	for i, path := range paths {
		slots[i] = loadSlot{job: true, rel: path, src: files[path]}
	}
	p := &Project{Name: name}
	// In-memory loads perform no IO and take no context, so they cannot fail.
	_ = p.runSlots(context.Background(), slots, opts)
	p.buildIndex(opts.Prev)
	return p
}

// DefaultMaxFileSize is the load-time size cap (bytes) applied when
// LoadOptions.MaxFileSize is zero. Real-world trees contain giant generated
// or data-bearing .php files that only stall analysis; they are skipped and
// recorded as load-skipped diagnostics.
const DefaultMaxFileSize = 8 << 20

// LoadOptions tunes directory loading.
type LoadOptions struct {
	// MaxFileSize is the per-file size cap in bytes; 0 means
	// DefaultMaxFileSize, negative means unlimited.
	MaxFileSize int64
	// Prev, when set, enables parse reuse: a file whose bytes equal the
	// same path's in Prev adopts Prev's parsed SourceFile instead of
	// re-parsing, and the project indexes are derived from Prev's when no
	// declaration changed. Used by incremental rescans of the same tree.
	Prev *Project
	// Parallelism bounds concurrent read+parse workers; 0 uses GOMAXPROCS
	// capped at 8 (matching Options.Parallelism), 1 forces a sequential
	// load. The loaded project is byte-identical at any setting: files and
	// diagnostics are assembled in walk order regardless of completion order.
	Parallelism int
}

func (o LoadOptions) maxFileSize() int64 {
	switch {
	case o.MaxFileSize < 0:
		return 0 // unlimited
	case o.MaxFileSize == 0:
		return DefaultMaxFileSize
	default:
		return o.MaxFileSize
	}
}

func (o LoadOptions) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// LoadDir builds a project from every .php file under dir (matched by
// lowercase suffix, so Page.PHP loads too) with default options.
func LoadDir(name, dir string) (*Project, error) {
	return LoadDirOptions(name, dir, LoadOptions{})
}

// LoadDirOptions builds a project from every .php file under dir. The load
// is resilient: unreadable files, unresolvable symlinks and files over the
// size cap are skipped and recorded as load-skipped diagnostics (with their
// original path casing) instead of aborting the whole load. Only a missing
// or unreadable root directory is a fatal error.
func LoadDirOptions(name, dir string, opts LoadOptions) (*Project, error) {
	return LoadDirContext(context.Background(), name, dir, opts)
}

// LoadDirContext is LoadDirOptions under a context: cancellation is checked
// between files, so a cancelled or timed-out request stops walking a huge
// tree immediately instead of parsing it all before analysis ever sees the
// deadline. On cancellation it returns ctx's error (wrapped).
//
// The load runs in two phases. The walk phase visits the tree sequentially,
// resolving every per-entry decision that depends on walk order (skip
// diagnostics, symlink and size-cap handling) into an ordered slot list. The
// parse phase then executes the file slots — read, hash, parse-or-reuse — on
// a bounded worker pool and assembles Files and Diagnostics in slot order,
// so the project is byte-identical to a sequential load at any parallelism.
func LoadDirContext(ctx context.Context, name, dir string, opts LoadOptions) (*Project, error) {
	p := &Project{Name: name}
	sizeCap := opts.maxFileSize()
	var slots []loadSlot
	skip := func(rel, format string, args ...any) {
		slots = append(slots, loadSlot{diag: &Diagnostic{
			File: rel, Kind: DiagLoadSkipped,
			Message: fmt.Sprintf(format, args...),
		}})
	}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		rel := relPath(dir, path)
		if err != nil {
			if path == dir || filepath.Clean(path) == filepath.Clean(dir) {
				return err // unreadable root: fatal
			}
			skip(rel, "unreadable: %v", err)
			if d != nil && d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if d.IsDir() || !strings.HasSuffix(strings.ToLower(d.Name()), ".php") {
			return nil
		}
		// WalkDir never descends into directory symlinks, so symlink cycles
		// cannot recurse. File symlinks are followed through os.Stat /
		// os.ReadFile below; a symlink pointing at a directory is skipped
		// silently (it is not a PHP file, and descending would reopen the
		// cycle risk), and a broken one is diagnosed explicitly.
		if d.Type()&fs.ModeSymlink != 0 {
			info, serr := os.Stat(path)
			if serr != nil {
				skip(rel, "broken symlink: %v", serr)
				return nil
			}
			if info.IsDir() {
				return nil
			}
		}
		if sizeCap > 0 {
			if info, ierr := os.Stat(path); ierr == nil && info.Size() > sizeCap {
				skip(rel, "file size %d exceeds cap %d bytes", info.Size(), sizeCap)
				return nil
			}
		}
		slots = append(slots, loadSlot{job: true, rel: rel, abs: path, read: true})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	if err := p.runSlots(ctx, slots, opts); err != nil {
		return nil, fmt.Errorf("core: load %s: %w", dir, err)
	}
	p.buildIndex(opts.Prev)
	return p, nil
}

// loadSlot is one ordered unit of load work produced by the walk phase:
// either a pre-resolved skip diagnostic or a file job to read and parse.
// Workers may execute jobs in any order; assembly consumes slots in order.
type loadSlot struct {
	diag *Diagnostic // skip diagnostic resolved during the walk (non-job)
	job  bool        // this slot is a file to load
	rel  string      // project-relative path
	abs  string      // on-disk path to read (dir loads)
	src  string      // in-memory source (map loads)
	read bool        // read src from abs instead of using src
}

// loadResult is the outcome of one job slot.
type loadResult struct {
	sf       *SourceFile // loaded or reused file; nil when skipped
	skipDiag *Diagnostic // read failure discovered by the worker
	degraded *Diagnostic // parse-degradation diagnostic (fresh or reused)
}

// runSlots executes every job slot on a bounded worker pool and assembles
// Files and Diagnostics in slot order, recording LoadStats. Workers claim
// slots through an atomic cursor; results land in a per-slot array, so the
// assembled project is independent of execution order. Cancellation is
// checked between files and surfaces as ctx's error with no partial project.
func (p *Project) runSlots(ctx context.Context, slots []loadSlot, opts LoadOptions) error {
	jobs := 0
	for i := range slots {
		if slots[i].job {
			jobs++
		}
	}
	workers := opts.parallelism()
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	tab := intern.NewTable()
	start := time.Now()
	results := make([]loadResult, len(slots))
	var cursor atomic.Int64
	var firstErr error
	var once sync.Once
	work := func() {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(slots) {
				return
			}
			if !slots[i].job {
				continue
			}
			if cerr := ctx.Err(); cerr != nil {
				once.Do(func() { firstErr = cerr })
				return
			}
			results[i] = executeSlot(&slots[i], opts.Prev, tab)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if firstErr != nil {
		return firstErr
	}
	for i := range slots {
		if !slots[i].job {
			p.Diagnostics = append(p.Diagnostics, *slots[i].diag)
			continue
		}
		r := &results[i]
		if r.skipDiag != nil {
			p.Diagnostics = append(p.Diagnostics, *r.skipDiag)
			continue
		}
		if r.degraded != nil {
			p.Diagnostics = append(p.Diagnostics, *r.degraded)
		}
		p.Files = append(p.Files, r.sf)
	}
	p.LoadStats = LoadStats{ParseWall: time.Since(start), Workers: workers}
	return nil
}

// executeSlot loads one file: read (for dir loads), then either adopt prev's
// parse of byte-identical source — memoized artifacts (called names, sink
// token mask) travel with the reused SourceFile, and so does its Hash, so an
// unchanged file is never hashed again — or hash and parse fresh through the
// shared intern table. Byte equality is a stronger reuse test than hash
// equality, and a source string compared with itself — a caller passing the
// same map values again — matches without reading its bytes.
func executeSlot(s *loadSlot, prev *Project, tab *intern.Table) loadResult {
	var old *SourceFile
	if prev != nil {
		old = prev.File(s.rel)
	}
	src := s.src
	var data []byte
	if s.read {
		var err error
		data, err = os.ReadFile(s.abs)
		if err != nil {
			return loadResult{skipDiag: &Diagnostic{
				File: s.rel, Kind: DiagLoadSkipped,
				Message: fmt.Sprintf("unreadable: %v", err),
			}}
		}
		if old != nil && string(data) == old.Src {
			return reuseFile(old)
		}
		src = string(data)
	} else {
		if old != nil && src == old.Src {
			return reuseFile(old)
		}
		data = []byte(src)
	}
	f, errs := parser.ParseInterned(s.rel, src, tab)
	sf := &SourceFile{
		Path:      s.rel,
		Src:       src,
		Hash:      sha256.Sum256(data),
		AST:       f,
		ParseErrs: errs,
		Lines:     strings.Count(src, "\n") + 1,
	}
	res := loadResult{sf: sf}
	for _, e := range errs {
		if e.Degraded {
			sf.Degraded = true
			res.degraded = &Diagnostic{
				File: s.rel, Kind: DiagParseDegraded,
				Message: e.Msg,
			}
			break
		}
	}
	return res
}

// reuseFile adopts a previous load's parse, re-raising its parse-degraded
// diagnostic.
func reuseFile(old *SourceFile) loadResult {
	res := loadResult{sf: old}
	if old.Degraded {
		for _, e := range old.ParseErrs {
			if e.Degraded {
				res.degraded = &Diagnostic{
					File: old.Path, Kind: DiagParseDegraded,
					Message: e.Msg,
				}
				break
			}
		}
	}
	return res
}

// relPath makes path relative to dir, preserving the original casing.
func relPath(dir, path string) string {
	rel, err := filepath.Rel(dir, path)
	if err != nil {
		return path
	}
	return rel
}

// buildIndex builds the project-wide tables, sharing prev's when they are
// provably equal (deriveIndex) and indexing from scratch otherwise.
func (p *Project) buildIndex(prev *Project) {
	if !p.deriveIndex(prev) {
		p.index()
	}
}

// deriveIndex shares prev's tables when the path list is unchanged and every
// re-parsed file declares exactly the keys its previous version did: the
// tables depend only on each file's path and declared keys, in file order,
// so they are then equal to what index would build. It reports false,
// touching nothing, when it cannot apply.
func (p *Project) deriveIndex(prev *Project) bool {
	if prev == nil || prev.byPath == nil || len(prev.Files) != len(p.Files) {
		return false
	}
	for i, f := range p.Files {
		old := prev.Files[i]
		if f != old && (f.Path != old.Path || !sameKeys(f.AST.Funcs, old.AST.Funcs)) {
			return false
		}
	}
	// The tables are read-only once built.
	p.funcs, p.methods, p.byPath, p.ambig = prev.funcs, prev.methods, prev.byPath, prev.ambig
	return true
}

// sameKeys reports whether a and b have the same key set.
func sameKeys(a, b map[string]*ast.FunctionDecl) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// index builds the project-wide function, method, path and ambiguity tables:
// the first declaring file wins for functions and bare method names, the
// last one for Class::m keys.
func (p *Project) index() {
	p.funcs = make(map[string]int32)
	p.methods = make(map[string]methodRef)
	p.byPath = make(map[string]int, len(p.Files))
	counts := make(map[string]int)
	for i, f := range p.Files {
		p.byPath[f.Path] = i
		for key := range f.AST.Funcs {
			if j := strings.Index(key, "::"); j >= 0 {
				// Method key Class::name; also index by bare name.
				bare := key[j+2:]
				counts[bare]++
				// Among one file's same-named methods the smallest key
				// wins, so the choice never depends on map order.
				if m, exists := p.methods[bare]; !exists || m.file == int32(i) && key < m.key {
					p.methods[bare] = methodRef{int32(i), key}
				}
				p.funcs[key] = int32(i)
				continue
			}
			counts[key]++
			if _, exists := p.funcs[key]; !exists {
				p.funcs[key] = int32(i)
			}
		}
	}
	p.ambig = make(map[string]bool)
	for name, n := range counts {
		if n > 1 {
			p.ambig[name] = true
		}
	}
}
