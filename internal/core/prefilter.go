package core

import (
	"math/bits"
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/php/ast"
	"repro/internal/vuln"
)

// The sink pre-filter skips (file, class) tasks that provably cannot produce
// a candidate: every candidate needs tainted data reaching one of the
// class's sinks, and a sink call site always spells the sink's name (or a
// language-construct alias) literally in some analyzed source file. A task
// on file X can reach sinks in X itself and — through inlined user-function
// calls — in any file declaring a function X's call graph mentions, so the
// check runs over X's reachable-file closure, not X alone. Dynamic calls
// ($f(...), $obj->$m(...)) are never matched against sinks by the analyzer,
// so ignoring them here loses no soundness.
//
// A skipped task is equivalent to a completed task with zero findings; the
// skip is recorded in the scan statistics, not as a diagnostic.

// sinkTokens returns the lower-case source substrings whose total absence
// from a file proves the file contains no call site of any of the class's
// sinks. Language-construct sinks have lexical aliases: echo also appears as
// the `<?=` short tag, include covers require (and the substring match
// covers the _once variants), exit covers die.
func sinkTokens(cls *vuln.Class, extra []vuln.Sink) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(tok string) {
		if !seen[tok] {
			seen[tok] = true
			out = append(out, tok)
		}
	}
	for _, set := range [][]vuln.Sink{cls.Sinks, extra} {
		for _, s := range set {
			switch s.Name {
			case "echo":
				add("echo")
				add("<?=")
			case "include":
				add("include")
				add("require")
			case "exit":
				add("exit")
				add("die")
			default:
				add(s.Name)
			}
		}
	}
	return out
}

// calledNames collects every statically named callable a file mentions:
// plain calls, method calls and static calls, lower-cased and sorted. These
// are the only names the analyzer can resolve to user functions in other
// files.
func calledNames(f *ast.File) []string {
	names := make(map[string]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name := ast.CalleeName(x); name != "" {
				names[name] = true
			}
		case *ast.MethodCallExpr:
			if x.DynName == nil && x.Name != "" {
				names[strings.ToLower(x.Name)] = true
			}
		case *ast.StaticCallExpr:
			if x.Name != "" {
				names[strings.ToLower(x.Name)] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(names))
	for name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// declaredNames collects the callable names a file declares (functions by
// bare name, methods by bare method name), lower-cased.
func declaredNames(f *SourceFile) []string {
	var out []string
	for key := range f.AST.Funcs {
		if i := strings.Index(key, "::"); i >= 0 {
			out = append(out, key[i+2:])
		} else {
			out = append(out, key)
		}
	}
	return out
}

// sinkTable is an engine's sink-token table: the union of every class's
// sinkTokens (per-class ClassSinks included), one bitmask per class over
// it, and an index of the tokens by their first bytes so a file's token
// presence is found in a single pass over its source. It depends only on
// the engine's immutable class set and options, so each engine builds it
// once and every scan shares it read-only.
type sinkTable struct {
	toks []string
	// words is the width of every token mask in uint64 words.
	words int
	// classMasks is aligned with Engine.classes: bit k is set when toks[k]
	// is one of the class's tokens.
	classMasks [][]uint64
	// always marks the empty token, which every source contains.
	always []uint64
	// single lists the one-byte tokens by their byte.
	single [256][]int32
	// pairIdx maps a token's first two bytes to 1 + its index in pairToks
	// (0: no token starts with that pair).
	pairIdx  [1 << 16]int32
	pairToks [][]int32
}

// sinkTable returns the engine's token table, building it on first use.
func (e *Engine) sinkTable() *sinkTable {
	e.sinkTabOnce.Do(func() { e.sinkTab = newSinkTable(e.classes, e.opts.ClassSinks) })
	return e.sinkTab
}

// newSinkTable builds the token table for classes (the engine's class
// order) with their ClassSinks extras.
func newSinkTable(classes []*vuln.Class, extra map[vuln.ClassID][]vuln.Sink) *sinkTable {
	t := &sinkTable{}
	index := make(map[string]int)
	perClass := make([][]int, len(classes))
	for ci, cls := range classes {
		for _, tok := range sinkTokens(cls, extra[cls.ID]) {
			k, ok := index[tok]
			if !ok {
				k = len(t.toks)
				index[tok] = k
				t.toks = append(t.toks, tok)
			}
			perClass[ci] = append(perClass[ci], k)
		}
	}
	t.words = (len(t.toks) + 63) / 64
	t.always = make([]uint64, t.words)
	t.classMasks = make([][]uint64, len(classes))
	for ci, ks := range perClass {
		m := make([]uint64, t.words)
		for _, k := range ks {
			m[k/64] |= 1 << (k % 64)
		}
		t.classMasks[ci] = m
	}
	for k, tok := range t.toks {
		switch len(tok) {
		case 0:
			t.always[k/64] |= 1 << (k % 64)
		case 1:
			t.single[tok[0]] = append(t.single[tok[0]], int32(k))
		default:
			pair := uint16(tok[0])<<8 | uint16(tok[1])
			if t.pairIdx[pair] == 0 {
				t.pairToks = append(t.pairToks, nil)
				t.pairIdx[pair] = int32(len(t.pairToks))
			}
			e := t.pairIdx[pair] - 1
			t.pairToks[e] = append(t.pairToks[e], int32(k))
		}
	}
	return t
}

// presence returns the mask of tokens that occur in strings.ToLower(src) —
// exactly the tokens strings.Contains would find there. ASCII sources are
// case-folded on the fly; any other source is lowered first, since Unicode
// lowering can change byte lengths.
func (t *sinkTable) presence(src string) []uint64 {
	if m, ok := t.scan(src, true); ok {
		return m
	}
	m, _ := t.scan(strings.ToLower(src), false)
	return m
}

// scan is presence's single pass over src. With fold set it lowers ASCII
// letters as it reads and gives up (ok == false) on reaching a non-ASCII
// byte. Each position is tested only against the tokens that start with
// its byte pair (or are that single byte), and the pass stops early once
// every token has been seen.
func (t *sinkTable) scan(src string, fold bool) (m []uint64, ok bool) {
	lower := &identityBytes
	if fold {
		lower = &asciiLower
	}
	m = make([]uint64, t.words)
	copy(m, t.always)
	missing := len(t.toks)
	for _, w := range m {
		missing -= bits.OnesCount64(w)
	}
	for i := 0; i < len(src) && missing > 0; i++ {
		if fold && src[i] >= utf8.RuneSelf {
			return nil, false
		}
		c := lower[src[i]]
		for _, k := range t.single[c] {
			if m[k/64]&(1<<(k%64)) == 0 {
				m[k/64] |= 1 << (k % 64)
				missing--
			}
		}
		if i+1 == len(src) {
			break
		}
		e := t.pairIdx[uint16(c)<<8|uint16(lower[src[i+1]])]
		if e == 0 {
			continue
		}
	next:
		for _, k := range t.pairToks[e-1] {
			if m[k/64]&(1<<(k%64)) != 0 {
				continue
			}
			tok := t.toks[k]
			if len(src)-i < len(tok) {
				continue
			}
			for j := 1; j < len(tok); j++ {
				if fold && src[i+j] >= utf8.RuneSelf {
					return nil, false
				}
				if lower[src[i+j]] != tok[j] {
					continue next
				}
			}
			m[k/64] |= 1 << (k % 64)
			missing--
		}
	}
	return m, true
}

// identityBytes and asciiLower map bytes to themselves and to their ASCII
// lower case.
var identityBytes, asciiLower [256]byte

func init() {
	for i := range identityBytes {
		identityBytes[i] = byte(i)
		asciiLower[i] = byte(i)
	}
	for c := 'A'; c <= 'Z'; c++ {
		asciiLower[c] = byte(c) + ('a' - 'A')
	}
}

// prefilter answers the sink pre-filter for one scan: per file, the mask of
// sink tokens present anywhere in its reachable closure.
type prefilter struct {
	tab   *sinkTable
	masks []uint64 // file i's closure mask at [i*words, (i+1)*words)
}

// newPrefilter ORs each file's memoized token mask over its closure.
func newPrefilter(tab *sinkTable, p *Project, reach [][]int) *prefilter {
	w := tab.words
	own := make([][]uint64, len(p.Files))
	for i, f := range p.Files {
		own[i] = f.sinkMask(tab)
	}
	masks := make([]uint64, len(p.Files)*w)
	for i, closure := range reach {
		dst := masks[i*w : (i+1)*w]
		for _, j := range closure {
			for k, x := range own[j] {
				dst[k] |= x
			}
		}
	}
	return &prefilter{tab: tab, masks: masks}
}

// sinkReachable reports whether any file in fileIdx's reachable closure
// lexically contains a sink token of the engine's classIdx-th class: if
// none does, the (file, class) task cannot produce a candidate and may be
// skipped.
func (pf *prefilter) sinkReachable(fileIdx, classIdx int) bool {
	w := pf.tab.words
	for k, x := range pf.tab.classMasks[classIdx] {
		if pf.masks[fileIdx*w+k]&x != 0 {
			return true
		}
	}
	return false
}

// fileClosures computes, per file index, the set of files reachable through
// the static call-name graph (self included): every file declaring a
// callable name that the closure's files mention. This is exactly the file
// set whose contents can influence a task on the root file — taint analysis
// resolves calls by name project-wide, so any file declaring a called name
// is reachable through inlining. Both the sink pre-filter and the
// incremental planner's closure fingerprints are built on it. Closures list
// files in breadth-first discovery order, visiting called names in sorted
// order, so the same project always yields the same closures.
func fileClosures(p *Project) [][]int {
	declIn := make(map[string][]int) // callable name -> declaring file indices
	called := make([][]string, len(p.Files))
	for i, f := range p.Files {
		called[i] = f.calledNames()
		for _, name := range declaredNames(f) {
			declIn[name] = append(declIn[name], i)
		}
	}
	reach := make([][]int, len(p.Files))
	// seen[j] == gen marks file j as already in the closure being built, so
	// one slice serves every root without clearing.
	seen := make([]uint32, len(p.Files))
	for i := range p.Files {
		gen := uint32(i + 1)
		seen[i] = gen
		closure := []int{i}
		for q := 0; q < len(closure); q++ {
			for _, name := range called[closure[q]] {
				for _, j := range declIn[name] {
					if seen[j] != gen {
						seen[j] = gen
						closure = append(closure, j)
					}
				}
			}
		}
		reach[i] = closure
	}
	return reach
}
