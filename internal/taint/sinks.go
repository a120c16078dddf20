package taint

import (
	"fmt"
	"strings"

	"repro/internal/php/ast"
	"repro/internal/php/token"
	"repro/internal/vuln"
)

// Class dispatch and sink matching: the per-lane questions the fused
// evaluator asks of each analyzer's (ep, ss, san) configuration, plus the
// memo key for user-function summaries.

// serverKeySafe reports whether a $_SERVER cell is set by the server itself
// rather than derived from the request; unknown keys stay tainted.
func serverKeySafe(key string) bool {
	switch key {
	case "REMOTE_ADDR", "REMOTE_PORT", "SERVER_ADDR", "SERVER_PORT",
		"SERVER_SOFTWARE", "GATEWAY_INTERFACE", "DOCUMENT_ROOT",
		"SCRIPT_FILENAME", "SERVER_PROTOCOL", "REQUEST_TIME",
		"REQUEST_TIME_FLOAT":
		return true
	}
	return false
}

func (a *Analyzer) isEntryPointVar(name string) bool {
	if a.class.IsEntryPointVar(name) {
		return true
	}
	for _, ep := range a.cfg.ExtraEntryPoints {
		if ep == name {
			return true
		}
	}
	return false
}

func (a *Analyzer) isSanitizer(fn string) bool {
	if a.class.IsSanitizer(fn) {
		return true
	}
	for _, s := range a.cfg.ExtraSanitizers {
		if s == fn {
			return true
		}
	}
	return false
}

// allSinks returns the sinks of the class plus configured extras.
func (a *Analyzer) allSinks() []vuln.Sink {
	if len(a.cfg.ExtraSinks) == 0 {
		return a.class.Sinks
	}
	out := make([]vuln.Sink, 0, len(a.class.Sinks)+len(a.cfg.ExtraSinks))
	out = append(out, a.class.Sinks...)
	out = append(out, a.cfg.ExtraSinks...)
	return out
}

// memoKey builds the per-task memo key for calling fn with args: function
// identity plus the full content of every argument value. Keying on content
// (not just taint bits) makes memoization semantically transparent — a hit
// returns exactly what recomputing the body would — which both determinism
// under budget pressure and the shared cross-task cache rely on.
func memoKey(fn *ast.FunctionDecl, args []Value) string {
	var b strings.Builder
	b.WriteString(fn.Name)
	fmt.Fprintf(&b, "/%p", fn)
	allZero := true
	for _, v := range args {
		if !zeroValue(v) {
			allZero = false
			break
		}
	}
	if allZero {
		// Common case: every argument is clean and carries no metadata.
		fmt.Fprintf(&b, "/z%d", len(args))
		return b.String()
	}
	for _, v := range args {
		b.WriteByte('/')
		if v.Tainted {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
		// Node pointers are omitted: within one task, identical positions
		// imply identical nodes.
		for _, s := range v.Sources {
			fmt.Fprintf(&b, "|s%q@%s:%d:%d", s.Name, s.Pos.File, s.Pos.Line, s.Pos.Column)
		}
		for _, s := range v.Sanitizers {
			fmt.Fprintf(&b, "|n%q", s)
		}
		for _, st := range v.Trace {
			fmt.Fprintf(&b, "|t%q@%s:%d:%d", st.Desc, st.Pos.File, st.Pos.Line, st.Pos.Column)
		}
	}
	return b.String()
}

// checkCallSinks matches a call against the class sink list and reports a
// candidate for each tainted dangerous argument.
func (a *Analyzer) checkCallSinks(name string, method bool, recvName string, call ast.Node, argExprs []ast.Expr, args []Value, pos token.Position) {
	for _, s := range a.allSinks() {
		if s.Name != name || s.Method != method {
			continue
		}
		if s.Recv != "" && s.Recv != recvName {
			continue
		}
		idxs := s.Args
		if idxs == nil {
			idxs = make([]int, len(args))
			for i := range idxs {
				idxs[i] = i
			}
		}
		for _, i := range idxs {
			if i >= len(args) {
				continue
			}
			if !args[i].Tainted {
				continue
			}
			a.report(&Candidate{
				Class:         a.class.ID,
				SinkName:      name,
				SinkPos:       pos,
				SinkCall:      call,
				ArgIndex:      i,
				TaintedExpr:   argExprs[i],
				Value:         args[i],
				EnclosingFunc: a.curFunc,
				File:          a.fileName(),
			})
		}
	}
}

// checkPseudoSink reports candidates for language-construct sinks (echo,
// print, include).
func (a *Analyzer) checkPseudoSink(name string, node ast.Node, argExpr ast.Expr, v Value, pos token.Position) {
	if !v.Tainted {
		return
	}
	for _, s := range a.allSinks() {
		if s.Method || s.Name != name {
			continue
		}
		a.report(&Candidate{
			Class:         a.class.ID,
			SinkName:      name,
			SinkPos:       pos,
			SinkCall:      node,
			ArgIndex:      -1,
			TaintedExpr:   argExpr,
			Value:         v,
			EnclosingFunc: a.curFunc,
			File:          a.fileName(),
		})
		return
	}
}

// checkNamedSink matches exit/die-style named sinks used in expression form.
func (a *Analyzer) checkNamedSink(name string, node ast.Node, argExpr ast.Expr, v Value, argIdx int, pos token.Position) {
	if !v.Tainted {
		return
	}
	for _, s := range a.allSinks() {
		if s.Method || s.Name != name {
			continue
		}
		a.report(&Candidate{
			Class:         a.class.ID,
			SinkName:      name,
			SinkPos:       pos,
			SinkCall:      node,
			ArgIndex:      argIdx,
			TaintedExpr:   argExpr,
			Value:         v,
			EnclosingFunc: a.curFunc,
			File:          a.fileName(),
		})
		return
	}
}

func (a *Analyzer) fileName() string {
	if a.file != nil {
		return a.file.Name
	}
	return ""
}

// propagatesTaint reports whether a builtin passes input taint to its result
// (string manipulation functions).
func propagatesTaint(name string) bool {
	_, ok := taintThrough[name]
	return ok
}

// taintThrough is the set of PHP builtins that return data derived from
// their string inputs.
var taintThrough = map[string]struct{}{
	"substr": {}, "trim": {}, "ltrim": {}, "rtrim": {}, "strtolower": {},
	"strtoupper": {}, "ucfirst": {}, "ucwords": {}, "lcfirst": {},
	"str_replace": {}, "str_ireplace": {}, "preg_replace": {}, "ereg_replace": {},
	"eregi_replace": {}, "preg_filter": {}, "str_pad": {}, "str_repeat": {},
	"strrev": {}, "nl2br": {}, "wordwrap": {}, "sprintf": {}, "vsprintf": {},
	"implode": {}, "join": {}, "explode": {}, "split": {}, "spliti": {},
	"preg_split": {}, "str_split": {}, "chunk_split": {}, "substr_replace": {},
	"str_shuffle": {}, "strstr": {}, "stristr": {}, "strrchr": {}, "strtr": {},
	"stripslashes": {}, "stripcslashes": {}, "htmlspecialchars_decode": {},
	"html_entity_decode": {}, "urldecode": {}, "rawurldecode": {},
	"base64_decode": {}, "base64_encode": {}, "serialize": {}, "unserialize": {},
	"json_decode": {}, "array_merge": {}, "array_values": {}, "array_keys": {},
	"array_pop": {}, "array_shift": {}, "array_slice": {}, "array_map": {},
	"array_filter": {}, "current": {}, "reset": {}, "end": {}, "each": {},
	"compact": {}, "number_format": {}, "utf8_encode": {}, "utf8_decode": {},
	"iconv": {}, "mb_convert_encoding": {}, "mb_substr": {}, "mb_strtolower": {},
	"mb_strtoupper": {}, "addcslashes": {}, "quotemeta": {}, "strval": {},
	"print_r": {}, "var_export": {}, "gzinflate": {}, "gzuncompress": {},
	"pack": {}, "unpack": {}, "hex2bin": {}, "bin2hex": {},
}
