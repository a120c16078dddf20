package taint

// Pinned candidate lists. Each source below once compared the AST walker
// with the IR evaluator class by class; the expected candidates, at full
// fidelity, were recorded from the IR evaluator before the walker was
// retired and now live in testdata/pins/<Test>.json. The two engines agreed
// on every source except the documented exhaustive-switch sanitizer kill
// (TestIRSwitchDominatingSanitizerKillsFlow), whose pin is the IR result.
//
// Regenerate only for an intentional output change, and review the diff:
//
//	go test ./internal/taint -run 'TestIR' -update-pins

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/php/parser"
	"repro/internal/vuln"
)

var updatePins = flag.Bool("update-pins", false, "rewrite internal/taint/testdata/pins from the current engine")

// candDetail renders a candidate with everything the report layer consumes,
// so pins are checked at full fidelity, not just sink names.
func candDetail(c *Candidate) string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s@%s arg=%d fn=%q file=%q", c.Class, c.SinkName, c.SinkPos, c.ArgIndex, c.EnclosingFunc, c.File)
	for _, s := range c.Value.Sources {
		fmt.Fprintf(&b, " src=%s@%s", s.Name, s.Pos)
	}
	for _, s := range c.Value.Trace {
		fmt.Fprintf(&b, " step=%q@%s", s.Desc, s.Pos)
	}
	for _, s := range c.Value.Sanitizers {
		fmt.Fprintf(&b, " san=%s", s)
	}
	return b.String()
}

func candDetails(cands []*Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = candDetail(c)
	}
	return out
}

// wantPinned analyzes src once per class and compares each candidate list
// with the test's pin file. Both entry points are checked: File (which
// lowers on demand) and FileIR over an explicit lowering.
func wantPinned(t *testing.T, classes []*vuln.Class, mk func(*vuln.Class) Config, src string) {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	fir := ir.LowerFile(f)
	path := filepath.Join("testdata", "pins", t.Name()+".json")
	if *updatePins {
		got := make(map[string][]string, len(classes))
		for _, cls := range classes {
			got[string(cls.ID)] = candDetails(New(mk(cls)).FileIR(f, fir, nil))
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-pins)", err)
	}
	var want map[string][]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	check := func(t *testing.T, cls *vuln.Class) {
		t.Helper()
		pin := strings.Join(want[string(cls.ID)], "\n  ")
		for entry, cands := range map[string][]*Candidate{
			"File":   New(mk(cls)).File(f),
			"FileIR": New(mk(cls)).FileIR(f, fir, nil),
		} {
			if got := strings.Join(candDetails(cands), "\n  "); got != pin {
				t.Errorf("%s diverges from %s:\ngot:\n  %s\npinned:\n  %s", entry, path, got, pin)
			}
		}
	}
	if len(classes) == 1 {
		check(t, classes[0])
		return
	}
	for _, cls := range classes {
		cls := cls
		t.Run(string(cls.ID), func(t *testing.T) { check(t, cls) })
	}
}

func wantPinnedAllClasses(t *testing.T, src string) {
	t.Helper()
	wantPinned(t, vuln.All(), func(cls *vuln.Class) Config { return Config{Class: cls} }, src)
}

func wantPinnedSQLI(t *testing.T, src string) []*Candidate {
	t.Helper()
	sqli := vuln.MustGet(vuln.SQLI)
	wantPinned(t, []*vuln.Class{sqli}, func(cls *vuln.Class) Config { return Config{Class: cls} }, src)
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return New(Config{Class: sqli}).File(f)
}

func TestIREquivBasicFlows(t *testing.T) {
	wantPinnedAllClasses(t, `<?php
$id = $_GET['id'];
$q = "SELECT * FROM users WHERE id=" . $id;
mysql_query($q);
echo $_POST['msg'];
$safe = htmlentities($_GET['x']);
echo $safe;
print $_COOKIE['c'];
$cmd = $_REQUEST['cmd'];
system($cmd);
include($_GET['page']);
exit($_GET['bye']);
$addr = $_SERVER['REMOTE_ADDR'];
echo $addr;
$agent = $_SERVER['HTTP_USER_AGENT'];
echo $agent;`)
}

func TestIREquivBranchesAndLoops(t *testing.T) {
	wantPinnedAllClasses(t, `<?php
$a = $_GET['a'];
if ($a) { $b = $a; } else { $b = "x"; }
mysql_query($b);
while ($i < 3) { $c = $c . $a; $i++; }
mysql_query($c);
do { $d .= $a; } while ($d);
echo $d;
for ($i = 0; $i < 2; $i++) { $e = $a; }
echo $e;
foreach ($_POST as $k => $v) { echo $v; }
$f = $a ?: "z";
$g = $a ? $a : "w";
echo $f; echo $g;
$h = $a ?? "q";
echo $h;`)
}

func TestIREquivSwitchNoDefault(t *testing.T) {
	// Without a default arm the switch join keeps every arm's taint.
	wantPinnedAllClasses(t, `<?php
$x = $_GET['x'];
switch ($x) {
case 1: $y = $x; break;
case 2: $y = "two"; break;
}
mysql_query($y);`)
}

func TestIREquivFunctionsAndSummaries(t *testing.T) {
	wantPinnedAllClasses(t, `<?php
function wrap($s) { return "[" . $s . "]"; }
function pick($a, $b = "dflt") { return $a . $b; }
function fill(&$out) { $out = $_GET['v']; }
$q = wrap($_GET['id']);
mysql_query($q);
mysql_query(wrap("safe"));
mysql_query(pick($_POST['p']));
fill($z);
mysql_query($z);
function deep($n) { return deep($n); }
echo deep($_GET['r']);`)
}

func TestIREquivClassesAndClosures(t *testing.T) {
	wantPinnedAllClasses(t, `<?php
class DB {
	function run($q) { mysql_query($q); }
	static function quote($s) { return "'" . $s . "'"; }
}
$db = new DB();
$db->run($_GET['q']);
mysql_query(DB::quote($_GET['w']));
$fn = function ($p) use ($db) { echo $_GET['cl']; };
$fn("x");
$obj->prop = $_GET['pp'];
echo $obj->prop;`)
}

func TestIREquivMiscStatements(t *testing.T) {
	wantPinnedAllClasses(t, `<?php
$t = $_GET['t'];
try { $u = $t; } catch (Exception $e) { echo $e; } finally { echo $u; }
list($m, $n) = $_POST['arr'];
echo $m;
preg_match('/x/', $t, $mm);
mysql_query($mm);
parse_str($t, $ps);
echo $ps;
$s = sprintf("q=%s", $t);
mysql_query($s);
unset($t);
echo $t;
global $gv;
static $sv = "s";
echo "interp $n done";
$arr = array("k" => $_GET['av']);
mysql_query($arr);
$w = (int)$_GET['cast'];
mysql_query($w);
$x = (string)$_GET['cast2'];
mysql_query($x);`)
}

func TestIREquivStepBudget(t *testing.T) {
	// A generous budget the pass completes within leaves the findings
	// unchanged.
	wantPinned(t, []*vuln.Class{vuln.MustGet(vuln.SQLI)}, func(cls *vuln.Class) Config {
		return Config{Class: cls, MaxSteps: 100000}
	}, `<?php
$a = $_GET['a'];
for ($i = 0; $i < 3; $i++) { $b = $b . $a; }
mysql_query($b);`)
}

// TestIRSwitchDominatingSanitizerKillsFlow pins the path-sensitive switch
// join: a sanitizer on every arm of an exhaustive switch kills the flow
// (the retired AST walker reported it as a false positive).
func TestIRSwitchDominatingSanitizerKillsFlow(t *testing.T) {
	cands := wantPinnedSQLI(t, `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
default: $id = 0; break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	if !*updatePins {
		wantCount(t, cands, 0)
	}
}

// TestIRSwitchPartialSanitizerKeepsFlow: a sanitizer on only one arm must
// not kill the flow.
func TestIRSwitchPartialSanitizerKeepsFlow(t *testing.T) {
	cands := wantPinnedSQLI(t, `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
default: break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	wantCount(t, cands, 1)
}

// TestIRSwitchNoDefaultKeepsFlow: without a default the arm set is not
// exhaustive, so even all-arms sanitization must not kill the flow.
func TestIRSwitchNoDefaultKeepsFlow(t *testing.T) {
	cands := wantPinnedSQLI(t, `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);`)
	wantCount(t, cands, 1)
}

func TestIRTransferHits(t *testing.T) {
	src := `<?php
function wrap($s) { return "[" . $s . "]"; }
echo wrap("x");
echo wrap("y");`
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	a := New(Config{Class: vuln.MustGet(vuln.SQLI)})
	a.FileIR(f, ir.LowerFile(f), nil)
	if a.TransferHits() == 0 {
		t.Fatal("expected at least one summary transfer-function hit")
	}
}
