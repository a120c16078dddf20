package taint

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/parser"
	"repro/internal/vuln"
)

// fusedDiffSrcs are the scenarios on which an N-lane pass must reproduce
// every lane's one-lane pass byte for byte: class-divergent sanitizers
// (which spill uniform cells to per-lane values), shared entry points,
// branch and switch joins over spilled cells, user functions with
// memoized/by-ref summaries, methods, closures and taint-transferring
// builtins.
var fusedDiffSrcs = map[string]string{
	"basic": `<?php
$id = $_GET['id'];
$q = "SELECT * FROM users WHERE id=" . $id;
mysql_query($q);
echo $_POST['msg'];
$safe = htmlentities($_GET['x']);
echo $safe;
mysql_query($safe);
print $_COOKIE['c'];
$cmd = $_REQUEST['cmd'];
system($cmd);
include($_GET['page']);
exit($_GET['bye']);
$addr = $_SERVER['REMOTE_ADDR'];
echo $addr;`,
	"sanitizer-divergence": `<?php
$a = $_GET['a'];
$h = htmlentities($a);
$s = mysql_real_escape_string($a);
$i = intval($a);
echo $h; echo $s; echo $i;
mysql_query($h); mysql_query($s); mysql_query($i);
system($h); system($s);
$mix = $h . $a;
echo $mix;
mysql_query($mix);`,
	"branches": `<?php
$a = $_GET['a'];
$b = htmlentities($a);
if ($a) { $c = $a; } else { $c = $b; }
echo $c;
mysql_query($c);
while ($i < 3) { $d = $d . $b; $i++; }
echo $d;
for ($i = 0; $i < 2; $i++) { $e = $a; $b = $e; }
echo $b;
foreach ($_POST as $k => $v) { echo $v; }`,
	"switch-kill": `<?php
$id = $_GET['id'];
switch ($mode) {
case "a": $id = intval($id); break;
case "b": $id = intval($id); break;
default: $id = 0; break;
}
mysql_query("SELECT * FROM t WHERE id=" . $id);
echo $id;
$x = $_GET['x'];
switch ($m2) {
case "a": $x = htmlentities($x); break;
default: $x = htmlentities($x); break;
}
echo $x;
mysql_query($x);`,
	"functions": `<?php
function wrap($s) { return "[" . $s . "]"; }
function clean2($s) { return htmlentities($s); }
function pick($a, $b = "dflt") { return $a . $b; }
function fill(&$out) { $out = $_GET['v']; }
$q = wrap($_GET['id']);
mysql_query($q);
echo $q;
mysql_query(wrap("safe"));
echo clean2($_GET['h']);
mysql_query(clean2($_GET['h']));
mysql_query(pick($_POST['p']));
fill($z);
mysql_query($z);
function deep($n) { return deep($n); }
echo deep($_GET['r']);
function uncalled() { echo $_GET['u']; system($_GET['u']); }`,
	"classes-closures": `<?php
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
echo $obj->prop;`,
	"builtins": `<?php
$t = $_GET['t'];
preg_match('/x/', $t, $mm);
mysql_query($mm);
parse_str($t, $ps);
echo $ps;
$s = sprintf("q=%s", $t);
mysql_query($s);
settype($t, "integer");
echo $t;
list($m, $n) = $_POST['arr'];
echo $m;
echo "interp $n done";
$arr = array("k" => $_GET['av']);
mysql_query($arr);`,
}

// laneState captures everything the engine consumes from one lane.
type laneState struct {
	cands   []string
	steps   int
	hits    int
	misses  int
	xfers   int
	pending []SummaryKey
}

func pendingKeys(ps []PendingSummary) []SummaryKey {
	out := make([]SummaryKey, len(ps))
	for i, p := range ps {
		out[i] = p.Key
	}
	return out
}

func sameKeys(a, b []SummaryKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func parseAndLower(t *testing.T, src string) (*ast.File, *ir.File) {
	t.Helper()
	f, errs := parser.Parse("test.php", src)
	if len(errs) > 0 {
		t.Fatalf("parse errors: %v", errs)
	}
	return f, ir.LowerFile(f)
}

// onePass runs cfg as a one-lane pass and captures the lane.
func onePass(f *ast.File, fir *ir.File, cfg Config) (laneState, *Analyzer) {
	a := New(cfg)
	cands := a.FileIR(f, fir, nil)
	return laneState{
		cands:   candDetails(cands),
		steps:   a.Steps(),
		hits:    a.SharedHits(),
		misses:  a.SharedMisses(),
		xfers:   a.TransferHits(),
		pending: pendingKeys(a.PendingShared()),
	}, a
}

// wantLanesEqualOnePasses runs every class over f as one-lane passes and
// as one N-lane pass, asserting every lane's state is byte-identical to its
// one-lane pass. It returns the total shared-cache hits seen.
func wantLanesEqualOnePasses(t *testing.T, f *ast.File, fir *ir.File, mkCfg func(cls *vuln.Class) Config) int {
	t.Helper()
	classes := vuln.All()

	want := make([]laneState, len(classes))
	for i, cls := range classes {
		var a *Analyzer
		want[i], a = onePass(f, fir, mkCfg(cls))
		if a.Exhausted() {
			t.Fatalf("[%s] one-lane pass exhausted; raise the test budget", cls.ID)
		}
	}

	cfgs := make([]Config, len(classes))
	for i, cls := range classes {
		cfgs[i] = mkCfg(cls)
	}
	fz := NewFused(cfgs)
	if !fz.FileIR(f, fir, nil) {
		t.Fatal("fused pass stopped early; expected clean completion")
	}
	hits := 0
	for i, cls := range classes {
		got := laneState{
			cands:   candDetails(fz.Candidates(i)),
			steps:   fz.Steps(i),
			hits:    fz.SharedHits(i),
			misses:  fz.SharedMisses(i),
			xfers:   fz.TransferHits(i),
			pending: pendingKeys(fz.PendingShared(i)),
		}
		hits += got.hits
		if strings.Join(got.cands, "\n") != strings.Join(want[i].cands, "\n") {
			t.Errorf("[%s] candidate divergence:\none-lane:\n  %s\nfused:\n  %s", cls.ID,
				strings.Join(want[i].cands, "\n  "), strings.Join(got.cands, "\n  "))
		}
		if got.steps != want[i].steps {
			t.Errorf("[%s] steps: one-lane %d, fused %d", cls.ID, want[i].steps, got.steps)
		}
		if got.hits != want[i].hits || got.misses != want[i].misses || got.xfers != want[i].xfers {
			t.Errorf("[%s] cache counters: one-lane hit=%d miss=%d xfer=%d, fused hit=%d miss=%d xfer=%d",
				cls.ID, want[i].hits, want[i].misses, want[i].xfers, got.hits, got.misses, got.xfers)
		}
		if !sameKeys(got.pending, want[i].pending) {
			t.Errorf("[%s] pending summaries: one-lane %v, fused %v", cls.ID, want[i].pending, got.pending)
		}
	}
	return hits
}

func TestFusedEquivAllClasses(t *testing.T) {
	for name, src := range fusedDiffSrcs {
		t.Run(name, func(t *testing.T) {
			f, fir := parseAndLower(t, src)
			wantLanesEqualOnePasses(t, f, fir, func(cls *vuln.Class) Config {
				return Config{Class: cls}
			})
		})
	}
}

// TestFusedEquivWithSharedCache pins per-lane shared-summary bookkeeping
// against a warm store: a first pass fills it, then hits, misses, transfer
// counts and pending fills of an N-lane pass must match the one-lane
// passes'. Each side reads its own copy of the same committed entries.
func TestFusedEquivWithSharedCache(t *testing.T) {
	total := 0
	for name, src := range fusedDiffSrcs {
		t.Run(name, func(t *testing.T) {
			f, fir := parseAndLower(t, src)
			oneShared, fusedShared := NewSharedSummaries(), NewSharedSummaries()
			for _, cls := range vuln.All() {
				a := New(Config{Class: cls, Shared: NewSharedSummaries()})
				a.FileIR(f, fir, nil)
				oneShared.Commit(a.PendingShared())
				fusedShared.Commit(a.PendingShared())
			}
			calls := 0
			total += wantLanesEqualOnePasses(t, f, fir, func(cls *vuln.Class) Config {
				// The one-lane configs are built first, then the fused
				// slice; each side gets its own store.
				calls++
				if calls <= len(vuln.All()) {
					return Config{Class: cls, Shared: oneShared}
				}
				return Config{Class: cls, Shared: fusedShared}
			})
		})
	}
	if total == 0 {
		t.Error("no shared-cache hits in any scenario; the warm store is not exercised")
	}
}

// TestFusedBudgetAbort sweeps the step budget: at every budget an N-lane
// pass must stop early exactly when one of its lanes' one-lane passes
// exhausts. An exhausted one-lane pass reports Exhausted, charges one step
// past the budget, and keeps a prefix of the unbounded candidate list.
func TestFusedBudgetAbort(t *testing.T) {
	f, fir := parseAndLower(t, fusedDiffSrcs["functions"])
	classes := vuln.All()

	full := make([][]string, len(classes))
	maxSteps := 0
	for i, cls := range classes {
		st, _ := onePass(f, fir, Config{Class: cls})
		full[i] = st.cands
		maxSteps = max(maxSteps, st.steps)
	}
	if maxSteps == 0 {
		t.Fatal("expected nonzero step counts")
	}

	for budget := 1; budget <= maxSteps; budget++ {
		cfgs := make([]Config, len(classes))
		anyExhausted := false
		for i, cls := range classes {
			cfgs[i] = Config{Class: cls, MaxSteps: budget}
			st, a := onePass(f, fir, cfgs[i])
			if !a.Exhausted() {
				continue
			}
			anyExhausted = true
			if a.Stopped() {
				t.Fatalf("budget %d [%s]: budget exhaustion reported as a stop", budget, cls.ID)
			}
			if st.steps != budget+1 {
				t.Fatalf("budget %d [%s]: exhausted pass counted %d steps, want %d", budget, cls.ID, st.steps, budget+1)
			}
			if len(st.cands) > len(full[i]) || strings.Join(st.cands, "\n") != strings.Join(full[i][:len(st.cands)], "\n") {
				t.Fatalf("budget %d [%s]: exhausted candidates are not a prefix of the full run:\n  %s",
					budget, cls.ID, strings.Join(st.cands, "\n  "))
			}
		}
		completed := NewFused(cfgs).FileIR(f, fir, nil)
		if completed == anyExhausted {
			t.Fatalf("budget %d: fused pass completed=%v, but some lane exhausts=%v", budget, completed, anyExhausted)
		}
	}
	if !NewFused([]Config{{Class: classes[0], MaxSteps: maxSteps}}).FileIR(f, fir, nil) {
		t.Errorf("pass stopped at budget %d, where every lane completes", maxSteps)
	}
}

// TestOneLaneStopKeepsPrefix: a pre-set cooperative stop flag ends a
// one-lane pass at its first poll, marking it Stopped and Exhausted.
func TestOneLaneStopKeepsPrefix(t *testing.T) {
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < 200; i++ {
		b.WriteString("mysql_query($_GET['q']);\n")
	}
	f, fir := parseAndLower(t, b.String())
	stop := new(atomic.Bool)
	stop.Store(true)
	a := New(Config{Class: vuln.MustGet(vuln.SQLI), Stop: stop})
	cands := a.FileIR(f, fir, nil)
	if !a.Stopped() || !a.Exhausted() {
		t.Fatalf("stopped=%v exhausted=%v, want both", a.Stopped(), a.Exhausted())
	}
	if len(cands) == 0 || len(cands) >= 200 {
		t.Fatalf("stopped pass kept %d candidates, want a non-empty strict prefix of 200", len(cands))
	}
}
