package corpus

// GroupBranch marks spots planted by BranchSanitizerApp. Like dry-run apps
// they are engine proof workloads, not part of the paper's benchmark corpus.
const GroupBranch Group = "Branch"

// BranchSanitizerApp generates the branch-sensitivity proof workload: flows
// whose verdict depends on whether a sanitizer dominates every path to the
// sink.
//
//   - kill.php sanitizes on every arm of an exhaustive switch (a default arm
//     is present): the flow is dead, but an order-insensitive join would
//     still report it. The path-sensitive switch join kills it, pinned by
//     the golden reports.
//   - keep.php sanitizes on only one arm, and also uses an all-arms
//     sanitizer under a switch WITHOUT a default: both flows are live and
//     must be reported.
func BranchSanitizerApp() *App {
	return &App{
		Name:    "branch-sanitizer",
		Version: "0",
		Files: map[string]string{
			"kill.php": `<?php
// Every arm of an exhaustive switch sanitizes $id before the sink.
$id = $_GET['id'];
switch ($mode) {
case "num":
	$id = intval($id);
	break;
case "hex":
	$id = intval($id, 16);
	break;
default:
	$id = 0;
	break;
}
mysql_query("SELECT * FROM items WHERE id=" . $id);
`,
			"keep.php": `<?php
// Sanitized on one arm only: the tainted default arm survives the join.
$a = $_GET['a'];
switch ($mode) {
case "num":
	$a = intval($a);
	break;
default:
	break;
}
mysql_query("SELECT * FROM items WHERE a=" . $a);
// All arms sanitize, but without a default the arm set is not exhaustive.
$b = $_GET['b'];
switch ($mode) {
case "num":
	$b = intval($b);
	break;
case "hex":
	$b = intval($b, 16);
	break;
}
mysql_query("SELECT * FROM items WHERE b=" . $b);
`,
		},
		Spots: []Spot{
			// The kill.php flow is sanitized on every path: not a real
			// vulnerability, flagged only by a path-insensitive join.
			{Group: GroupBranch, File: "kill.php", StartLine: 2, EndLine: 15, Vulnerable: false, FP: FPCustomSanitizer},
			{Group: GroupBranch, File: "keep.php", StartLine: 2, EndLine: 10, Vulnerable: true},
			{Group: GroupBranch, File: "keep.php", StartLine: 11, EndLine: 21, Vulnerable: true},
		},
	}
}
