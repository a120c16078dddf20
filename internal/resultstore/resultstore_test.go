package resultstore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testSnapshot(project, digest string) *Snapshot {
	snap := NewSnapshot(project, digest)
	snap.Tasks["fp1"] = &TaskEntry{
		File: "a.php", Class: "sqli", Steps: 42,
		Findings: []Finding{{
			Class: "sqli", SinkName: "mysql_query",
			SinkPos:  Position{File: "a.php", Offset: 6, Line: 1, Column: 7},
			SinkCall: NodeRef{File: "a.php", Index: 3},
			ArgIndex: 0, TaintedExpr: NodeRef{File: "a.php", Index: 5},
			Value: Value{Tainted: true,
				Sources: []Source{{Name: "$_GET[id]", Pos: Position{File: "a.php", Line: 1}}},
				Trace:   []Step{{Pos: Position{File: "a.php", Line: 1}, Desc: "source", Node: NodeRef{Index: -1}}},
			},
			File: "a.php", PredictedFP: false, Votes: []bool{false, false, true},
		}},
	}
	snap.Tasks["fp2"] = &TaskEntry{File: "b.php", Class: "xss", Steps: 7}
	return snap
}

func TestRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("app", "digest-1")); err != nil {
		t.Fatal(err)
	}
	got, status := store.Load("app", "digest-1")
	if status != LoadHit {
		t.Fatalf("Load status = %s, want %s", status, LoadHit)
	}
	if len(got.Tasks) != 2 {
		t.Fatalf("round trip lost tasks: %d, want 2", len(got.Tasks))
	}
	e := got.Tasks["fp1"]
	if e == nil || e.Steps != 42 || len(e.Findings) != 1 {
		t.Fatalf("entry fp1 corrupted: %+v", e)
	}
	f := e.Findings[0]
	if f.SinkCall.Index != 3 || f.Value.Trace[0].Node.Index != -1 || !f.Value.Tainted {
		t.Errorf("finding fields lost in round trip: %+v", f)
	}
	// Zero-finding entries persist too: reuse must distinguish "analyzed,
	// clean" from "never analyzed".
	if e2 := got.Tasks["fp2"]; e2 == nil || len(e2.Findings) != 0 {
		t.Errorf("zero-finding entry lost: %+v", e2)
	}
}

func TestLoadFailureModes(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	if snap, status := store.Load("nope", "d"); snap != nil || status != LoadMiss {
		t.Errorf("missing snapshot: got (%v, %s), want (nil, %s)", snap, status, LoadMiss)
	}

	if err := store.Save(testSnapshot("app", "digest-1")); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "other-digest"); snap != nil || status != LoadDigestMismatch {
		t.Errorf("digest mismatch: got (%v, %s), want (nil, %s)", snap, status, LoadDigestMismatch)
	}

	bad := testSnapshot("app", "digest-1")
	bad.Version = FormatVersion + 1
	if err := store.Save(bad); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "digest-1"); snap != nil || status != LoadVersionMismatch {
		t.Errorf("version mismatch: got (%v, %s), want (nil, %s)", snap, status, LoadVersionMismatch)
	}

	if err := os.WriteFile(store.path("app"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, status := store.Load("app", "digest-1"); snap != nil || status != LoadCorrupt {
		t.Errorf("corrupt snapshot: got (%v, %s), want (nil, %s)", snap, status, LoadCorrupt)
	}
}

// TestSavePrunes pins the whole-snapshot write: a save drops every
// fingerprint not in the new snapshot, so stale entries cannot accumulate.
func TestSavePrunes(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(testSnapshot("app", "d")); err != nil {
		t.Fatal(err)
	}
	next := NewSnapshot("app", "d")
	next.Tasks["fp2"] = &TaskEntry{File: "b.php", Class: "xss"}
	if err := store.Save(next); err != nil {
		t.Fatal(err)
	}
	got, status := store.Load("app", "d")
	if status != LoadHit {
		t.Fatal(status)
	}
	if len(got.Tasks) != 1 || got.Tasks["fp2"] == nil {
		t.Errorf("stale entries survived the save: %v", got.Tasks)
	}
}

// TestHostileProjectNames pins the path hashing: project names with
// separators or traversal sequences stay inside the store directory.
func TestHostileProjectNames(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"../escape", "a/b/c", "..", strings.Repeat("x", 4096)} {
		if err := store.Save(NewSnapshot(name, "d")); err != nil {
			t.Fatalf("save %q: %v", name, err)
		}
		if _, status := store.Load(name, "d"); status != LoadHit {
			t.Errorf("load %q: %s", name, status)
		}
		p := store.path(name)
		if filepath.Dir(p) != dir {
			t.Errorf("project %q mapped outside the store: %s", name, p)
		}
	}
}

// TestEncodeMatchesMarshal pins the encoder's claim: the blob Save writes is
// byte-identical to json.Marshal of the snapshot, whether every entry is
// marshaled fresh, some are spliced from the previous save's bytes, or the
// previous save held entries the new one drops. Keys that json.Marshal
// escapes take the escaping path.
func TestEncodeMatchesMarshal(t *testing.T) {
	mem := NewMemBackend()
	store, err := OpenBackend(mem, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, snap *Snapshot) {
		t.Helper()
		if err := store.Save(snap); err != nil {
			t.Fatal(err)
		}
		got, err := mem.Get(context.Background(), store.key(snap.Project))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoded blob differs from json.Marshal:\ngot:  %s\nwant: %s", step, got, want)
		}
	}

	first := testSnapshot("app", "digest-1")
	first.Tasks["<fp&3>"] = &TaskEntry{File: "c.php", Class: "xss", Steps: 1}
	first.Tasks["e9 "] = &TaskEntry{File: "d.php", Class: "sqli", Steps: 2}
	check("fresh", first)

	// Reused entries are the same pointers, so their bytes are spliced.
	spliced := NewSnapshot("app", "digest-1")
	for fp, e := range first.Tasks {
		spliced.Tasks[fp] = e
	}
	spliced.Tasks["fp0"] = &TaskEntry{File: "z.php", Class: "sqli", Steps: 3}
	check("splice", spliced)

	dropped := NewSnapshot("app", "digest-1")
	dropped.Tasks["fp2"] = spliced.Tasks["fp2"]
	check("drop", dropped)

	check("empty", NewSnapshot("app", "digest-1"))
}
