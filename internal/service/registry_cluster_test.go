package service

import (
	"os"
	"path/filepath"
	"testing"
)

// TestPutAtHighestWins pins the replication-apply rule the cluster layer
// relies on: a newer generation replaces, an older one is refused, and an
// equal generation is broken deterministically by comparing the raw JSON —
// so every member converges on one artifact regardless of arrival order.
func TestPutAtHighestWins(t *testing.T) {
	r := NewRegistry("")
	a := SyntheticModel(16, 300)
	b := SyntheticModel(16, 400)

	applied, err := r.PutAt("m", a, 5)
	if err != nil || !applied {
		t.Fatalf("initial PutAt: applied=%v err=%v", applied, err)
	}
	if applied, _ = r.PutAt("m", b, 3); applied {
		t.Fatal("stale generation 3 applied over 5")
	}
	if applied, _ = r.PutAt("m", b, 7); !applied {
		t.Fatal("newer generation 7 refused")
	}
	m, err := r.Get("m")
	if err != nil || m.Gen != 7 {
		t.Fatalf("after PutAt(7): gen=%d err=%v", m.Gen, err)
	}

	// Equal generation: the winner is whichever raw JSON compares higher,
	// applied symmetrically on both sides of the conflict.
	araw, _ := a.MarshalJSON()
	curRaw := m.Raw
	applied, err = r.PutAt("m", a, 7)
	if err != nil {
		t.Fatal(err)
	}
	wantApplied := string(araw) > string(curRaw)
	if applied != wantApplied {
		t.Fatalf("equal-gen tiebreak applied=%v, want %v", applied, wantApplied)
	}

	// Local Put must assign a generation above anything seen from peers.
	nm, err := r.Put("m", a)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Gen <= 7 {
		t.Fatalf("local Put assigned gen %d, must exceed replicated gen 7", nm.Gen)
	}
}

// TestSnapshotAndGenPersistence: Snapshot lists (id, gen) sorted; the .gen
// sidecar preserves cluster-wide generations across a restart, so a
// restarted member neither regresses generations nor invalidates cache
// keys; Delete removes the sidecar too.
func TestSnapshotAndGenPersistence(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry(dir)
	if _, err := r.PutAt("b", SyntheticModel(8, 200), 12); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PutAt("a", SyntheticModel(8, 250), 4); err != nil {
		t.Fatal(err)
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].ID != "a" || snap[0].Gen != 4 || snap[1].ID != "b" || snap[1].Gen != 12 {
		t.Fatalf("snapshot %v", snap)
	}

	r2 := NewRegistry(dir)
	if _, err := r2.Load(); err != nil {
		t.Fatal(err)
	}
	m, err := r2.Get("b")
	if err != nil || m.Gen != 12 {
		t.Fatalf("gen sidecar not honoured on load: gen=%d err=%v", m.Gen, err)
	}
	// New registrations must start above the highest persisted generation.
	nm, err := r2.Put("c", SyntheticModel(8, 100))
	if err != nil {
		t.Fatal(err)
	}
	if nm.Gen <= 12 {
		t.Fatalf("post-load Put assigned gen %d, want > 12", nm.Gen)
	}

	if err := r2.Delete("b"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"b.json", "b.gen"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s still present after delete (err=%v)", name, err)
		}
	}
}
