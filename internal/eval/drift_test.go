package eval

import (
	"os"
	"testing"
)

// TestFigureDriftRecovery is the drift acceptance story: after the
// skew step the frozen layout's hit rate stays depressed while the
// elastic controller re-solves (warm-started), certifies, migrates,
// and recovers. testdata/drift.golden pins the whole trajectory —
// every window's hit rates, action and epoch, and the re-solve and
// adoption counts — to the byte, so a change that moves what the loop
// adopts shows up here before it shows up in `netcachesim -drift`.
func TestFigureDriftRecovery(t *testing.T) {
	res, err := FigureDrift(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := FormatDrift(res)
	want, err := os.ReadFile("testdata/drift.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("drift trajectory moved from testdata/drift.golden:\n--- got\n%s--- want\n%s", got, want)
	}
	for _, pt := range res.Points {
		if pt.Action == "adopted" && (pt.Certificate == nil || !pt.Certificate.Proved()) {
			t.Errorf("window %d adopted a layout without a proved certificate: %+v", pt.Window, pt.Certificate)
		}
	}
	if res.Adoptions < 1 {
		t.Fatalf("controller never adopted a new layout (%d re-solves)", res.Resolves)
	}
	if !res.AllWarm {
		t.Error("a re-solve ran cold; warm starts must carry across windows")
	}
	if res.ElasticSteady <= res.FrozenSteady {
		t.Errorf("elastic steady-state %.3f not above frozen %.3f",
			res.ElasticSteady, res.FrozenSteady)
	}
	if res.ElasticKVItems <= res.FrozenKVItems {
		t.Errorf("flat phase did not grow the KV store: frozen %d vs elastic %d items",
			res.FrozenKVItems, res.ElasticKVItems)
	}
}
