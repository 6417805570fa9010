package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestSelectFigures(t *testing.T) {
	all, err := selectFigures("all")
	if err != nil || len(all) != len(figures) {
		t.Fatalf(`selectFigures("all") = %d figures, %v; want %d`, len(all), err, len(figures))
	}
	for _, f := range figures {
		got, err := selectFigures(f.name)
		if err != nil || len(got) != 1 || got[0].name != f.name {
			t.Errorf("selectFigures(%q) = %v, %v", f.name, got, err)
		}
	}
	if got, err := selectFigures("drift"); err != nil || len(got) != 1 {
		t.Errorf(`selectFigures("drift") = %v, %v; want the workload-drift table`, got, err)
	}
	for _, name := range []string{"bogus", "scaling", "", "All"} {
		_, err := selectFigures(name)
		if err == nil {
			t.Errorf("selectFigures(%q) accepted an unknown figure", name)
			continue
		}
		if !strings.Contains(err.Error(), figureNames()) {
			t.Errorf("selectFigures(%q): %v does not list the valid names", name, err)
		}
	}
}

// TestUnknownFigureExitsTwo runs the command itself: an unknown -fig
// name is a usage error, so it prints the valid names and exits 2
// before any figure runs.
func TestUnknownFigureExitsTwo(t *testing.T) {
	if os.Getenv("P4ALLBENCH_RUN_MAIN") == "1" {
		os.Args = []string{"p4allbench", "-fig", "bogus"}
		main()
		os.Exit(0)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFigureExitsTwo$")
	cmd.Env = append(os.Environ(), "P4ALLBENCH_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("p4allbench -fig bogus: err %v, want exit status 2; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), figureNames()) || strings.Contains(string(out), "Figure") {
		t.Errorf("p4allbench -fig bogus printed:\n%s\nwant the valid names and no figure", out)
	}
}
