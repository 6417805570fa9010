package p4all_test

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets vets the benchmark (bench/). It is a module of its
// own, so `go build ./... && go test ./...` at the root never compiles
// it: a change that deletes or re-signs a symbol the benchmark reads
// fails here, not only in `make bench-smoke`.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the bench module: skipped under -short")
	}
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go command to vet bench/ with: %v", err)
	}
	cmd := exec.Command(gobin, "vet", "./...")
	cmd.Dir = "bench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
