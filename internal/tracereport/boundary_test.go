package tracereport_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestNothingARunExecutesImportsTheReader pins the boundary: the library,
// the engine, both schedulers, the fleet and the daemon import internal/obs
// to write metrics and traces, and none of them may (outside tests) depend
// on this package or on internal/stats, which only report code uses.
func TestNothingARunExecutesImportsTheReader(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	// One line per package: its import path, then everything it links.
	out, err := exec.Command(goBin, "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`,
		"gentrius", "gentrius/internal/obs", "gentrius/internal/search",
		"gentrius/internal/parallel", "gentrius/internal/dist",
		"gentrius/internal/service").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 6 {
		t.Fatalf("go list printed %d packages, want 6:\n%s", len(lines), out)
	}
	for _, line := range lines {
		deps := strings.Fields(line)
		for _, dep := range deps[1:] {
			if dep == "gentrius/internal/tracereport" || dep == "gentrius/internal/stats" {
				t.Errorf("%s depends on %s", deps[0], dep)
			}
		}
	}
}
