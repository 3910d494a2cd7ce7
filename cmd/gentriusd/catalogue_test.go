package main

import (
	"bytes"
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gentrius/internal/obs"
	"gentrius/internal/service"
)

const (
	repoRoot  = "../../"
	catalogue = repoRoot + "internal/obs/CATALOGUE.md"
)

var (
	catalogueRow = regexp.MustCompile("^\\| `([^`]+)` \\|(.*)\\|$")
	repoPath     = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.(?:go|sh|md))`")
	sampleLine   = regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{([^}]*)\})? `)
	labelName    = regexp.MustCompile(`([a-z_]+)="`)
)

// readCatalogue returns the rows under "## <section>", name → the other
// cells. A row must name who emits the signal (second-to-last cell) and who
// reads it (last cell): every file a reader cell names must exist, one of them
// must be code, a script or a test (README.md alone is no reader), and a row
// read by README.md must be named in README.md.
func readCatalogue(t *testing.T, section string) map[string][]string {
	t.Helper()
	data, err := os.ReadFile(catalogue)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile(repoRoot + "README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows, in := map[string][]string{}, false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## "+section
		}
		m := catalogueRow.FindStringSubmatch(line)
		if !in || m == nil {
			continue
		}
		name, cells := m[1], strings.Split(m[2], "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if _, dup := rows[name]; dup {
			t.Errorf("%s: listed twice", name)
		}
		rows[name] = cells
		emitter, reader := cells[len(cells)-2], cells[len(cells)-1]
		files := repoPath.FindAllStringSubmatch(reader, -1)
		if emitter == "" || len(files) == 0 {
			t.Errorf("%s: a row names its emitting layer and a reader that is a file of the repository", name)
		}
		inCode := false
		for _, f := range files {
			inCode = inCode || !strings.HasSuffix(f[1], ".md")
			if _, err := os.Stat(filepath.Join(repoRoot, f[1])); err != nil {
				t.Errorf("%s: reader %s: %v", name, f[1], err)
			}
			if f[1] == "README.md" && !bytes.Contains(readme, []byte("`"+name+"`")) &&
				!bytes.Contains(readme, []byte("`"+name+"{")) {
				t.Errorf("%s: said to be read from README.md, which does not name it", name)
			}
		}
		if len(files) > 0 && !inCode {
			t.Errorf("%s: no program, script or test reads it: give it a reader in code or delete it", name)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("%s has no rows under %q", catalogue, section)
	}
	return rows
}

// TestCatalogue compares internal/obs/CATALOGUE.md with what the daemon can
// emit, in both directions: the metric families its constructors register
// (type and label names included) and the Ev* constants of internal/obs,
// each read by the code and scripts its row names.
func TestCatalogue(t *testing.T) {
	t.Run("metrics", func(t *testing.T) {
		reg := obs.NewRegistry()
		metrics, _, _ := registerMetrics(reg, 1)
		mgr, err := service.New(service.Config{DataDir: t.TempDir(), Metrics: metrics})
		if err != nil {
			t.Fatal(err)
		}
		defer mgr.Shutdown(context.Background()) //nolint:errcheck // no jobs to wait for
		// A route's families are registered by its first request.
		mgr.Middleware().Wrap("probe", func(http.ResponseWriter, *http.Request) {}).
			ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/probe", nil))

		var expo bytes.Buffer
		reg.WritePrometheus(&expo)
		types, labels := map[string]string{}, map[string]map[string]bool{}
		for _, line := range strings.Split(expo.String(), "\n") {
			if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
				types[f[2]], labels[f[2]] = f[3], map[string]bool{}
				continue
			}
			m := sampleLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			fam := m[1]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base := strings.TrimSuffix(fam, suffix); types[base] == "histogram" {
					fam = base
				}
			}
			for _, l := range labelName.FindAllStringSubmatch(m[2], -1) {
				if l[1] != "le" {
					labels[fam][l[1]] = true
				}
			}
		}

		listed := readCatalogue(t, "Metrics")
		for fam, cells := range listed {
			if len(cells) != 4 {
				t.Errorf("%s: %d cells after the name, want type, labels, emitted by, read by", fam, len(cells))
				continue
			}
			if types[fam] == "" {
				t.Errorf("%s: listed, and no constructor of cmd/gentriusd registers it", fam)
				continue
			}
			var have []string
			for l := range labels[fam] {
				have = append(have, l)
			}
			sort.Strings(have)
			want := strings.Split(strings.ReplaceAll(cells[1], " ", ""), ",")
			sort.Strings(want)
			if cells[0] != types[fam] || strings.Join(want, ",") != strings.Join(have, ",") {
				t.Errorf("%s: listed as %s{%s}, registered as %s{%s}",
					fam, cells[0], cells[1], types[fam], strings.Join(have, ","))
			}
		}
		for fam := range types {
			if listed[fam] == nil {
				t.Errorf("%s: registered by cmd/gentriusd and not listed in %s", fam, catalogue)
			}
		}
	})

	t.Run("events", func(t *testing.T) {
		file, err := parser.ParseFile(token.NewFileSet(), repoRoot+"internal/obs/trace.go", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		consts := map[string]string{} // event name → Ev* constant
		ast.Inspect(file, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, id := range spec.Names {
				if !strings.HasPrefix(id.Name, "Ev") || i >= len(spec.Values) {
					continue
				}
				if lit, ok := spec.Values[i].(*ast.BasicLit); ok {
					name, _ := strconv.Unquote(lit.Value)
					consts[name] = id.Name
				}
			}
			return false
		})
		if len(consts) == 0 {
			t.Fatal("no Ev* constants found in internal/obs/trace.go")
		}
		// A reader in code or a script names the event: its Ev* constant or
		// its quoted name.
		listed := readCatalogue(t, "Trace events")
		for ev, cells := range listed {
			id := consts[ev]
			if id == "" {
				t.Errorf("%s: listed, and internal/obs/trace.go has no such event", ev)
				continue
			}
			for _, f := range repoPath.FindAllStringSubmatch(cells[len(cells)-1], -1) {
				src, err := os.ReadFile(filepath.Join(repoRoot, f[1]))
				if strings.HasSuffix(f[1], ".md") || err != nil {
					continue // prose, or a missing file readCatalogue reported
				}
				if !bytes.Contains(src, []byte("obs."+id)) && !bytes.Contains(src, []byte(`"`+ev+`"`)) {
					t.Errorf("%s: read by %s, which names neither obs.%s nor %q", ev, f[1], id, ev)
				}
			}
		}
		for ev, id := range consts {
			if listed[ev] == nil {
				t.Errorf("%s (obs.%s): an event of internal/obs/trace.go that %s does not list", ev, id, catalogue)
			}
		}
	})
}
