package main

import (
	"bytes"
	"compress/gzip"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hotSymbols are the functions the committed profile must name, spelled as
// pprof spells them: import path, then the function or (*Type).Method.
var hotSymbols = []string{
	"gentrius/internal/terrace.(*Terrace).splitCommonEdge",
	"gentrius/internal/terrace.(*Terrace).AppendAllowedBranches",
	"gentrius/internal/search.(*Engine).Step",
	// A counting run answers most of its penultimate branches from the
	// Terrace's counts instead of inserting them, and books the insertions
	// that restructure nothing on the Terrace's overlay.
	"gentrius/internal/search.(*Engine).lookAhead",
	"gentrius/internal/terrace.(*Overlay).Restructures",
	"gentrius/internal/terrace.(*Overlay).Book",
	// Where no check or flush falls inside, it takes the booked subtree of a
	// third-to-last taxon in one step.
	"gentrius/internal/search.(*Engine).whole",
	// Stand trees are cut from the rendering of their final frame's shared
	// state into a block, and leave through FlushTrees.
	"gentrius/internal/search.(*Engine).renderFinal",
	"gentrius/internal/tree.(*NewickWriter).AppendWith",
	"gentrius/internal/search.(*Engine).FlushTrees",
	// The pool's loop reaches the engine through the shared worker.
	"gentrius/internal/search.(*Worker).Tick",
	"gentrius/internal/parallel.(*poolWorker).execute",
}

// TestDefaultPGOFresh guards the committed PGO profile (this package's, which
// bench/run.sh also builds the benchmark with): it is a readable gzipped
// pprof profile whose string table names every one of hotSymbols, and each
// of them is declared in the current source. If the kernel, the engine or
// the pool's loop are renamed, the list must follow the source and the
// profile must be regenerated with scripts/pgo_profile.sh — otherwise
// `go build` silently optimises for stale call sites.
func TestDefaultPGOFresh(t *testing.T) {
	for _, sym := range hotSymbols {
		if !declared(t, sym) {
			t.Fatalf("hot symbol %q is not declared in the source: name the current function and regenerate default.pgo with scripts/pgo_profile.sh", sym)
		}
	}
	raw, err := os.ReadFile("default.pgo")
	if err != nil {
		t.Fatalf("default.pgo unreadable (regenerate with scripts/pgo_profile.sh): %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("default.pgo is not gzipped pprof: %v", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("default.pgo decompress: %v", err)
	}
	// The pprof string table stores function names as plain bytes: the hot
	// symbols of the current code must appear, or the profile predates them.
	for _, sym := range hotSymbols {
		if !bytes.Contains(data, []byte(sym)) {
			t.Fatalf("default.pgo lacks hot symbol %q — stale profile, regenerate with scripts/pgo_profile.sh", sym)
		}
	}
}

// declared reports whether the non-test source of sym's package, in this
// module, declares the function or method sym names.
func declared(t *testing.T, sym string) bool {
	t.Helper()
	slash := strings.LastIndex(sym, "/")
	dot := slash + strings.Index(sym[slash:], ".")
	pkg, name := sym[:dot], sym[dot+1:]
	dir, ok := strings.CutPrefix(pkg, "gentrius/")
	if !ok {
		t.Fatalf("hot symbol %q is outside module gentrius", sym)
	}
	files, err := filepath.Glob(filepath.Join("..", "..", dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("hot symbol %q: no source for package %s", sym, pkg)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && funcName(fd) == name {
				return true
			}
		}
	}
	return false
}

// funcName spells a declaration as pprof does after the import path: F,
// T.M or (*T).M.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	switch rt := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := rt.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fd.Name.Name
		}
	case *ast.Ident:
		return rt.Name + "." + fd.Name.Name
	}
	return ""
}
