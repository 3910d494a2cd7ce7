package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"testing"
)

// TestDefaultPGOFresh guards the committed PGO profile (this package's, which
// bench/run.sh also builds the benchmark with): it is a readable gzipped
// pprof profile whose string table still names the current hot path. If the
// kernel, the engine or the pool's loop are renamed, the profile stops
// matching and must be regenerated with scripts/pgo_profile.sh — otherwise
// `go build` silently optimises for stale call sites.
func TestDefaultPGOFresh(t *testing.T) {
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
	for _, sym := range []string{
		"gentrius/internal/terrace",
		"splitCommonEdge",
		"AppendAllowedBranches",
		"gentrius/internal/search.(*Engine).Step",
		// A counting run answers most of its penultimate branches from the
		// Terrace's counts instead of inserting them.
		"gentrius/internal/search.(*Engine).lookAhead",
		"gentrius/internal/terrace.(*Terrace).CountAfter",
		// Stand trees are cut from the rendering of their final frame's shared
		// state into a block, and leave through FlushTrees.
		"gentrius/internal/search.(*Engine).renderFinal",
		"gentrius/internal/tree.(*NewickWriter).AppendWith",
		"gentrius/internal/search.(*Engine).FlushTrees",
		// The pool's loop reaches the engine through the shared worker.
		"gentrius/internal/search.(*Worker).Tick",
		"gentrius/internal/parallel.(*worker).execute",
	} {
		if !bytes.Contains(data, []byte(sym)) {
			t.Fatalf("default.pgo lacks hot symbol %q — stale profile, regenerate with scripts/pgo_profile.sh", sym)
		}
	}
}
