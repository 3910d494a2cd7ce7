package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"gentrius/internal/dist"
	"gentrius/internal/faultinject"
	"gentrius/internal/gen"
	"gentrius/internal/search"
	"gentrius/internal/tree"
)

// encoderLines are lines a quoted label can make: every character class
// json.Encoder escapes, next to plain lines.
var encoderLines = []string{
	"((A,B),(C,D));",
	`(('a "b"',c),('d\e',f));`,
	"(('<x>',y),('p&q',r));",
	"(('li\u2028ne',s),('par\u2029a',t));",
	"(('bad\xffutf8',u),('\xc3',v));",
	"(('tab\there',w),('del\x7f',x));",
	"(('héllo',y),('日本',z));",
	"(('quoted", "newline',a),(b,c));", // a raw newline in a label is two spool lines
	"",
}

// encodeLines is the oracle of the tree stream: what json.Encoder writes for
// treeLine{line}, line by line, for a chunk of newline-terminated lines.
func encodeLines(t testing.TB, chunk []byte) []byte {
	t.Helper()
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, line := range bytes.SplitAfter(chunk, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if err := enc.Encode(treeLine{Tree: string(line[:len(line)-1])}); err != nil {
			t.Fatal(err)
		}
	}
	return want.Bytes()
}

// TestTreeRecordsMatchJSONEncoder: the records handleTrees builds are, byte
// for byte, what json.Encoder wrote for each line when it encoded them one
// by one — whatever a quoted label holds.
func TestTreeRecordsMatchJSONEncoder(t *testing.T) {
	chunk := []byte(strings.Join(encoderLines, "\n") + "\n")
	want := "kept:" + string(encodeLines(t, chunk))
	if got := appendTreeRecords([]byte("kept:"), chunk, false); string(got) != want {
		t.Fatalf("records differ from json.Encoder's:\n got %q\nwant %q", got, want)
	}
}

// TestTreeRecordsEveryByte puts every byte value at every offset 0-31 of
// plain lines of 0-40 bytes, so that it falls in every lane of a word, in a
// whole word and in the padded tail: escapeIndex must find it exactly where
// json.Encoder would escape it, and the records must be the encoder's, framed
// without a scan too where the byte is not escaped. And a universe one label
// of which holds the byte is plain exactly when the encoder leaves the byte
// alone, it is ASCII and it is not a newline.
func TestTreeRecordsEveryByte(t *testing.T) {
	var escaped [256]bool // what json.Encoder does to each byte alone
	for c := range escaped {
		rec, err := json.Marshal(string([]byte{byte(c)}))
		if err != nil {
			t.Fatal(err)
		}
		escaped[c] = len(rec) != 3 && c != '\n'
	}
	for c := range escaped {
		label := string([]byte{'l', byte(c), 'x'})
		want := !escaped[c] && c < 0x80 && c != '\n'
		if got := plainLabels(tree.MustTaxa([]string{"A", label, "B"})); got != want {
			t.Fatalf("byte %#x: a universe with the label %q is plain %v, want %v", c, label, got, want)
		}
	}
	var recs []byte
	for n := 0; n <= 40; n++ {
		for off := 0; off < min(n, 32); off++ {
			for c := range escaped {
				line := bytes.Repeat([]byte("(x,"), n/3+1)[:n]
				line[off] = byte(c)
				want := len(line)
				if escaped[c] {
					want = off
				}
				if got := escapeIndex(line); got != want {
					t.Fatalf("byte %#x at %d of %q: escapeIndex %d, want %d", c, off, line, got, want)
				}
				chunk := append(line, '\n')
				recs = appendTreeRecords(recs[:0], chunk, false)
				enc := encodeLines(t, chunk)
				if !bytes.Equal(recs, enc) {
					t.Fatalf("byte %#x at %d of %q: records %q, want %q", c, off, line, recs, enc)
				}
				if !escaped[c] {
					if recs = appendTreeRecords(recs[:0], chunk, true); !bytes.Equal(recs, enc) {
						t.Fatalf("byte %#x at %d of %q: plain records %q, want %q", c, off, line, recs, enc)
					}
				}
			}
		}
	}
}

// FuzzTreeRecords: for any chunk of newline-terminated lines, the records
// are json.Encoder's byte for byte, and each decodes back to its line where
// the line is valid UTF-8 (the encoder writes U+FFFD for an invalid byte);
// where no byte of the lines is one the encoder escapes, so also the records
// framed without a scan.
func FuzzTreeRecords(f *testing.F) {
	for _, line := range encoderLines {
		f.Add([]byte(line + "\n"))
	}
	f.Add([]byte(strings.Join(encoderLines, "\n") + "\n"))
	f.Fuzz(func(t *testing.T, chunk []byte) {
		if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
			chunk = append(chunk, '\n')
		}
		got := appendTreeRecords(nil, chunk, false)
		want := encodeLines(t, chunk)
		if !bytes.Equal(got, want) {
			t.Fatalf("records differ from json.Encoder's:\n got %q\nwant %q", got, want)
		}
		if escapeIndex(chunk) == len(chunk) {
			if plain := appendTreeRecords(nil, chunk, true); !bytes.Equal(plain, want) {
				t.Fatalf("plain records differ from json.Encoder's:\n got %q\nwant %q", plain, want)
			}
		}
		lines := bytes.SplitAfter(chunk, []byte("\n"))
		recs := bytes.SplitAfter(got, []byte("\n"))
		for i, rec := range recs[:len(recs)-1] {
			var tl treeLine
			if err := json.Unmarshal(rec, &tl); err != nil {
				t.Fatalf("record %q: %v", rec, err)
			}
			if line := lines[i][:len(lines[i])-1]; utf8.Valid(line) && tl.Tree != string(line) {
				t.Fatalf("record %q decodes to %q, not its line %q", rec, tl.Tree, line)
			}
		}
	})
}

// TestTreeStreamEscapesOverHTTP: a stand whose labels hold a quote, '<',
// '&', a backslash, a tab and a non-ASCII letter beside plain labels streams
// over HTTP as json.Encoder's records of its spool, and decodes to the stand
// search.Run collects. Every tree of a stand holds every taxon, so one job's
// lines are all of one kind; a plain job's spool damaged on disk before a
// restart holds both kinds in one chunk, and still streams as the encoder's
// records of the bytes it holds.
func TestTreeStreamEscapesOverHTTP(t *testing.T) {
	escaping := []string{"((('a\"b',B),('<x>','p&q')),(C,'tab\there'));", "(('a\"b',B),('back\\slash','café'));"}
	plain := []string{"(((A,B),(C,D)),(E,F));", "((A,B),(G,H));"}
	dir := t.TempDir()
	serve := func(m *Manager) (get func(id string) []byte, stop func()) {
		mux := http.NewServeMux()
		m.RegisterRoutes(mux)
		srv := httptest.NewServer(mux)
		return func(id string) []byte {
			resp, err := http.Get(srv.URL + "/jobs/" + id + "/trees")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return body
		}, srv.Close
	}
	spooled := func(id string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, id+".trees"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	m1 := newTestManager(t, Config{Workers: 1, DataDir: dir})
	var ids []string
	for _, trees := range [][]string{escaping, plain} {
		job, err := m1.Submit(JobRequest{Trees: trees, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		ids = append(ids, job.ID())
	}
	get, stop := serve(m1)
	body := get(ids[0])
	stop()
	if want := encodeLines(t, spooled(ids[0])); !bytes.Equal(body, want) {
		t.Fatalf("the stream differs from json.Encoder's records of the spool:\n got %q\nwant %q", body, want)
	}
	for _, esc := range []string{`\"`, `\u003c`, `\u0026`, `\\`, `\t`, "é"} {
		if !bytes.Contains(body, []byte(esc)) {
			t.Fatalf("no %s in the stream %q", esc, body)
		}
	}
	ref, err := search.Run(mustParse(t, escaping), search.Options{InitialTree: -1, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, rec := range bytes.SplitAfter(body, []byte("\n")) {
		var tl treeLine
		if len(rec) > 0 {
			if err := json.Unmarshal(rec, &tl); err != nil {
				t.Fatalf("record %q: %v", rec, err)
			}
			got = append(got, tl.Tree)
		}
	}
	slices.Sort(got)
	slices.Sort(ref.Trees)
	if !slices.Equal(got, ref.Trees) {
		t.Fatalf("the stream decodes to %d trees %q, search.Run collects %d %q", len(got), got, len(ref.Trees), ref.Trees)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	damaged := spooled(ids[1])
	if n := bytes.Count(damaged, []byte("\n")); n < 8 {
		t.Fatalf("the plain stand has %d trees, too few to damage a few", n)
	}
	for i, c := range []byte{'"', 0xff, '\t', '<'} { // the third byte of lines 2, 4, 6 and 8
		at := 0
		for range 2*i + 1 {
			at += bytes.IndexByte(damaged[at:], '\n') + 1
		}
		damaged[at+2] = c
	}
	if err := os.WriteFile(filepath.Join(dir, ids[1]+".trees"), damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := newTestManager(t, Config{Workers: 1, DataDir: dir})
	get, stop = serve(m2)
	defer stop()
	for _, id := range ids {
		if body, want := get(id), encodeLines(t, spooled(id)); !bytes.Equal(body, want) {
			t.Fatalf("after the restart job %s streams %q, want json.Encoder's records of its spool %q", id, body, want)
		}
	}
}

// TestOnlyLocalRenderingsArePlain: a job's spool is plain (its lines framed
// without a scan) only where this process's engine renders every line over
// plain labels: not where a label holds a byte json.Encoder escapes, not for
// a fleet job, whose lines are its peers' RPC bodies, and not for a spool
// adopted from disk at a restart.
func TestOnlyLocalRenderingsArePlain(t *testing.T) {
	plain := smallRequest()
	escaping := JobRequest{Trees: []string{"((A,'b&c'),(C,D));", "((A,'b&c'),(C,E));"}}
	dir := t.TempDir()
	local := newTestManager(t, Config{DataDir: dir})
	var ids []string
	for _, tc := range []struct {
		req  JobRequest
		want bool
	}{{plain, true}, {escaping, false}} {
		job, err := local.Submit(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if job.spool.plain != tc.want {
			t.Fatalf("local job of %q: spool plain %v, want %v", tc.req.Trees, job.spool.plain, tc.want)
		}
		waitDone(t, job)
		ids = append(ids, job.ID())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := local.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	restarted := newTestManager(t, Config{DataDir: dir})
	for _, id := range ids {
		if job, ok := restarted.Get(id); !ok || job.spool.plain {
			t.Fatalf("job %s adopted at a restart (found %v) has a plain spool", id, ok)
		}
	}

	var coord *dist.Coordinator
	w := dist.NewWorker(dist.WorkerConfig{Name: "w0", Dial: func(string) dist.CoordinatorClient {
		return &dist.LocalCoordinatorClient{C: coord}
	}})
	coord = dist.NewCoordinator(dist.Config{Peers: []dist.WorkerClient{&dist.LocalWorkerClient{WorkerName: "w0", W: w}}})
	fleet := newTestManager(t, Config{Fleet: coord})
	job, err := fleet.Submit(plain)
	if err != nil {
		t.Fatal(err)
	}
	if job.spool.plain {
		t.Fatal("a fleet job's spool is plain")
	}
	waitDone(t, job)
}

// TestSpoolBlocks: blocks are appended whole and counted in lines; a
// follower is handed whole lines only, a chunk boundary or a line longer
// than its buffer notwithstanding; and a block torn by a crash keeps its
// complete lines on adoption and loses the partial one.
func TestSpoolBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.trees")
	s, err := newSpool(path, nil, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 150<<10) // longer than two read buffers
	var want strings.Builder
	for i := 0; i < 3000; i++ { // well past one read buffer, in blocks of 7
		fmt.Fprintf(&want, "(tree,number,%d);\n", i)
	}
	want.WriteString(long + "\n(after,the,long,one);\n")
	blocks := strings.SplitAfter(want.String(), "\n")
	blocks = blocks[:len(blocks)-1]
	for i := 0; i < len(blocks); i += 7 {
		b := strings.Join(blocks[i:min(i+7, len(blocks))], "")
		s.AppendBlock([]byte(b), strings.Count(b, "\n"))
	}
	if got := s.Lines(); got != int64(len(blocks)) {
		t.Fatalf("%d lines counted, %d appended", got, len(blocks))
	}
	read := func(s *spool) string {
		t.Helper()
		var got strings.Builder
		if err := s.Stream(context.Background(), func(chunk []byte) error {
			if len(chunk) == 0 || chunk[len(chunk)-1] != '\n' {
				t.Fatalf("a chunk of %d bytes does not end a line", len(chunk))
			}
			got.Write(chunk)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return got.String()
	}
	s.Close()
	if read(s) != want.String() {
		t.Fatal("the follower did not read back what was appended")
	}

	// A crash in the middle of the next block's write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("(torn,block,1);\n(torn,block,2);\n(torn,blo"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	a, err := adoptSpool(path, false, nil, &Metrics{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Lines(); got != int64(len(blocks))+2 {
		t.Fatalf("%d lines adopted, want %d and the torn block's two", got, len(blocks))
	}
	a.AppendBlock([]byte("(next,block);\n"), 1)
	a.Close()
	if got, want := read(a), want.String()+"(torn,block,1);\n(torn,block,2);\n(next,block);\n"; got != want {
		t.Fatalf("after adoption the spool ends %q", got[max(0, len(got)-80):])
	}
}

// TestStreamFollowsRunningJob: over real HTTP, with delivery throttled to a
// millisecond a tree, a follower has the first tree while the job is running
// and the stand's middle tree while it is still running: a tree reaches the
// client when its block is appended, not when the job ends.
func TestStreamFollowsRunningJob(t *testing.T) {
	if testing.Short() {
		t.Skip("a job throttled to last two seconds")
	}
	const stand = 1683 // two interleaved caterpillars of five
	inj := faultinject.New(1).Set(faultinject.TreeStream, faultinject.Rule{Every: 1, Delay: time.Millisecond})
	m := newTestManager(t, Config{Workers: 1, Fault: inj})
	mux := http.NewServeMux()
	m.RegisterRoutes(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < 5; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	job, err := m.Submit(JobRequest{Trees: []string{cat("x"), cat("y")}, MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/jobs/" + job.ID() + "/trees")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		if lines++; lines == 1 || lines == stand/2 {
			if st := job.Status(); st.State != StateRunning || st.TreesSpooled >= stand {
				t.Fatalf("tree %d arrived with the job %s and %d trees spooled", lines, st.State, st.TreesSpooled)
			}
		}
	}
	waitDone(t, job)
	if st := job.Status(); lines != stand || st.StandTrees != stand || st.TreesSpooled != stand {
		t.Fatalf("%d trees streamed, job %+v, want %d", lines, st, stand)
	}
}

// TestTreeStreamStallsOncePerTree: the treestream stall site throttles a job's
// delivery tree by tree, once per tree, at any thread count.
func TestTreeStreamStallsOncePerTree(t *testing.T) {
	const stand = 1683 // two interleaved caterpillars of five
	cat := func(prefix string) string {
		s := "(A,B)"
		for i := 0; i < 5; i++ {
			s = "(" + s + "," + fmt.Sprintf("%s%d", prefix, i) + ")"
		}
		return "((" + s + ",C),D);"
	}
	for _, threads := range []int{1, 4} {
		inj := faultinject.New(1).Set(faultinject.TreeStream, faultinject.Rule{Every: 1})
		m := newTestManager(t, Config{Workers: 1, MaxThreads: 4, Fault: inj})
		job, err := m.Submit(JobRequest{Trees: []string{cat("x"), cat("y")}, Threads: threads,
			MaxTrees: -1, MaxStates: -1, MaxTimeSeconds: -1})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, job)
		if st := job.Status(); st.StandTrees != stand || st.TreesSpooled != stand || inj.Count(faultinject.TreeStream) != stand {
			t.Fatalf("%d threads: job %+v, the stall site passed %d times, want %d", threads, st, inj.Count(faultinject.TreeStream), stand)
		}
	}
}

// BenchmarkTreeRecords: the records of the benchmark's serve-jobs stands
// (simulated datasets 6, 12 and 27, 8 127 trees), 64 KiB of whole lines at a
// time as the spool hands them on, scanned and framed as a plain spool's,
// beside a memmove of the same chunks. All three report ns/B.
func BenchmarkTreeRecords(b *testing.B) {
	var stand []byte
	for _, idx := range []int{6, 12, 27} {
		ds := gen.Generate(gen.Default(gen.RegimeSimulated), idx)
		if _, err := search.Run(ds.Constraints, search.Options{InitialTree: -1, OnTrees: func(block []byte, _ int) {
			stand = append(stand, block...)
		}}); err != nil {
			b.Fatal(err)
		}
	}
	var chunks [][]byte
	for rest := stand; len(rest) > 0; {
		n := len(rest)
		if n > 64<<10 {
			n = bytes.LastIndexByte(rest[:64<<10], '\n') + 1
		}
		chunks, rest = append(chunks, rest[:n]), rest[n:]
	}
	recs := make([]byte, 0, 2*len(chunks[0]))
	for _, tc := range []struct {
		name string
		pass func([]byte)
	}{
		{"records", func(c []byte) { recs = appendTreeRecords(recs[:0], c, false) }},
		{"plain", func(c []byte) { recs = appendTreeRecords(recs[:0], c, true) }},
		{"memmove", func(c []byte) { recs = append(recs[:0], c...) }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, c := range chunks {
					tc.pass(c)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stand)), "ns/B")
		})
	}
}
