package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gentrius/internal/faultinject"
)

// TestTreeRecordsMatchJSONEncoder: the records handleTrees builds are, byte
// for byte, what json.Encoder wrote for each line when it encoded them one
// by one — whatever a quoted label holds.
func TestTreeRecordsMatchJSONEncoder(t *testing.T) {
	lines := []string{
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
	chunk := []byte(strings.Join(lines, "\n") + "\n")
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, line := range lines {
		if err := enc.Encode(treeLine{Tree: line}); err != nil {
			t.Fatal(err)
		}
	}
	got := appendTreeRecords([]byte("kept:"), chunk)
	if string(got) != "kept:"+want.String() {
		t.Fatalf("records differ from json.Encoder's:\n got %q\nwant %q", got, "kept:"+want.String())
	}
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
