package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"gentrius"
)

// runMainEnv makes the test binary run the command's main() with its own
// arguments instead of the tests, so a test can look at exit codes.
const runMainEnv = "GENTRIUS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gentriusCmd returns the command line "gentrius args...".
func gentriusCmd(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	return cmd
}

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadConstraintsFromTrees(t *testing.T) {
	dir := t.TempDir()
	p := write(t, dir, "c.nwk", "((A,B),(C,D));\n((A,B),(C,E));\n")
	cons, err := loadConstraints(p, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("loaded %d constraints", len(cons))
	}
	res, err := gentrius.EnumerateStand(cons, gentrius.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees < 1 {
		t.Fatal("empty stand from valid input")
	}
}

func TestLoadConstraintsFromSpeciesAndPAM(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "sp.nwk", "((A,(B,C)),(D,(E,F)));\n")
	pam := write(t, dir, "m.pam",
		"6 2\nA 1 1\nB 1 0\nC 1 0\nD 1 1\nE 1 1\nF 1 1\n")
	cons, err := loadConstraints("", sp, pam)
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 {
		t.Fatalf("loaded %d induced constraints, want 2", len(cons))
	}
}

func TestLoadConstraintsErrors(t *testing.T) {
	dir := t.TempDir()
	sp := write(t, dir, "sp.nwk", "((A,B),(C,D));\n")
	two := write(t, dir, "two.nwk", "((A,B),(C,D));\n((A,C),(B,D));\n")
	pam := write(t, dir, "m.pam", "4 1\nA 1\nB 1\nC 1\nD 1\n")
	cases := [][3]string{
		{"", "", ""},                         // nothing given
		{sp, sp, pam},                        // both modes
		{filepath.Join(dir, "nope"), "", ""}, // missing file
		{"", two, pam},                       // species file with two trees
		{"", sp, filepath.Join(dir, "no")},   // missing pam
	}
	for _, c := range cases {
		if _, err := loadConstraints(c[0], c[1], c[2]); err == nil {
			t.Fatalf("expected error for %v", c)
		}
	}
}

// TestOutWritesWholeStand: -out holds one line per stand tree once the
// process has exited, the buffered tail included.
func TestOutWritesWholeStand(t *testing.T) {
	dir := t.TempDir()
	trees := write(t, dir, "c.nwk", "((A,B),(C,D));\n((A,B),(E,F));\n")
	out := filepath.Join(dir, "stand.nwk")
	stdout, err := gentriusCmd("-trees", trees, "-out", out, "-q").Output()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	n := bytes.Count(data, []byte{'\n'})
	if want := string(bytes.TrimSpace(stdout)); n == 0 || want != strconv.Itoa(n) {
		t.Fatalf("-q reports %s stand trees, %s holds %d lines", want, out, n)
	}
}

// TestOutWriteErrorFailsTheRun: a stand file that cannot be written in full
// (here: a device that is always full) is a non-zero exit, not a silently
// truncated file.
func TestOutWriteErrorFailsTheRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	trees := write(t, t.TempDir(), "c.nwk", "((A,B),(C,D));\n((A,B),(E,F));\n")
	var stderr bytes.Buffer
	cmd := gentriusCmd("-trees", trees, "-out", "/dev/full", "-q")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("writing the stand to /dev/full: err = %v, want a non-zero exit (stderr %q)", err, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("-out")) {
		t.Fatalf("stderr does not name -out: %q", stderr.String())
	}
}

// TestResumeVersion1PrintsHint: -resume of a version-1 checkpoint (an older
// release's serial frame stack, which this one does not read) exits non-zero
// with the version hint, not a bare decoding error.
func TestResumeVersion1PrintsHint(t *testing.T) {
	const dir = "../../testdata/ckpt_a3eaaa2/"
	var stderr bytes.Buffer
	cmd := gentriusCmd("-trees", dir+"input.trees", "-resume", dir+"serial_v1.ckpt", "-q")
	cmd.Stderr = &stderr
	err := cmd.Run()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("resuming a version-1 checkpoint: err = %v, want a non-zero exit (stderr %q)", err, stderr.String())
	}
	if !bytes.Contains(stderr.Bytes(), []byte("hint: the checkpoint was written by an incompatible gentrius version")) {
		t.Fatalf("stderr carries no version hint: %q", stderr.String())
	}
}
