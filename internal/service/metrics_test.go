package service

import (
	"bytes"
	"regexp"
	"testing"

	"gentrius/internal/obs"
)

// sampleValue matches a sample line of the exposition up to its value.
var sampleValue = regexp.MustCompile(`(?m)^([^#\n][^\n]*) \S+$`)

// seriesOf renders reg and blanks every sample's value: what is left is the
// set of families and series, in exposition order.
func seriesOf(reg *obs.Registry) string {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	return sampleValue.ReplaceAllString(b.String(), "$1")
}

// TestMetricsBoundedInJobs: the daemon is a week-long process that sees
// thousands of small jobs, so what /metrics holds must not depend on how many
// it has run. After 200 finished jobs the exposition has exactly the families
// and series it had after the first; only values differ.
func TestMetricsBoundedInJobs(t *testing.T) {
	reg := obs.NewRegistry()
	m := newTestManager(t, Config{Workers: 2, QueueCap: 256, Metrics: NewMetrics(reg)})
	run := func(n int) {
		t.Helper()
		jobs := make([]*Job, n)
		for i := range jobs {
			var err error
			if jobs[i], err = m.Submit(smallRequest()); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range jobs {
			waitDone(t, j)
		}
	}
	run(1)
	first := seriesOf(reg)
	run(199)
	if got := seriesOf(reg); got != first {
		t.Fatalf("the series set moved with the job count.\nafter 1 job:\n%s\nafter 200:\n%s", first, got)
	}
	if done := m.m.JobsDone.Value(); done != 200 {
		t.Fatalf("jobs done = %d, want 200", done)
	}
}
