// Scheduler observability experiment: per-run metric snapshots rendered as
// a table, plus deterministic virtual-time trace extraction for offline
// analysis of the work-stealing schedule.
package harness

import (
	"bytes"
	"fmt"
	"io"

	"gentrius/internal/obs"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/stats"
)

// ObsTable renders the scheduler snapshots of the study's k largest runs:
// tasks stolen, counter flushes and pool efficiency per worker count —
// the quantities that explain where each dataset's speedup curve bends.
func (st *Study) ObsTable(k int) string {
	header := []string{"dataset", "serial(s)", "workers", "speedup", "stolen", "flushes", "efficiency"}
	var rows [][]string
	for _, r := range st.LargestRuns(k) {
		for _, w := range st.Spec.Workers {
			snap := r.Snapshots[w]
			rows = append(rows, []string{
				r.DS.Name,
				fmt.Sprintf("%.2f", r.SerialSeconds()),
				fmt.Sprintf("%d", w),
				fmt.Sprintf("%.2f", r.Speedup(w)),
				fmt.Sprintf("%d", snap.TasksStolen),
				fmt.Sprintf("%d", snap.Flushes),
				fmt.Sprintf("%.2f", snap.Efficiency),
			})
		}
	}
	return stats.Table(header, rows)
}

// ObsReport runs the study pipeline and renders the observability table of
// its k largest datasets.
func ObsReport(spec StudySpec, k int) (string, error) {
	st, err := RunStudy(spec)
	if err != nil {
		return "", err
	}
	if len(st.Runs) == 0 {
		return "(no dataset passed the filter)", nil
	}
	return fmt.Sprintf("%d/%d datasets passed the filter\n\n%s",
		len(st.Runs), st.Generated, st.ObsTable(k)), nil
}

// TraceRepresentative writes the deterministic virtual-time JSONL trace of
// the first corpus dataset that exercises work stealing at the given
// worker count, and returns that run's result. Repeated calls on the same
// corpus produce byte-identical traces (virtual-time stamps, single-
// threaded scheduler).
func TraceRepresentative(cs CorpusSpec, workers int, lim search.Limits, vt parallel.VirtualTime, w io.Writer) (*parallel.SimResult, error) {
	for _, ds := range cs.Datasets() {
		// Buffer each candidate run so the written trace covers exactly
		// the selected one.
		var buf bytes.Buffer
		rec := obs.NewRecorder(&buf, nil)
		res, err := parallel.Simulate(ds.Constraints, search.Options{
			Threads: workers, InitialTree: -1, Limits: lim, Obs: &obs.Sink{Trace: rec},
		}, vt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ds.Name, err)
		}
		if !handsOff(buf.Bytes()) {
			continue
		}
		if err := rec.Flush(); err != nil {
			return nil, err
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return nil, err
		}
		return res, nil
	}
	return nil, fmt.Errorf("no dataset in the corpus exercised work stealing at %d workers", workers)
}

// handsOff reports whether a trace has a worker's task submission in it, not
// only the run's own (worker -1): a task one worker stole from another.
func handsOff(trace []byte) bool {
	submit := []byte(`"ev":"` + obs.EvTaskSubmit + `"`)
	return bytes.Count(trace, submit) > bytes.Count(trace, append(submit, `,"w":-1`...))
}
