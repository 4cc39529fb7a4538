package service_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"sigfim"
	"sigfim/internal/service"
)

// TestEmptyBaselineReportEncodes pins a report in which Procedure 2 finds s*
// while Procedure 1 flags nothing. Westfall-Young over Delta = 10 replicates
// cannot reject anything (every adjusted p-value is at least 1/11 > beta), so
// |R| = 0 and the power ratio Q/|R| is unbounded. The report must still
// encode as JSON, and the same query as a sigfimd job must end done with the
// library's bytes.
func TestEmptyBaselineReportEncodes(t *testing.T) {
	direct, err := sigfim.OpenFIMI(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &sigfim.Config{Delta: 10, Seed: 9, Correction: sigfim.CorrectionWestfallYoung}
	rep, err := direct.Significant(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Infinite || rep.Baseline == nil || rep.Baseline.NumSignificant != 0 {
		t.Fatalf("want s* found and an empty baseline, got infinite=%v baseline=%+v", rep.Infinite, rep.Baseline)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("json.Marshal(report): %v", err)
	}
	if rep.PowerRatio != 0 {
		t.Errorf("PowerRatio = %v with |R| = 0, want 0", rep.PowerRatio)
	}

	_, ts := newTestServer(t, service.Options{Workers: 1})
	st, code := submit(t, ts, service.JobRequest{
		Dataset: "golden", Kind: service.KindSignificant, K: 2, Config: cfg,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (state %s, err %q)", code, st.State, st.Error)
	}
	final := waitState(t, ts, st.ID, service.StateDone)
	if got := compactResult(t, final.Result); !bytes.Equal(got, want) {
		t.Errorf("job result differs from the library report.\njob:    %s\ndirect: %s", got, want)
	}
}
