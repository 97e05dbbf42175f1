package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dynplan"
)

// TestQueryRejectsInvalidBindings checks that POST /query answers a
// selectivity outside [0, 1] with 400 and leaves the governor's books
// balanced, while the same statement with a valid binding succeeds.
func TestQueryRejectsInvalidBindings(t *testing.T) {
	db, sys, _, _, err := demoDatabase(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetGovernor(dynplan.GovernorConfig{TotalPages: 256, MaxConcurrent: 2})
	srv := newQueryServer(db, sys)
	post := func(sel string) *httptest.ResponseRecorder {
		body := `{"sql":"SELECT * FROM E1, E2 WHERE E1.a <= ?v1 AND E2.a <= ?v2 AND E1.jh = E2.jl",` +
			`"selectivities":{"v1":` + sel + `,"v2":0.2},"memory_pages":64}`
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec
	}
	for _, sel := range []string{"1.5", "-0.5"} {
		rec := post(sel)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "invalid bindings") {
			t.Errorf("selectivity %s: status %d body %s, want 400 naming the invalid bindings", sel, rec.Code, rec.Body)
		}
	}
	if rec := post("0.1"); rec.Code != http.StatusOK {
		t.Errorf("valid selectivity: status %d body %s, want 200", rec.Code, rec.Body)
	}
	if got := db.OutstandingGrantPages(); got != 0 {
		t.Errorf("outstanding grant pages = %v, want 0", got)
	}
}
