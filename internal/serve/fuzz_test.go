package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"insightalign/internal/core"
	"insightalign/internal/obs"
)

// fuzzServer builds a small-model server with its own metrics registry and
// tracer, so fuzz iterations touch no process-wide state.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	cfg := DefaultConfig()
	cfg.Model = smallCfg()
	cfg.Logger = quietLogger()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(16)
	reg, err := NewRegistry(cfg.Model)
	if err != nil {
		f.Fatal(err)
	}
	m, err := core.New(cfg.Model)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := reg.SetModel(m, "fuzz"); err != nil {
		f.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzRecommendBody holds the request boundary to its contract on
// arbitrary bytes: POSTed to /v1/recommend or /v1/recommend/batch through
// the full handler (middleware, JSON decode, validation, decode), a body
// never panics the server and is answered 200 or 400, and a 200 carries a
// well-formed JSON body.
func FuzzRecommendBody(f *testing.F) {
	s := fuzzServer(f)
	h := s.Handler()
	iv, _ := json.Marshal(make([]float64, smallCfg().InsightDim))
	huge := make([]float64, smallCfg().InsightDim)
	for i := range huge {
		huge[i] = 1e308
	}
	hugeIV, _ := json.Marshal(huge)
	single := `{"insight":` + string(iv) + `}`
	for _, body := range []string{
		single,
		`{"insight":` + string(iv) + `,"beam_width":3}`,
		`{"insight":` + string(iv) + `,"beam_width":-1}`,
		`{"insight":` + string(iv) + `,"beam_width":1000000}`,
		`{"insight":` + string(iv) + `,"intention":{"terms":[{"metric":"power","weight":1}]}}`,
		`{"insight":` + string(iv) + `,"intention":{"terms":[{"metric":"nope","weight":-1}]}}`,
		`{"insight":[1,2,3]}`,
		`{"insight":null}`,
		`{"requests":[` + single + `,` + single + `]}`,
		`{"requests":[]}`,
		`{"requests":[{"insight":[1]}]}`,
		`{"insight":` + string(iv) + `,"extra":1}`,
		`{"insight":` + string(hugeIV) + `}`,
		`{not json`,
		``,
		`null`,
		`[]`,
	} {
		f.Add([]byte(body), false)
		f.Add([]byte(body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, batch bool) {
		route := "/v1/recommend"
		if batch {
			route = "/v1/recommend/batch"
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s answered 200 with an invalid JSON body %q", route, w.Body.String())
			}
		case http.StatusBadRequest:
			if !strings.Contains(w.Body.String(), `"error"`) {
				t.Fatalf("%s answered 400 without an error body: %q", route, w.Body.String())
			}
		default:
			t.Fatalf("%s answered %d, want 200 or 400: %s", route, w.Code, w.Body.String())
		}
	})
}
