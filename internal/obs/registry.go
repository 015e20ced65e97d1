// Package obs is the process-wide observability layer: a dependency-free
// metrics registry with Prometheus text exposition (counters, gauges,
// fixed-bucket histograms), lightweight span tracing propagated through
// context.Context with a bounded ring of recent traces, a crash-safe JSONL
// run journal, and an http mux bundling /metrics, /debug/traces, and
// net/http/pprof.
//
// Every subsystem — the HTTP serving edge, the beam-search decoder, the
// data-parallel training engine, the online tuner — registers into one
// shared namespace (Default()), so a single /metrics scrape shows the
// whole pipeline and a single trace ID follows a request from the HTTP
// handler through the admission queue into the decoder session.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry is a concurrency-safe metrics registry. Metric families are
// registered get-or-create: registering the same name twice with matching
// kind and label names returns the same family, so independently
// constructed subsystems (two servers in one test binary, a trainer next
// to a serving edge) share series instead of colliding. Kind or label-set
// mismatches panic: they are programming errors, not runtime conditions.
type Registry struct {
	mu       sync.RWMutex
	start    time.Time
	families map[string]*family
}

// metric family kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric with a fixed label schema and a set of
// labeled series.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	bounds []float64 // histogram upper bounds (implicit +Inf tail)

	mu     sync.Mutex
	series map[string]*series

	// Callback gauges, sampled at scrape time. gaugeFn is an unlabeled
	// value; infoFn produces the value of the single label infoLabel on a
	// constant-1 info gauge (the model_info pattern). Re-registration
	// replaces the callback (last writer wins), so a restarted subsystem
	// re-binds its live gauge instead of erroring.
	gaugeFn   func() float64
	infoFn    func() string
	infoLabel string
}

// series is one labeled time series of a family.
type series struct {
	labelVals []string
	val       float64  // counter / gauge
	counts    []uint64 // histogram buckets, len(bounds)+1
	sum       float64
	count     uint64
	// exemplars holds, per histogram bucket (len(bounds)+1, the +Inf
	// tail last), the most recent (value, trace ID) pair observed into
	// that bucket via ObserveEx. Emitted OpenMetrics-style after the
	// bucket's sample line so a scrape links straight to /debug/traces.
	exemplars []exemplar
}

// exemplar is one bucket's most recent traced observation.
type exemplar struct {
	val     float64
	traceID string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{start: time.Now(), families: map[string]*family{}}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry every subsystem shares. It
// carries an insightalign_uptime_seconds gauge from first use.
func Default() *Registry {
	defaultOnce.Do(func() {
		defaultReg = NewRegistry()
		defaultReg.GaugeFunc("insightalign_uptime_seconds",
			"Time since the process-wide metrics registry was created.",
			func() float64 { return time.Since(defaultReg.start).Seconds() })
	})
	return defaultReg
}

// register resolves or creates a family, enforcing schema consistency.
func (r *Registry) register(name, help, kind string, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as %s%v, was %s%v",
				name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, bounds: bounds, series: map[string]*series{}}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically increasing labeled metric family.
type Counter struct{ f *family }

// Counter registers (or resolves) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{f: r.register(name, help, kindCounter, labels, nil)}
}

// Inc adds 1 to the series identified by labelVals.
func (c *Counter) Inc(labelVals ...string) { c.Add(1, labelVals...) }

// Add adds v (which must be >= 0) to the series identified by labelVals.
func (c *Counter) Add(v float64, labelVals ...string) {
	if v < 0 {
		panic("obs: counter decrease")
	}
	c.f.mu.Lock()
	c.f.get(labelVals).val += v
	c.f.mu.Unlock()
}

// Gauge is a settable labeled metric family.
type Gauge struct{ f *family }

// Gauge registers (or resolves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{f: r.register(name, help, kindGauge, labels, nil)}
}

// Set stores v in the series identified by labelVals.
func (g *Gauge) Set(v float64, labelVals ...string) {
	g.f.mu.Lock()
	g.f.get(labelVals).val = v
	g.f.mu.Unlock()
}

// Add adjusts the series by v (negative to decrease).
func (g *Gauge) Add(v float64, labelVals ...string) {
	g.f.mu.Lock()
	g.f.get(labelVals).val += v
	g.f.mu.Unlock()
}

// Value reads the series' current value (0 if never written).
func (g *Gauge) Value(labelVals ...string) float64 {
	g.f.mu.Lock()
	defer g.f.mu.Unlock()
	return g.f.get(labelVals).val
}

// GaugeFunc registers an unlabeled gauge whose value fn produces at scrape
// time. Re-registering replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, nil, nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// InfoFunc registers a constant-1 gauge whose single label value fn
// produces at scrape time — the `thing_info{version="..."} 1` idiom.
// Re-registering replaces the callback.
func (r *Registry) InfoFunc(name, help, label string, fn func() string) {
	f := r.register(name, help, kindGauge, []string{label}, nil)
	f.mu.Lock()
	f.infoFn = fn
	f.infoLabel = label
	f.mu.Unlock()
}

// Histogram is a labeled fixed-bucket cumulative histogram family.
type Histogram struct{ f *family }

// Histogram registers (or resolves) a histogram family with the given
// upper bounds (the +Inf tail is implicit; bounds must be sorted
// ascending).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending", name))
		}
	}
	return &Histogram{f: r.register(name, help, kindHistogram, labels, append([]float64(nil), bounds...))}
}

// Observe records one value in the series identified by labelVals.
func (h *Histogram) Observe(v float64, labelVals ...string) {
	h.ObserveEx(v, "", labelVals...)
}

// ObserveEx records one value and, when traceID is non-empty, retains
// (v, traceID) as the landing bucket's exemplar — the most recent traced
// observation per bucket, emitted OpenMetrics-style on scrape
// (`... # {trace_id="..."} v`) so a hot bucket links to the trace that
// fed it.
func (h *Histogram) ObserveEx(v float64, traceID string, labelVals ...string) {
	h.f.mu.Lock()
	s := h.f.get(labelVals)
	if s.counts == nil {
		s.counts = make([]uint64, len(h.f.bounds)+1)
	}
	b := sort.SearchFloat64s(h.f.bounds, v)
	s.counts[b]++
	s.sum += v
	s.count++
	if traceID != "" {
		if s.exemplars == nil {
			s.exemplars = make([]exemplar, len(h.f.bounds)+1)
		}
		s.exemplars[b] = exemplar{val: v, traceID: traceID}
	}
	h.f.mu.Unlock()
}

// Count returns the series' total observation count.
func (h *Histogram) Count(labelVals ...string) uint64 {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	return h.f.get(labelVals).count
}

// prune removes every series whose label values satisfy match, returning
// how many were dropped. It is how bounded-cardinality labels stay
// bounded: when the serve tier's model-version LRU evicts a version, the
// per-version series are deleted instead of lingering forever.
func (f *family) prune(match func(labelVals []string) bool) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for k, s := range f.series {
		if match(s.labelVals) {
			delete(f.series, k)
			n++
		}
	}
	return n
}

// Prune removes series whose label values satisfy match; returns the
// number of series dropped.
func (c *Counter) Prune(match func(labelVals []string) bool) int { return c.f.prune(match) }

// Prune removes series whose label values satisfy match; returns the
// number of series dropped.
func (g *Gauge) Prune(match func(labelVals []string) bool) int { return g.f.prune(match) }

// Prune removes series whose label values satisfy match; returns the
// number of series dropped.
func (h *Histogram) Prune(match func(labelVals []string) bool) int { return h.f.prune(match) }

// get resolves a series by label values; the caller holds f.mu.
func (f *family) get(labelVals []string) *series {
	if len(labelVals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s got %d label values for labels %v", f.name, len(labelVals), f.labels))
	}
	key := strings.Join(labelVals, "\x00")
	s, ok := f.series[key]
	if !ok {
		s = &series{labelVals: append([]string(nil), labelVals...)}
		f.series[key] = s
	}
	return s
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

// WriteExposition renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label values,
// label values escaped per the spec (backslash, double-quote, newline),
// histograms with an explicit +Inf bucket.
func (r *Registry) WriteExposition(w io.Writer) {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.write(w)
	}
}

// Exposition returns the rendered metrics page.
func (r *Registry) Exposition() string {
	var b strings.Builder
	r.WriteExposition(&b)
	return b.String()
}

// Handler serves the exposition over HTTP (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteExposition(w)
	})
}

func (f *family) write(w io.Writer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	if f.gaugeFn != nil {
		fmt.Fprintf(w, "%s %s\n", f.name, formatValue(f.gaugeFn()))
		return
	}
	if f.infoFn != nil {
		fmt.Fprintf(w, "%s{%s=\"%s\"} 1\n", f.name, f.infoLabel, escapeLabel(f.infoFn()))
		return
	}
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s := f.series[k]
		if f.kind == kindHistogram {
			f.writeHistogramSeries(w, s)
			continue
		}
		fmt.Fprintf(w, "%s%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatValue(s.val))
	}
}

func (f *family) writeHistogramSeries(w io.Writer, s *series) {
	cum := uint64(0)
	for i, bound := range f.bounds {
		if s.counts != nil {
			cum += s.counts[i]
		}
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name,
			labelString(f.labels, s.labelVals, "le", strconv.FormatFloat(bound, 'g', -1, 64)), cum,
			s.exemplarSuffix(i))
	}
	if s.counts != nil {
		cum += s.counts[len(f.bounds)]
	}
	// The spec requires the +Inf bucket explicitly; it must equal _count.
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, labelString(f.labels, s.labelVals, "le", "+Inf"), cum,
		s.exemplarSuffix(len(f.bounds)))
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelString(f.labels, s.labelVals, "", ""), formatValue(s.sum))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, s.labelVals, "", ""), s.count)
}

// exemplarSuffix renders bucket i's exemplar in the OpenMetrics form
// ` # {trace_id="..."} v`, or "" when the bucket has none. Prometheus'
// 0.0.4 text parser treats the suffix as a comment-free extension the
// OpenMetrics format standardized; our own scrape parser (the fleet
// roll-up and the conformance test) strips it before value parsing.
func (s *series) exemplarSuffix(i int) string {
	if s.exemplars == nil || i >= len(s.exemplars) || s.exemplars[i].traceID == "" {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=\"%s\"} %s", escapeLabel(s.exemplars[i].traceID), formatValue(s.exemplars[i].val))
}

// labelString renders {a="x",b="y"[,extra="v"]}, or "" when there are no
// labels at all. extraName is the histogram's le label.
func labelString(names, vals []string, extraName, extraVal string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the text-format spec: backslash,
// double-quote, and line feed.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP text per the spec: backslash and line feed.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
