package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_requests_total", "Requests.", "route", "code")
	c.Inc("/v1/recommend", "200")
	c.Inc("/v1/recommend", "200")
	c.Add(3, "/healthz", "200")
	g := r.Gauge("test_depth", "Queue depth.")
	g.Set(4)
	g.Add(5)
	r.GaugeFunc("test_uptime", "Uptime.", func() float64 { return 1.5 })
	r.InfoFunc("test_model_info", "Model.", "version", func() string { return "v1-abcd" })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route")
	h.Observe(0.05, "/v1/recommend")
	h.Observe(5, "/v1/recommend")

	out := r.Exposition()
	for _, want := range []string{
		`test_requests_total{route="/healthz",code="200"} 3`,
		`test_requests_total{route="/v1/recommend",code="200"} 2`,
		"test_depth 9",
		"test_uptime 1.5",
		`test_model_info{version="v1-abcd"} 1`,
		`test_latency_seconds_bucket{route="/v1/recommend",le="0.1"} 1`,
		`test_latency_seconds_bucket{route="/v1/recommend",le="+Inf"} 2`,
		`test_latency_seconds_sum{route="/v1/recommend"} 5.05`,
		`test_latency_seconds_count{route="/v1/recommend"} 2`,
		"# TYPE test_latency_seconds histogram",
		"# TYPE test_requests_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if g.Value() != 9 {
		t.Fatalf("gauge value %g", g.Value())
	}
	if h.Count("/v1/recommend") != 2 {
		t.Fatalf("histogram count %d", h.Count("/v1/recommend"))
	}
}

func TestRegisterIdempotentAndMismatchPanics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "x", "l")
	b := r.Counter("test_total", "x", "l")
	a.Inc("v")
	b.Inc("v")
	if !strings.Contains(r.Exposition(), `test_total{l="v"} 2`) {
		t.Fatal("re-registered counter did not share series")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("test_total", "x", "l")
}

// TestExpositionConformance feeds a registry with hostile label values and
// help text through a strict line parser implementing the text-format
// rules: legal metric/label names, only \\ \" \n escapes inside label
// values, TYPE before samples, cumulative buckets, and an explicit +Inf
// bucket equal to _count.
func TestExpositionConformance(t *testing.T) {
	r := NewRegistry()
	nasty := "back\\slash \"quoted\"\nnewline"
	r.Counter("conf_total", "Help with \\ backslash\nand newline.", "path").Inc(nasty)
	h := r.Histogram("conf_seconds", "Latency.", []float64{0.5, 2}, "route")
	h.Observe(0.4, nasty)
	h.Observe(1, nasty)
	h.Observe(99, nasty)
	r.InfoFunc("conf_info", "Version.", "version", func() string { return "v\"1\"" })
	r.GaugeFunc("conf_gauge", "G.", func() float64 { return -2.5 })

	if err := parseExposition(r.Exposition()); err != nil {
		t.Fatalf("conformance: %v\n---\n%s", err, r.Exposition())
	}
}

// parseExposition is a strict text-format parser used only by tests.
func parseExposition(page string) error {
	typed := map[string]string{}     // family -> kind
	sampled := map[string]bool{}     // family has emitted samples
	bucketCum := map[string]uint64{} // series-prefix -> last cumulative bucket
	bucketInf := map[string]uint64{} // series-prefix -> +Inf bucket value
	counts := map[string]uint64{}    // series-prefix -> _count value
	for ln, line := range strings.Split(page, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || !validName(parts[2]) {
				return fmt.Errorf("line %d: bad comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				if sampled[parts[2]] {
					return fmt.Errorf("line %d: TYPE after samples for %s", ln+1, parts[2])
				}
				typed[parts[2]] = parts[3]
			}
			continue
		}
		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v (%q)", ln+1, err, line)
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typed[base] == "histogram" {
				fam = base
			}
		}
		kind, ok := typed[fam]
		if !ok {
			return fmt.Errorf("line %d: sample for untyped family %s", ln+1, fam)
		}
		sampled[fam] = true
		if kind == "histogram" {
			key := fam + "|" + labelsWithout(labels, "le")
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: bucket without le", ln+1)
				}
				n, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: non-integer bucket %q", ln+1, value)
				}
				if n < bucketCum[key] {
					return fmt.Errorf("line %d: non-cumulative bucket", ln+1)
				}
				bucketCum[key] = n
				if le == "+Inf" {
					bucketInf[key] = n
				} else if _, err := strconv.ParseFloat(le, 64); err != nil {
					return fmt.Errorf("line %d: bad le %q", ln+1, le)
				}
			case strings.HasSuffix(name, "_count"):
				n, err := strconv.ParseUint(value, 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: bad _count %q", ln+1, value)
				}
				counts[key] = n
			case strings.HasSuffix(name, "_sum"):
				if _, err := strconv.ParseFloat(value, 64); err != nil {
					return fmt.Errorf("line %d: bad _sum %q", ln+1, value)
				}
			default:
				return fmt.Errorf("line %d: unexpected histogram sample %s", ln+1, name)
			}
		} else if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("line %d: bad value %q", ln+1, value)
		}
	}
	for key, inf := range bucketInf {
		if counts[key] != inf {
			return fmt.Errorf("series %s: +Inf bucket %d != count %d", key, inf, counts[key])
		}
	}
	for key := range bucketCum {
		if _, ok := bucketInf[key]; !ok {
			return fmt.Errorf("series %s: missing explicit +Inf bucket", key)
		}
	}
	return nil
}

func labelsWithout(labels map[string]string, drop string) string {
	var parts []string
	for k, v := range labels {
		if k != drop {
			parts = append(parts, k+"="+v)
		}
	}
	return strings.Join(parts, ",")
}

func validName(s string) bool {
	for i, c := range s {
		alpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return len(s) > 0
}

// parseSample strictly parses one sample line: name, optional label block
// with only \\ \" \n escapes, one space, value.
func parseSample(line string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, "", fmt.Errorf("no separator")
	}
	name = line[:i]
	if !validName(name) {
		return "", nil, "", fmt.Errorf("bad metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		j := 1
		for {
			// label name
			k := j
			for k < len(rest) && rest[k] != '=' {
				k++
			}
			if k >= len(rest) || !validName(rest[j:k]) {
				return "", nil, "", fmt.Errorf("bad label name")
			}
			lname := rest[j:k]
			if k+1 >= len(rest) || rest[k+1] != '"' {
				return "", nil, "", fmt.Errorf("label value not quoted")
			}
			// label value with strict escapes
			var val strings.Builder
			j = k + 2
			for {
				if j >= len(rest) {
					return "", nil, "", fmt.Errorf("unterminated label value")
				}
				c := rest[j]
				if c == '"' {
					j++
					break
				}
				if c == '\n' {
					return "", nil, "", fmt.Errorf("raw newline in label value")
				}
				if c == '\\' {
					if j+1 >= len(rest) {
						return "", nil, "", fmt.Errorf("dangling escape")
					}
					switch rest[j+1] {
					case '\\', '"':
						val.WriteByte(rest[j+1])
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, "", fmt.Errorf("illegal escape \\%c", rest[j+1])
					}
					j += 2
					continue
				}
				val.WriteByte(c)
				j++
			}
			labels[lname] = val.String()
			if j < len(rest) && rest[j] == ',' {
				j++
				continue
			}
			if j < len(rest) && rest[j] == '}' {
				j++
				break
			}
			return "", nil, "", fmt.Errorf("bad label separator")
		}
		rest = rest[j:]
	}
	if len(rest) < 2 || rest[0] != ' ' {
		return "", nil, "", fmt.Errorf("missing value separator")
	}
	value = rest[1:]
	// OpenMetrics exemplar extension: `<value> # {labels} <exemplar-value>`.
	// Only _bucket samples carry it in our exposition; the parser accepts
	// it anywhere but insists on the full shape when the marker appears.
	if base, ex, ok := strings.Cut(value, " # "); ok {
		value = base
		if !strings.HasPrefix(ex, "{") {
			return "", nil, "", fmt.Errorf("exemplar without label block: %q", ex)
		}
		end := strings.LastIndex(ex, "} ")
		if end < 0 {
			return "", nil, "", fmt.Errorf("exemplar missing value: %q", ex)
		}
		if _, err := strconv.ParseFloat(ex[end+2:], 64); err != nil {
			return "", nil, "", fmt.Errorf("bad exemplar value %q", ex[end+2:])
		}
		// The exemplar label block reuses sample syntax; parse it by
		// grafting it onto a dummy metric name.
		if _, exLabels, _, err := parseSample("x" + ex[:end+1] + " 1"); err != nil {
			return "", nil, "", fmt.Errorf("bad exemplar labels %q: %v", ex[:end+1], err)
		} else if _, ok := exLabels["trace_id"]; !ok {
			return "", nil, "", fmt.Errorf("exemplar without trace_id: %q", ex)
		}
	}
	return name, labels, value, nil
}

// TestConcurrentScrape hammers one registry from 16 goroutines that
// register, observe, and expose simultaneously — the -race guard for the
// shared process-wide registry.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c := r.Counter("race_total", "x", "worker")
				c.Inc(fmt.Sprintf("w%d", g%4))
				h := r.Histogram("race_seconds", "x", []float64{0.1, 1, 10}, "op")
				h.Observe(float64(i)/50, "op")
				r.Gauge("race_depth", "x").Set(float64(i))
				r.GaugeFunc("race_live", "x", func() float64 { return float64(g) })
				if i%10 == 0 {
					if err := parseExposition(r.Exposition()); err != nil {
						t.Errorf("goroutine %d iter %d: %v", g, i, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	out := r.Exposition()
	if !strings.Contains(out, `race_total{worker="w0"}`) {
		t.Fatalf("missing series after concurrent load:\n%s", out)
	}
	var total float64
	c := r.Counter("race_total", "x", "worker")
	_ = c
	for w := 0; w < 4; w++ {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, fmt.Sprintf(`race_total{worker="w%d"} `, w)) {
				v, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
				total += v
			}
		}
	}
	if total != goroutines*iters {
		t.Fatalf("lost increments: %g, want %d", total, goroutines*iters)
	}
}
