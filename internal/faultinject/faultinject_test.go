package faultinject

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func testConfig(seed int64) Config {
	return Config{
		Seed:   seed,
		Rate:   0.3,
		Stages: []string{"placement", "cts", "route"},
		Kinds:  []Kind{Hang, Error, Corrupt},
	}
}

// Same seed must produce an identical fault schedule — the property every
// chaos test's reproducibility rests on.
func TestScheduleDeterministic(t *testing.T) {
	a := New(testConfig(7)).Schedule(5000)
	b := New(testConfig(7)).Schedule(5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d: schedule differs for same seed: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Different seeds must produce different schedules (overwhelmingly).
func TestScheduleSeedSensitivity(t *testing.T) {
	a := New(testConfig(7)).Schedule(2000)
	b := New(testConfig(8)).Schedule(2000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	// Two independent 30% schedules agree on ~0.7*0.7 + small overlap of
	// matching faults; require they are not near-identical.
	if same > 1800 {
		t.Fatalf("seeds 7 and 8 agree on %d/2000 runs — schedule not seed-sensitive", same)
	}
}

// Plan must be independent of call order and concurrency.
func TestPlanOrderIndependent(t *testing.T) {
	in := New(testConfig(3))
	want := in.Schedule(1000)
	got := make([]Fault, 1000)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 999 - w; i >= 0; i -= 8 {
				if f, ok := in.Plan(uint64(i)); ok {
					got[i] = f
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("run %d: concurrent Plan %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// The empirical fault rate must track the configured rate.
func TestRateEmpirical(t *testing.T) {
	for _, rate := range []float64{0, 0.1, 0.3, 0.5, 1} {
		cfg := testConfig(11)
		cfg.Rate = rate
		in := New(cfg)
		n, hits := 20000, 0
		for i := 0; i < n; i++ {
			if _, ok := in.Plan(uint64(i)); ok {
				hits++
			}
		}
		got := float64(hits) / float64(n)
		if math.Abs(got-rate) > 0.02 {
			t.Fatalf("rate %g: empirical %g", rate, got)
		}
	}
}

// Faults must distribute over all configured stages and kinds.
func TestStagesAndKindsCovered(t *testing.T) {
	in := New(testConfig(5))
	stages := map[string]int{}
	kinds := map[Kind]int{}
	for i := 0; i < 5000; i++ {
		if f, ok := in.Plan(uint64(i)); ok {
			stages[f.Stage]++
			kinds[f.Kind]++
		}
	}
	for _, s := range []string{"placement", "cts", "route"} {
		if stages[s] == 0 {
			t.Fatalf("stage %s never faulted", s)
		}
	}
	for _, k := range []Kind{Hang, Error, Corrupt} {
		if kinds[k] == 0 {
			t.Fatalf("kind %v never drawn", k)
		}
	}
}

// The [From, To) window must gate injection exactly.
func TestRunWindow(t *testing.T) {
	cfg := testConfig(9)
	cfg.Rate = 1
	cfg.From, cfg.To = 10, 20
	in := New(cfg)
	for i := uint64(0); i < 30; i++ {
		_, ok := in.Plan(i)
		want := i >= 10 && i < 20
		if ok != want {
			t.Fatalf("run %d: faulted=%v, want %v", i, ok, want)
		}
	}
}

func TestApplyError(t *testing.T) {
	cfg := Config{Seed: 1, Rate: 1, Stages: []string{"s"}, Kinds: []Kind{Error}}
	in := New(cfg)
	err := in.Apply(context.Background(), 0, "s")
	var ie *InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InjectedError, got %v", err)
	}
	if !ie.Transient() {
		t.Fatal("injected error must be transient")
	}
	if in.Applied(Error) != 1 {
		t.Fatalf("Applied(Error) = %d, want 1", in.Applied(Error))
	}
	// Wrong stage: no fault.
	if err := in.Apply(context.Background(), 0, "other"); err != nil {
		t.Fatalf("unexpected fault at unplanned stage: %v", err)
	}
}

func TestApplyHangHonorsContext(t *testing.T) {
	cfg := Config{Seed: 1, Rate: 1, Stages: []string{"s"}, Kinds: []Kind{Hang}}
	in := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Apply(ctx, 0, "s")
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error from hang, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hang did not release on context cancellation")
	}
	if in.Applied(Hang) != 1 {
		t.Fatalf("Applied(Hang) = %d, want 1", in.Applied(Hang))
	}
}

// Corrupt plans must not strike stage checkpoints — they surface only
// through Plan so output-mutation hooks can apply them.
func TestCorruptNotAtStage(t *testing.T) {
	cfg := Config{Seed: 2, Rate: 1, Stages: []string{"s"}, Kinds: []Kind{Corrupt}}
	in := New(cfg)
	if k := in.At(0, "s"); k != None {
		t.Fatalf("At returned %v for a Corrupt plan, want None", k)
	}
	f, ok := in.Plan(0)
	if !ok || f.Kind != Corrupt {
		t.Fatalf("Plan = %+v, %v; want Corrupt", f, ok)
	}
	if err := in.Apply(context.Background(), 0, "s"); err != nil {
		t.Fatalf("Apply must pass Corrupt runs through: %v", err)
	}
}

func TestHookFuncCountsRuns(t *testing.T) {
	cfg := Config{Seed: 4, Rate: 1, Stages: []string{"backend"}, Kinds: []Kind{Error}, From: 1, To: 2}
	in := New(cfg)
	hook := in.HookFunc("backend")
	if err := hook(context.Background()); err != nil {
		t.Fatalf("run 0 outside window faulted: %v", err)
	}
	if err := hook(context.Background()); err == nil {
		t.Fatal("run 1 inside window did not fault")
	}
	if err := hook(context.Background()); err != nil {
		t.Fatalf("run 2 outside window faulted: %v", err)
	}
}

func TestBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rate 1.5 must panic")
		}
	}()
	New(Config{Rate: 1.5})
}

// TestPlanKnownAnswers pins the fault schedule to the one recorded before
// the module's SplitMix64 copies were merged, so a chaos failure seen
// under a seed replays the same faults.
func TestPlanKnownAnswers(t *testing.T) {
	in := New(Config{Seed: 7, Rate: 0.5, Stages: []string{"place", "route", "sta"}})
	var got []string
	for run := uint64(0); run < 12; run++ {
		f, _ := in.Plan(run)
		got = append(got, fmt.Sprint(f.Kind, "@", f.Stage))
	}
	want := "hang@place error@sta error@place none@ hang@sta none@ none@ none@ hang@sta none@ none@ none@"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("Plan(0..11) = %s, want %s", s, want)
	}
}
