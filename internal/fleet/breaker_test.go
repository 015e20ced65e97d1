package fleet

import (
	"testing"
	"time"
)

// testBreaker builds a breaker on a settable fake clock and records its
// transitions.
func testBreaker(cfg BreakerConfig) (*Breaker, *time.Time, *[]string) {
	var transitions []string
	b := NewBreaker(cfg, func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }
	return b, &now, &transitions
}

// admitRecord admits one request and immediately resolves it, the
// common sequential-traffic shape.
func admitRecord(t *testing.T, b *Breaker, ok bool) {
	t.Helper()
	adm, allowed, _ := b.Allow()
	if !allowed {
		t.Fatal("request not admitted")
	}
	b.Record(adm, ok)
}

func TestBreakerTripsAtFailureRatio(t *testing.T) {
	b, _, trans := testBreaker(BreakerConfig{
		Window: 8, MinSamples: 4, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	admitRecord(t, b, true)
	admitRecord(t, b, false)
	admitRecord(t, b, true)
	if b.State() != BreakerClosed {
		t.Fatal("tripped below MinSamples")
	}
	admitRecord(t, b, false) // 4 samples, 2 failures = exactly the 0.5 ratio
	if b.State() != BreakerOpen {
		t.Fatalf("state %s, want open at ratio", b.State())
	}
	if len(*trans) != 1 || (*trans)[0] != "closed->open" {
		t.Fatalf("transitions %v", *trans)
	}
	if _, ok, wait := b.Allow(); ok || wait <= 0 {
		t.Fatalf("open breaker allowed a request (ok=%v wait=%v)", ok, wait)
	}
}

func TestBreakerStaysClosedUnderRatio(t *testing.T) {
	b, _, _ := testBreaker(BreakerConfig{
		Window: 8, MinSamples: 4, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	for i := 0; i < 32; i++ {
		admitRecord(t, b, i%4 != 0) // 25% failures against a 50% threshold
	}
	if b.State() != BreakerClosed {
		t.Fatalf("breaker tripped at 25%% failures with a 50%% threshold")
	}
	if _, ok, _ := b.Allow(); !ok {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerCooldownProbeClose(t *testing.T) {
	b, now, trans := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	admitRecord(t, b, false)
	admitRecord(t, b, false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Before cooldown: still shedding, Retry-After counts down.
	*now = now.Add(400 * time.Millisecond)
	if _, ok, wait := b.Allow(); ok || wait != 600*time.Millisecond {
		t.Fatalf("want shed with 600ms left, got ok=%v wait=%v", ok, wait)
	}
	// After cooldown: half-open, exactly HalfOpenProbes probes pass.
	*now = now.Add(700 * time.Millisecond)
	var probes [2]Admission
	for i := range probes {
		adm, ok, _ := b.Allow()
		if !ok {
			t.Fatalf("probe %d not admitted", i)
		}
		if !adm.Probe() {
			t.Fatalf("half-open admission %d is not a probe", i)
		}
		probes[i] = adm
	}
	if _, ok, _ := b.Allow(); ok {
		t.Fatal("probe quota exceeded")
	}
	b.Record(probes[0], true)
	if b.State() != BreakerHalfOpen {
		t.Fatal("one probe success must not close a 2-probe breaker")
	}
	b.Record(probes[1], true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after all probes succeeded, want closed", b.State())
	}
	want := []string{"closed->open", "open->half_open", "half_open->closed"}
	if len(*trans) != len(want) {
		t.Fatalf("transitions %v, want %v", *trans, want)
	}
	for i := range want {
		if (*trans)[i] != want[i] {
			t.Fatalf("transition %d = %s, want %s", i, (*trans)[i], want[i])
		}
	}
	// Closed again with a fresh window: one failure must not re-trip.
	admitRecord(t, b, false)
	if b.State() != BreakerClosed {
		t.Fatal("window not reset after close")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, now, _ := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 1,
	})
	admitRecord(t, b, false)
	admitRecord(t, b, false)
	*now = now.Add(time.Second)
	adm, ok, _ := b.Allow()
	if !ok {
		t.Fatal("probe not admitted after cooldown")
	}
	b.Record(adm, false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %s after failed probe, want open", b.State())
	}
	// The cooldown clock restarted at the failed probe.
	if _, ok, wait := b.Allow(); ok || wait != time.Second {
		t.Fatalf("want full cooldown again, got ok=%v wait=%v", ok, wait)
	}
}

func TestBreakerOpenIgnoresLateResults(t *testing.T) {
	b, _, _ := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 2,
	})
	// Two requests admitted while closed that will finish after the trip.
	late1, _, _ := b.Allow()
	late2, _, _ := b.Allow()
	admitRecord(t, b, false)
	admitRecord(t, b, false)
	if b.State() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	// Their stale outcomes must not perturb the open state or the next
	// half-open round.
	b.Record(late1, true)
	b.Record(late2, false)
	if b.State() != BreakerOpen {
		t.Fatal("late results must not move an open breaker")
	}
}

// TestBreakerProbeReleaseFreesSlot is the probe-leak regression: a probe
// admission resolved with a neutral outcome (Release) must return its
// slot so a later request can probe. Before the fix, two neutral
// resolutions during half-open exhausted the quota permanently and the
// breaker shed every request forever.
func TestBreakerProbeReleaseFreesSlot(t *testing.T) {
	b, now, _ := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 1,
	})
	admitRecord(t, b, false)
	admitRecord(t, b, false)
	*now = now.Add(time.Second)
	// Burn the 1-probe quota with neutral outcomes several times over;
	// each Release must free the slot again.
	for i := 0; i < 3; i++ {
		adm, ok, _ := b.Allow()
		if !ok {
			t.Fatalf("probe attempt %d not admitted after release", i)
		}
		b.Release(adm)
	}
	adm, ok, _ := b.Allow()
	if !ok {
		t.Fatal("probe not admitted after neutral resolutions")
	}
	b.Record(adm, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after successful probe, want closed", b.State())
	}
}

// TestBreakerStaleAdmissionsIgnoredInHalfOpen covers generation
// tracking: outcomes and releases of admissions issued before the last
// transition must not count as probe results.
func TestBreakerStaleAdmissionsIgnoredInHalfOpen(t *testing.T) {
	b, now, _ := testBreaker(BreakerConfig{
		Window: 4, MinSamples: 2, FailureRatio: 0.5,
		Cooldown: time.Second, HalfOpenProbes: 1,
	})
	stale, _, _ := b.Allow() // closed-era admission, resolves late
	admitRecord(t, b, false)
	admitRecord(t, b, false)
	*now = now.Add(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("breaker should be half-open after cooldown")
	}
	// A slow failure from the closed era is not a probe verdict.
	b.Record(stale, false)
	if b.State() != BreakerHalfOpen {
		t.Fatal("stale failure re-opened a half-open breaker")
	}
	// A stale success must not close the breaker before a real probe ran.
	b.Record(stale, true)
	if b.State() != BreakerHalfOpen {
		t.Fatal("stale success closed the breaker without a probe")
	}
	// A stale probe admission from a previous half-open round must not
	// free this round's slot.
	probe, ok, _ := b.Allow()
	if !ok {
		t.Fatal("probe not admitted")
	}
	b.Record(probe, false) // re-opens; probe is now a stale admission
	*now = now.Add(time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatal("breaker should be half-open again")
	}
	fresh, ok, _ := b.Allow()
	if !ok {
		t.Fatal("fresh probe not admitted")
	}
	b.Release(probe) // stale: must not decrement this round's quota
	if _, ok, _ := b.Allow(); ok {
		t.Fatal("stale release freed a probe slot from a newer round")
	}
	b.Record(fresh, true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %s after fresh probe success, want closed", b.State())
	}
}

// TestBreakerDefaults pins where the breaker's values come from: New
// fills every unset field from DefaultConfig, keeps the fields a caller
// set, and clamps MinSamples to the window.
func TestBreakerDefaults(t *testing.T) {
	s := newStubReplica(okRecommend)
	defer s.srv.Close()
	def := DefaultConfig().Breaker
	if got := testRouter(t, Config{}, s.srv.URL).cfg.Breaker; got != def {
		t.Fatalf("zero breaker config filled to %+v, want DefaultConfig's %+v", got, def)
	}
	got := testRouter(t, Config{Breaker: BreakerConfig{Window: 4, MinSamples: 9, Cooldown: time.Minute}}, s.srv.URL).cfg.Breaker
	want := BreakerConfig{Window: 4, MinSamples: 4, FailureRatio: def.FailureRatio,
		Cooldown: time.Minute, HalfOpenProbes: def.HalfOpenProbes}
	if got != want {
		t.Fatalf("partial breaker config filled to %+v, want %+v", got, want)
	}
}
