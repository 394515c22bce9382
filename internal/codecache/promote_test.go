package codecache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"selfgo/internal/obj"
)

// seed makes k resident with successfully-compiled code.
func seed(t *testing.T, c *Cache[string], k Key, code string) {
	t.Helper()
	v, out, err := c.Get(k, func() (string, error) { return code, nil })
	if err != nil || v != code || out != Compiled {
		t.Fatalf("seed Get = %q, %v, %v", v, out, err)
	}
}

func TestPromoteSwapsInPlace(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "hot", w.IntMap)
	seed(t, c, k, "baseline-code")
	gen0 := c.Generation()

	done := make(chan bool, 1)
	if !c.Promote(k, func() (string, error) { return "optimized-code", nil },
		func(v string, err error, installed bool) { done <- installed }) {
		t.Fatal("Promote refused a resident completed entry")
	}
	if !<-done {
		t.Fatal("promotion not installed")
	}
	c.DrainPromotions()

	if v, out, err := c.Get(k, nil); err != nil || v != "optimized-code" || out != Hit {
		t.Fatalf("post-promotion Get = %q, %v, %v", v, out, err)
	}
	if c.Generation() == gen0 {
		t.Error("successful promotion must bump the generation so per-VM memos drop")
	}
	st := c.Stats()
	if st.Promotions != 1 || st.PromoteFails != 0 || st.PromoteDiscards != 0 {
		t.Errorf("stats = %+v", st)
	}
	// The swap is in place: no extra miss, no eviction, CompileOnce
	// still holds for the Get-side counters.
	if st.Misses != 1 || st.Evicted != 0 || !st.CompileOnce() {
		t.Errorf("promotion disturbed the Get counters: %+v", st)
	}
}

// TestPromoteInvalidationRace pins the close of the promote-vs-
// invalidate window: an InvalidateMap that lands while the promotion
// compile is running must win — the promoted code was built against
// the old world shape and installing it would resurrect stale code
// past the invalidation. The flight detects the entry swap and
// discards.
func TestPromoteInvalidationRace(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "racy", w.IntMap)
	seed(t, c, k, "old-code")

	compiling := make(chan struct{})
	release := make(chan struct{})
	done := make(chan bool, 1)
	ok := c.Promote(k, func() (string, error) {
		close(compiling) // promotion compile has started...
		<-release        // ...and now blocks until the test invalidates
		return "stale-promoted-code", nil
	}, func(v string, err error, installed bool) { done <- installed })
	if !ok {
		t.Fatal("Promote refused")
	}

	<-compiling
	if n := c.InvalidateMap(w.IntMap); n != 1 {
		t.Fatalf("InvalidateMap removed %d entries, want 1", n)
	}
	close(release)
	if <-done {
		t.Fatal("promotion installed over an invalidation")
	}
	c.DrainPromotions()

	// The stale code must not have been resurrected: the key is simply
	// gone, and the next Get compiles fresh.
	if _, ok := c.Peek(k); ok {
		t.Fatal("invalidated key resident after discarded promotion")
	}
	v, out, err := c.Get(k, func() (string, error) { return "new-code", nil })
	if err != nil || v != "new-code" || out != Compiled {
		t.Fatalf("post-race Get = %q, %v, %v", v, out, err)
	}
	st := c.Stats()
	if st.PromoteDiscards != 1 || st.Promotions != 0 {
		t.Errorf("stats = %+v, want exactly one discard", st)
	}
}

// TestPromoteRecompileRace: same window, but a fresh Get flight
// recompiled the key after the invalidation. The promotion must not
// clobber the newer entry either.
func TestPromoteRecompileRace(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "reflow", w.IntMap)
	seed(t, c, k, "old-code")

	compiling := make(chan struct{})
	release := make(chan struct{})
	done := make(chan bool, 1)
	c.Promote(k, func() (string, error) {
		close(compiling)
		<-release
		return "stale-promoted-code", nil
	}, func(v string, err error, installed bool) { done <- installed })

	<-compiling
	c.InvalidateMap(w.IntMap)
	seed(t, c, k, "recompiled-code") // fresh flight takes the slot
	close(release)
	if <-done {
		t.Fatal("promotion clobbered a newer entry")
	}
	c.DrainPromotions()
	if v, _, err := c.Get(k, nil); err != nil || v != "recompiled-code" {
		t.Fatalf("Get = %q, %v; the recompiled entry must survive", v, err)
	}
}

func TestPromoteFailureKeepsOldCode(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "fragile", w.IntMap)
	seed(t, c, k, "working-code")
	gen0 := c.Generation()

	done := make(chan bool, 1)
	c.Promote(k, func() (string, error) { return "", errors.New("opt pass exploded") },
		func(v string, err error, installed bool) { done <- installed })
	if <-done {
		t.Fatal("failed promotion reported installed")
	}
	c.DrainPromotions()

	if v, out, err := c.Get(k, nil); err != nil || v != "working-code" || out != Hit {
		t.Fatalf("Get after failed promotion = %q, %v, %v; old tier must keep serving", v, out, err)
	}
	if c.Generation() != gen0 {
		t.Error("failed promotion moved the generation")
	}
	if st := c.Stats(); st.PromoteFails != 1 || st.Promotions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPromotePanicIsContained(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "explosive", w.IntMap)
	seed(t, c, k, "working-code")

	done := make(chan error, 1)
	c.Promote(k, func() (string, error) { panic("compiler bug") },
		func(v string, err error, installed bool) { done <- err })
	err := <-done
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	c.DrainPromotions()
	if v, _, err := c.Get(k, nil); err != nil || v != "working-code" {
		t.Fatalf("Get after panicked promotion = %q, %v", v, err)
	}
	if st := c.Stats(); st.PromoteFails != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPromoteRefusals(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	nothing := func() (string, error) { return "x", nil }

	// Non-resident key.
	if c.Promote(methKey(w, "absent", w.IntMap), nothing, nil) {
		t.Error("promoted a non-resident key")
	}

	// Key mid-compile by a Get flight.
	k := methKey(w, "inflight", w.IntMap)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Get(k, func() (string, error) {
		close(started)
		<-release
		return "code", nil
	})
	<-started
	if c.Promote(k, nothing, nil) {
		t.Error("promoted a key whose Get flight is still compiling")
	}
	close(release)

	// Negatively-cached failure.
	kf := methKey(w, "alwaysfails", w.IntMap)
	for i := 0; i < maxCompileFails; i++ {
		c.Get(kf, func() (string, error) { return "", errors.New("nope") })
	}
	if _, _, err := c.Get(kf, nil); err == nil {
		t.Fatal("failure not negatively cached; test setup wrong")
	}
	if c.Promote(kf, nothing, nil) {
		t.Error("promoted a negatively-cached failure")
	}
	c.DrainPromotions()
}

// TestPromoteSingleFlight: N concurrent Promote calls for one hot key
// run the higher-tier compile at most once; the rest are refused.
func TestPromoteSingleFlight(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "contested", w.IntMap)
	seed(t, c, k, "baseline-code")

	var compiles, accepted int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ok := c.Promote(k, func() (string, error) {
				atomic.AddInt32(&compiles, 1)
				<-release
				return "optimized-code", nil
			}, nil)
			if ok {
				atomic.AddInt32(&accepted, 1)
			}
		}()
	}
	wg.Wait()
	close(release)
	c.DrainPromotions()

	if got := atomic.LoadInt32(&accepted); got != 1 {
		t.Errorf("%d Promote calls accepted, want 1", got)
	}
	if got := atomic.LoadInt32(&compiles); got != 1 {
		t.Errorf("compile ran %d times, want 1", got)
	}
	if v, _, err := c.Get(k, nil); err != nil || v != "optimized-code" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if st := c.Stats(); st.Promotions != 1 {
		t.Errorf("stats = %+v", st)
	}

	// After the flight lands the key is promotable again (e.g. a future
	// higher tier); the promoting mark must have been cleared.
	done := make(chan bool, 1)
	if !c.Promote(k, func() (string, error) { return "re-promoted", nil },
		func(v string, err error, installed bool) { done <- installed }) {
		t.Fatal("key not promotable after its flight completed")
	}
	if !<-done {
		t.Fatal("second promotion not installed")
	}
	c.DrainPromotions()
}

// TestPromoteSecondRungDiscard: the promote-vs-invalidate window at a
// *second* rung. The cache lets a caller promote over already-promoted
// code; when an invalidation lands while that second compile is in
// flight, its code was built against the old world shape and must be
// discarded, exactly as at the first rung — the discard discipline is
// rung-agnostic.
func TestPromoteSecondRungDiscard(t *testing.T) {
	w := obj.NewWorld()
	c := New[string]()
	k := methKey(w, "climber", w.IntMap)
	seed(t, c, k, "baseline-code")

	// First rung lands normally.
	done := make(chan bool, 1)
	if !c.Promote(k, func() (string, error) { return "optimizing-code", nil },
		func(v string, err error, installed bool) { done <- installed }) {
		t.Fatal("first-rung Promote refused")
	}
	if !<-done {
		t.Fatal("first-rung promotion not installed")
	}
	if v, ok := c.Peek(k); !ok || v != "optimizing-code" {
		t.Fatalf("after first rung Peek = %q, %v", v, ok)
	}

	// Second rung: invalidate while its compile is in flight.
	compiling := make(chan struct{})
	release := make(chan struct{})
	if !c.Promote(k, func() (string, error) {
		close(compiling)
		<-release
		return "second-rung-code", nil
	}, func(v string, err error, installed bool) { done <- installed }) {
		t.Fatal("second-rung Promote refused")
	}
	<-compiling
	if n := c.InvalidateMap(w.IntMap); n != 1 {
		t.Fatalf("InvalidateMap removed %d entries, want 1", n)
	}
	close(release)
	if <-done {
		t.Fatal("second-rung promotion installed over an invalidation")
	}
	c.DrainPromotions()

	if _, ok := c.Peek(k); ok {
		t.Fatal("invalidated key resident after discarded second-rung promotion")
	}
	st := c.Stats()
	if st.Promotions != 1 || st.PromoteDiscards != 1 {
		t.Errorf("stats = %+v, want one install (first rung) and one discard (second)", st)
	}
}
