package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"uniask/internal/vclock"
)

// fastPolicy retries aggressively with negligible real sleeps so tests stay
// quick without a virtual clock.
func fastPolicy(attempts int) Policy {
	return Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
}

var errBoom = errors.New("boom")

func TestDoPolicyTable(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name      string
		ctx       context.Context
		policy    Policy
		failures  int // op fails this many times before succeeding
		wantCalls int
		wantErr   error // sentinel the returned error must match (nil = success)
	}{
		{
			name: "success first try", ctx: context.Background(),
			policy: fastPolicy(3), failures: 0, wantCalls: 1,
		},
		{
			name: "retry until success", ctx: context.Background(),
			policy: fastPolicy(3), failures: 2, wantCalls: 3,
		},
		{
			name: "budget exhausted", ctx: context.Background(),
			policy: fastPolicy(3), failures: 99, wantCalls: 3, wantErr: ErrBudgetExhausted,
		},
		{
			name: "zero attempts means default budget", ctx: context.Background(),
			policy: Policy{BaseDelay: time.Microsecond}, failures: 99,
			wantCalls: DefaultMaxAttempts, wantErr: ErrBudgetExhausted,
		},
		{
			name: "negative attempts disables retry", ctx: context.Background(),
			policy: Policy{MaxAttempts: -1}, failures: 99, wantCalls: 1, wantErr: ErrBudgetExhausted,
		},
		{
			name: "ctx already cancelled refuses to start", ctx: cancelled,
			policy: fastPolicy(3), failures: 0, wantCalls: 0, wantErr: context.Canceled,
		},
		{
			name: "terminal error stops immediately", ctx: context.Background(),
			policy: fastPolicy(5), failures: 99, wantCalls: 1, wantErr: errBoom,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			p := tc.policy
			terminal := tc.name == "terminal error stops immediately"
			err := Do(tc.ctx, p, func(context.Context) error {
				calls++
				if calls <= tc.failures {
					if terminal {
						return MarkTerminal(errBoom)
					}
					return errBoom
				}
				return nil
			})
			if calls != tc.wantCalls {
				t.Fatalf("calls = %d, want %d", calls, tc.wantCalls)
			}
			if tc.wantErr == nil && err != nil {
				t.Fatalf("err = %v, want nil", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestBudgetErrorKeepsCause checks that the exhausted-budget error still
// matches the underlying failure, so callers can classify the cause.
func TestBudgetErrorKeepsCause(t *testing.T) {
	err := Do(context.Background(), fastPolicy(2), func(context.Context) error { return errBoom })
	if !errors.Is(err, ErrBudgetExhausted) || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want both ErrBudgetExhausted and errBoom", err)
	}
}

func TestCancellationMidRetryWins(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: 5, BaseDelay: time.Millisecond}, func(context.Context) error {
		calls++
		if calls == 2 {
			cancel()
		}
		return errBoom
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

// TestAttemptTimeoutIsRetryable: an attempt exceeding AttemptTimeout while
// the caller's context is alive must be retried, not surfaced as terminal.
func TestAttemptTimeoutIsRetryable(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, AttemptTimeout: 5 * time.Millisecond}
	err := Do(context.Background(), p, func(ctx context.Context) error {
		calls++
		if calls == 1 {
			<-ctx.Done() // simulate a hang cut short by the attempt deadline
			return ctx.Err()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("err = %v, want nil after retrying past the slow attempt", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestDelaysJitterDeterminism(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	a, b := p.Delays(6), p.Delays(6)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed gave different delay sequences:\n%v\n%v", a, b)
	}
	p2 := p
	p2.Seed = 43
	if reflect.DeepEqual(a, p2.Delays(6)) {
		t.Fatalf("different seeds gave identical delay sequences: %v", a)
	}
	// Capped exponential shape: non-decreasing up to the cap, never above it.
	for i, d := range a {
		if d > time.Second {
			t.Fatalf("delay[%d] = %v exceeds MaxDelay", i, d)
		}
		if d <= 0 {
			t.Fatalf("delay[%d] = %v not positive", i, d)
		}
	}
	if a[5] < a[0] {
		t.Fatalf("delays shrank: %v", a)
	}
}

func TestDoValueReturnsValue(t *testing.T) {
	v, err := DoValue(context.Background(), fastPolicy(3), func(context.Context) (int, error) {
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("DoValue = %d, %v", v, err)
	}
}

func TestBreakerCycle(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Name: "dep", FailureThreshold: 3, Cooldown: time.Minute, Clock: clock,
		OnStateChange: func(name string, from, to State) {
			transitions = append(transitions, fmt.Sprintf("%s:%s->%s", name, from, to))
		},
	})

	// Closed: failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
			t.Fatalf("closed call %d: %v", i, err)
		}
	}
	if b.State() != Closed {
		t.Fatalf("state after 2 failures = %v", b.State())
	}
	// A success resets the run.
	b.Do(func() error { return nil })
	if got := b.Status().ConsecutiveFailures; got != 0 {
		t.Fatalf("failures after success = %d", got)
	}

	// Third consecutive failure in a fresh run opens the circuit.
	for i := 0; i < 3; i++ {
		b.Do(func() error { return errBoom })
	}
	if b.State() != Open {
		t.Fatalf("state after threshold = %v", b.State())
	}
	if err := b.Do(func() error { t.Fatal("op ran while open"); return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open call err = %v", err)
	}

	// Cooldown elapses → half-open; a successful probe closes it.
	clock.Advance(time.Minute)
	if b.State() != HalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != Closed {
		t.Fatalf("state after probe success = %v", b.State())
	}

	want := []string{"dep:closed->open", "dep:open->half-open", "dep:half-open->closed"}
	if !reflect.DeepEqual(transitions, want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	b.Do(func() error { return errBoom })
	if b.State() != Open {
		t.Fatalf("state = %v", b.State())
	}
	clock.Advance(time.Second)
	if err := b.Do(func() error { return errBoom }); !errors.Is(err, errBoom) {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want Open", b.State())
	}
}

// TestBreakerHalfOpenSingleProbe races many goroutines against a half-open
// breaker and asserts exactly one is admitted while the probe is in flight
// (run under -race via make check).
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1, Cooldown: time.Second, Clock: clock})
	b.Do(func() error { return errBoom })
	clock.Advance(time.Second)

	const goroutines = 16
	results := make(chan bool, goroutines)
	release := make(chan struct{})
	done := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		go func() {
			ok := b.Allow() == nil
			results <- ok
			if ok {
				// Hold the probe until every goroutine has tried Allow, so
				// no late Allow can observe a re-closed breaker.
				<-release
				b.Record(nil)
				close(done)
			}
		}()
	}
	admitted := 0
	for i := 0; i < goroutines; i++ {
		if <-results {
			admitted++
		}
	}
	if admitted != 1 {
		t.Fatalf("admitted probes = %d, want exactly 1", admitted)
	}
	close(release)
	<-done
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
}

// TestBreakerIgnoresCancellation: a cancelled caller must not count against
// the dependency's health.
func TestBreakerIgnoresCancellation(t *testing.T) {
	b := NewBreaker(BreakerConfig{Name: "dep", FailureThreshold: 1})
	b.Do(func() error { return context.Canceled })
	if b.State() != Closed {
		t.Fatalf("state after cancellation = %v, want Closed", b.State())
	}
}

func TestHedgeFastPrimaryWins(t *testing.T) {
	calls := 0
	v, err := Hedge(context.Background(), nil, 50*time.Millisecond, func(ctx context.Context, attempt int) (int, error) {
		calls++
		return attempt, nil
	})
	if err != nil || v != 0 {
		t.Fatalf("Hedge = %d, %v", v, err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no hedge for a fast primary)", calls)
	}
}

func TestHedgeRescuesSlowPrimary(t *testing.T) {
	v, err := Hedge(context.Background(), nil, time.Millisecond, func(ctx context.Context, attempt int) (int, error) {
		if attempt == 0 {
			<-ctx.Done() // primary hangs until the hedge wins and cancels it
			return -1, ctx.Err()
		}
		return attempt, nil
	})
	if err != nil || v != 1 {
		t.Fatalf("Hedge = %d, %v; want the hedged attempt's result", v, err)
	}
}

func TestHedgeRespectsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Hedge(ctx, nil, time.Millisecond, func(ctx context.Context, attempt int) (int, error) {
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

// waitArmed blocks until the virtual clock has exactly n armed timers.
func waitArmed(t *testing.T, clock *vclock.Virtual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clock.PendingWaiters() != n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d armed timers (have %d)", n, clock.PendingWaiters())
		}
		time.Sleep(10 * time.Microsecond)
	}
}

// The retry engine computes each backoff only when an attempt fails; the
// waits it actually sleeps must still be exactly Delays(n), wait by wait.
func TestRetrySleepsDelaysSequence(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		clock := vclock.NewVirtual(time.Unix(0, 0))
		p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 150 * time.Millisecond, Seed: seed, Clock: clock}
		want := p.Delays(p.MaxAttempts - 1)
		done := make(chan error, 1)
		go func() {
			done <- Do(context.Background(), p, func(context.Context) error { return errBoom })
		}()
		for i, d := range want {
			waitArmed(t, clock, 1)
			clock.Advance(d - time.Nanosecond)
			if clock.PendingWaiters() != 1 {
				t.Fatalf("seed %d: wait %d ended before %v", seed, i, d)
			}
			clock.Advance(time.Nanosecond)
		}
		if err := <-done; !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("seed %d: err = %v, want budget exhausted", seed, err)
		}
		if got, total := clock.Now().Sub(time.Unix(0, 0)), sum(want); got != total {
			t.Fatalf("seed %d: slept %v in all, want %v", seed, got, total)
		}
	}
}

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// A call that succeeds on its first attempt must not pay for the backoff
// schedule (a seeded math/rand source is ~5 KB): it allocates nothing.
func TestFirstAttemptSuccessAllocatesNothing(t *testing.T) {
	p := Policy{Seed: 9}
	op := func(context.Context) (int, error) { return 1, nil }
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DoValue(ctx, p, op); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("first-attempt success allocates %.1f times per call, want 0", allocs)
	}
}
