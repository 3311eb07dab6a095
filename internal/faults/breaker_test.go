package faults

import (
	"testing"
	"time"
)

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	now := time.Duration(0)
	for i := 0; i < 2; i++ {
		if !b.Allow(now) {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		if b.Failure(now) {
			t.Fatalf("breaker opened after %d failures (threshold 3)", i+1)
		}
	}
	if !b.Allow(now) {
		t.Fatal("breaker rejected below threshold")
	}
	if !b.Failure(now) {
		t.Fatal("third failure did not open the circuit")
	}
	if b.State(now) != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State(now))
	}
	if b.Allow(now) || b.Allow(now+59*time.Second) {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if b.Skips() != 2 {
		t.Fatalf("skips = %d, want 2", b.Skips())
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: time.Minute})
	b.Allow(0)
	b.Failure(0) // opens
	probeAt := 61 * time.Second
	if b.State(probeAt) != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", b.State(probeAt))
	}
	if !b.Allow(probeAt) {
		t.Fatal("half-open breaker rejected the probe")
	}
	// While the probe is outstanding, nothing else passes.
	if b.Allow(probeAt) {
		t.Fatal("second concurrent probe admitted")
	}
	// Probe fails: circuit re-opens and the cooldown restarts from now.
	if !b.Failure(probeAt) {
		t.Fatal("failed probe did not re-open")
	}
	if b.Allow(probeAt + 30*time.Second) {
		t.Fatal("re-opened breaker admitted inside restarted cooldown")
	}
	// Next probe succeeds: circuit closes fully.
	healAt := probeAt + 61*time.Second
	if !b.Allow(healAt) {
		t.Fatal("second probe rejected")
	}
	b.Success()
	if b.State(healAt) != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.State(healAt))
	}
	for i := 0; i < 10; i++ {
		if !b.Allow(healAt) {
			t.Fatal("closed breaker rejecting after recovery")
		}
		b.Success()
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
}

func TestBreakerSuccessResetsFailureRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: time.Minute})
	for i := 0; i < 10; i++ {
		b.Allow(0)
		b.Failure(0)
		b.Allow(0)
		b.Failure(0)
		b.Allow(0)
		b.Success() // interleaved success: never 3 consecutive failures
	}
	if b.State(0) != BreakerClosed || b.Opens() != 0 {
		t.Fatalf("state = %s opens = %d, want closed/0", b.State(0), b.Opens())
	}
}

func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 5; i++ {
		b.Allow(0)
		b.Failure(0)
	}
	if b.State(0) != BreakerOpen {
		t.Fatal("default threshold is not 5")
	}
	if b.State(59*time.Second) != BreakerOpen || b.State(60*time.Second) != BreakerHalfOpen {
		t.Fatal("default cooldown is not 60s")
	}
}
