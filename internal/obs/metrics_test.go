package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestNewCounterIsIdempotentPerName(t *testing.T) {
	a := NewCounter("test.metrics.counter")
	b := NewCounter("test.metrics.counter")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Add(3)
	b.Add(4)
	if a.Value() != 7 {
		t.Fatalf("Value = %d, want 7", a.Value())
	}
	if text := exposition(t); !strings.Contains(text, "\ntest_metrics_counter 7\n") {
		t.Fatalf("counter not exposed with value 7:\n%s", text)
	}
}

// exposition renders the default registry.
func exposition(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterConcurrentAdd(t *testing.T) {
	c := NewCounter("test.metrics.concurrent")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestRegisterGaugeFuncFirstRegistrationWins(t *testing.T) {
	RegisterGaugeFunc("test.metrics.ratio", "", func() float64 { return 0.5 })
	RegisterGaugeFunc("test.metrics.ratio", "", func() float64 { return 0.9 }) // must not panic
	text := exposition(t)
	if !strings.Contains(text, "\ntest_metrics_ratio 0.5\n") || strings.Contains(text, "test_metrics_ratio 0.9") {
		t.Fatalf("first registration should win:\n%s", text)
	}
}

func TestRegisteringOneNameAsTwoKindsPanics(t *testing.T) {
	NewCounter("test.metrics.kind_clash")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter's name as a histogram did not panic")
		}
	}()
	NewHistogram("test.metrics.kind_clash", "")
}
