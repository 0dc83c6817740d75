package obs

import (
	"reflect"
	"testing"
)

func TestCounterShardingAndMerge(t *testing.T) {
	m := NewMetrics(4)
	c := m.Counter("test_events_total", "test counter")
	c.Add(0, 5)
	c.Add(3, 7)
	c.Add(3, 1)
	c.AddHost(2)
	if got := c.Value(); got != 15 {
		t.Fatalf("Value() = %d, want 15", got)
	}
	want := []int64{5, 0, 0, 8}
	if got := c.PerSM(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PerSM() = %v, want %v", got, want)
	}
}

func TestCounterOutOfRangeSMGoesToHostShard(t *testing.T) {
	m := NewMetrics(2)
	c := m.Counter("test_oob_total", "")
	c.Add(-1, 3)
	c.Add(99, 4)
	if got := c.Value(); got != 7 {
		t.Fatalf("Value() = %d, want 7", got)
	}
	// Neither landed in a real SM shard.
	if got := c.PerSM(); got[0] != 0 || got[1] != 0 {
		t.Fatalf("PerSM() = %v, want zeros", got)
	}
}

func TestMetricsIdempotentRegistration(t *testing.T) {
	m := NewMetrics(2)
	a := m.Counter("dup_total", "first")
	b := m.Counter("dup_total", "second help ignored")
	if a != b {
		t.Fatal("re-registering the same name must return the same counter")
	}
	if len(m.Counters()) != 1 {
		t.Fatalf("got %d counters, want 1", len(m.Counters()))
	}
}

func TestMetricsRejectsInvalidName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	NewMetrics(1).Counter("0bad name", "")
}

func TestMetricsValues(t *testing.T) {
	m := NewMetrics(2)
	m.Counter("a_total", "").Add(0, 1)
	m.Counter("b_total", "").Add(1, 2)
	want := map[string]int64{"a_total": 1, "b_total": 2}
	if got := m.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Values() = %v, want %v", got, want)
	}
}
