package obs

import (
	"strings"
	"sync"
	"testing"

	"maxwarp/internal/report"
)

func TestHostCountersSurviveConcurrentHammering(t *testing.T) {
	m := NewHostMetrics()
	c := m.Counter("host_events_total", "events")
	vec := m.CounterVec("host_coded_total", "coded events", "code")
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			code := "200"
			if id%2 == 1 {
				code = "429"
			}
			for j := 0; j < per; j++ {
				c.Inc()
				vec.With(code).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := vec.Value("200") + vec.Value("429"); got != goroutines*per {
		t.Fatalf("vec total = %d, want %d", got, goroutines*per)
	}
}

func TestHostHistBuckets(t *testing.T) {
	var h HostHist
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	// Bucket 0 holds 1, bucket i in 1..9 holds (2^(i-1), 2^i], and bucket
	// 10 holds the 488 values in (512, 1000].
	for i := 0; i < HostHistBuckets; i++ {
		want := int64(0)
		switch {
		case i == 0:
			want = 1
		case i <= 9:
			want = 1 << (i - 1)
		case i == 10:
			want = 488
		}
		if got := h.buckets[i].Load(); got != want {
			t.Errorf("bucket %d holds %d values, want %d", i, got, want)
		}
	}
}

func TestHostHistBucketIndexEdges(t *testing.T) {
	cases := map[int64]int{
		-5: 0, 0: 0, 1: 0,
		2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4,
		1 << 29: 29, 1<<62 + 1: HostHistBuckets - 1,
	}
	for v, want := range cases {
		if got := hostBucketIndex(v); got != want {
			t.Errorf("bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHostFamiliesRenderAndParseBack(t *testing.T) {
	m := NewHostMetrics()
	m.Counter("srv_requests_total", "requests").Add(7)
	m.CounterVec("srv_shed_total", "sheds", "reason").With("queue").Add(3)
	m.CounterVec("srv_shed_total", "sheds", "reason").With("quota").Add(2)
	m.Gauge("srv_queue_depth", "queued requests", func() float64 { return 4 })
	m.HistogramVec("srv_latency_us", "latency", "algo").With("bfs").Observe(100)
	m.Histogram("srv_wait_us", "wait").Observe(9)

	text, err := m.PromText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"srv_requests_total 7",
		`srv_shed_total{reason="queue"} 3`,
		`srv_shed_total{reason="quota"} 2`,
		"srv_queue_depth 4",
		`srv_latency_us{algo="bfs",le="128"}`,
		`srv_wait_us{stat="count"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	fams, err := report.ParsePromText(text)
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if f := report.FamilyByName(fams, "srv_requests_total"); f == nil || f.Samples[0].Value != 7 {
		t.Fatalf("round-trip lost srv_requests_total: %+v", f)
	}
	if v, ok := report.SampleValue(fams, "srv_shed_total", report.Label{Name: "reason", Value: "queue"}); !ok || v != 3 {
		t.Fatalf("SampleValue(srv_shed_total, queue) = %v, %v", v, ok)
	}
}

func TestHostFamiliesDeterministicOrder(t *testing.T) {
	build := func(order []string) string {
		m := NewHostMetrics()
		for _, name := range order {
			m.Counter(name, "x").Inc()
		}
		text, err := m.PromText()
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	a := build([]string{"m_a_total", "m_b_total", "m_c_total"})
	b := build([]string{"m_c_total", "m_a_total", "m_b_total"})
	if a != b {
		t.Fatalf("registration order leaked into exposition:\n%s\nvs\n%s", a, b)
	}
}
