package telemetry

import (
	"fmt"
	"sync"
	"testing"
)

// labels returns a label builder for a fixed block.
func labels(s string) func() string { return func() string { return s } }

func TestHistogramExemplarLastWorst(t *testing.T) {
	h := NewHistogram([]float64{1, 10})

	h.ObserveExemplar(0.5, labels(`trace_id="1"`))
	// Smaller: must not displace, so its labels are never built.
	h.ObserveExemplar(0.2, func() string { t.Fatal("labels built for a kept exemplar"); return "" })
	h.ObserveExemplar(0.9, labels(`trace_id="3"`)) // worse: must displace
	h.ObserveExemplar(42, labels(`trace_id="4"`))  // overflow bucket

	s := h.Snapshot()
	if s.Count != 4 || s.Counts[0] != 3 || s.Counts[2] != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if len(s.Exemplars) != 3 {
		t.Fatalf("want 3 exemplar slots, got %d", len(s.Exemplars))
	}
	if ex := s.Exemplars[0]; ex == nil || ex.Value != 0.9 || ex.Labels != `trace_id="3"` {
		t.Fatalf("bucket 0 exemplar: %+v, want worst value 0.9 from trace 3", ex)
	}
	if s.Exemplars[1] != nil {
		t.Fatalf("empty bucket grew an exemplar: %+v", s.Exemplars[1])
	}
	if ex := s.Exemplars[2]; ex == nil || ex.Value != 42 {
		t.Fatalf("overflow bucket exemplar: %+v", ex)
	}
}

func TestHistogramExemplarTieKeepsLatest(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.ObserveExemplar(0.5, labels("first"))
	h.ObserveExemplar(0.5, labels("second"))
	if ex := h.Snapshot().Exemplars[0]; ex.Labels != "second" {
		t.Fatalf("tie must keep the latest observation, got %+v", ex)
	}
}

func TestHistogramExemplarBounded(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 3})
	for i := 0; i < 10000; i++ {
		h.ObserveExemplar(float64(i%5), labels(fmt.Sprintf(`i="%d"`, i)))
	}
	s := h.Snapshot()
	if len(s.Exemplars) != 4 {
		t.Fatalf("exemplar storage must stay one-per-bucket, got %d slots", len(s.Exemplars))
	}
	for i, ex := range s.Exemplars {
		if ex == nil {
			t.Fatalf("bucket %d lost its exemplar", i)
		}
	}
}

func TestHistogramExemplarConcurrent(t *testing.T) {
	h := NewHistogram([]float64{100, 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveExemplar(float64(g*1000+i), labels(fmt.Sprintf(`g="%d"`, g)))
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	// The overflow bucket's exemplar must be the global worst.
	last := s.Exemplars[len(s.Exemplars)-1]
	if last == nil || last.Value != 7999 {
		t.Fatalf("overflow exemplar %+v, want value 7999", last)
	}
}
