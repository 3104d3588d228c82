package telemetry

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestLedgerNil(t *testing.T) {
	var l *Ledger
	l.Add(LedgerKey{Tenant: "a"}, LedgerEntry{Requests: 1})
	if s := l.Snapshot(); len(s.Rows) != 0 {
		t.Fatalf("nil snapshot = %+v", s)
	}
	if l.Overflowed() != 0 {
		t.Fatal("nil overflowed")
	}
}

func TestLedgerAccumulatesAndMirrors(t *testing.T) {
	reg := NewRegistry()
	l := NewLedger(reg)
	ka := LedgerKey{Tenant: "acme", Function: "sin", Method: "l-lut(i)"}
	kb := LedgerKey{Tenant: "bob", Function: "exp", Method: "cordic"}
	l.Add(ka, LedgerEntry{Requests: 1, Elements: 100, KernelCycles: 5000, BytesIn: 400, BytesOut: 400, ModeledSeconds: 0.25})
	l.Add(ka, LedgerEntry{Requests: 1, Elements: 50, KernelCycles: 2500, Degraded: 1})
	l.Add(kb, LedgerEntry{Requests: 1, Shed: 1})

	s := l.Snapshot()
	if len(s.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(s.Rows))
	}
	// Sorted by tenant: acme first.
	a := s.Rows[0]
	if a.Tenant != "acme" || a.Requests != 2 || a.Elements != 150 ||
		a.KernelCycles != 7500 || a.BytesIn != 400 || a.ModeledSeconds != 0.25 || a.Degraded != 1 {
		t.Fatalf("acme row = %+v", a)
	}
	if b := s.Rows[1]; b.Tenant != "bob" || b.Shed != 1 {
		t.Fatalf("bob row = %+v", b)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	exp := sb.String()
	for _, want := range []string{
		`tenant_kernel_cycles_total{tenant="acme",fn="sin",method="l-lut(i)"} 7500`,
		`tenant_elements_total{tenant="acme",fn="sin",method="l-lut(i)"} 150`,
		`tenant_shed_total{tenant="bob",fn="exp",method="cordic"} 1`,
		`tenant_degraded_total{tenant="acme",fn="sin",method="l-lut(i)"} 1`,
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, exp)
		}
	}
}

func TestLedgerOverflow(t *testing.T) {
	l := NewLedger(nil)
	for i := 0; i < maxLedgerRows; i++ {
		l.Add(LedgerKey{Tenant: "t" + strconv.Itoa(i)}, LedgerEntry{Requests: 1})
	}
	l.Add(LedgerKey{Tenant: "c"}, LedgerEntry{Requests: 1})
	l.Add(LedgerKey{Tenant: "d"}, LedgerEntry{Requests: 1, KernelCycles: 7})
	s := l.Snapshot()
	if len(s.Rows) != maxLedgerRows+1 { // the cap's rows, then overflow
		t.Fatalf("rows = %d, want %d", len(s.Rows), maxLedgerRows+1)
	}
	if s.Overflowed != 2 {
		t.Fatalf("overflowed = %d, want 2", s.Overflowed)
	}
	var of *LedgerRow
	for i := range s.Rows {
		if s.Rows[i].LedgerKey == overflowLedgerKey {
			of = &s.Rows[i]
		}
	}
	if of == nil || of.Requests != 2 || of.KernelCycles != 7 {
		t.Fatalf("overflow row = %+v", of)
	}
}

func TestMergeLedgers(t *testing.T) {
	a := LedgerSnapshot{Rows: []LedgerRow{
		{LedgerKey{Tenant: "t", Function: "sin", Method: "m-lut"}, LedgerEntry{Requests: 1, KernelCycles: 10}},
		{LedgerKey{Tenant: "u", Function: "exp", Method: "cordic"}, LedgerEntry{Requests: 2}},
	}}
	b := LedgerSnapshot{Rows: []LedgerRow{
		{LedgerKey{Tenant: "t", Function: "sin", Method: "m-lut"}, LedgerEntry{Requests: 3, KernelCycles: 30, Failovers: 1}},
	}, Overflowed: 4}
	m := MergeLedgers(a, b)
	if len(m.Rows) != 2 || m.Overflowed != 4 {
		t.Fatalf("merged = %+v", m)
	}
	if r := m.Rows[0]; r.Tenant != "t" || r.Requests != 4 || r.KernelCycles != 40 || r.Failovers != 1 {
		t.Fatalf("merged t row = %+v", r)
	}
	if empty := MergeLedgers(); len(empty.Rows) != 0 {
		t.Fatalf("empty merge = %+v", empty)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewLedger(NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := LedgerKey{Tenant: string(rune('a' + w%4)), Function: "sin", Method: "m-lut"}
			for i := 0; i < 500; i++ {
				l.Add(k, LedgerEntry{Requests: 1, Elements: 2})
				if i%100 == 0 {
					l.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	var total uint64
	for _, r := range l.Snapshot().Rows {
		total += r.Requests
	}
	if total != 8*500 {
		t.Fatalf("total requests = %d", total)
	}
}
