package telemetry

import (
	"fmt"
	"sort"
	"sync"
)

// LedgerKey identifies one cost-attribution row: who asked for what.
// The method string follows the accuracy watcher's label convention
// ("l-lut(i)" for the interpolated variant) so ledger rows, accuracy
// series and offline reports key identically.
type LedgerKey struct {
	Tenant   string `json:"tenant"`
	Function string `json:"function"`
	Method   string `json:"method"`
}

// LedgerEntry is one row's accumulated costs. Kernel cycles, bytes and
// modeled seconds are the request's exact share of the batches it rode
// in (coalesced batches split their cost by element count with an
// exact prefix partition, so per-tenant cycle totals reconcile ±0 with
// the simulator's charged cycles).
type LedgerEntry struct {
	Requests       uint64  `json:"requests"`
	Elements       uint64  `json:"elements"`
	KernelCycles   uint64  `json:"kernel_cycles"`
	BytesIn        uint64  `json:"bytes_in"`
	BytesOut       uint64  `json:"bytes_out"`
	ModeledSeconds float64 `json:"modeled_seconds"`
	Degraded       uint64  `json:"degraded"`
	Shed           uint64  `json:"shed"`
	Failovers      uint64  `json:"failovers"`
}

func (e *LedgerEntry) add(d LedgerEntry) {
	e.Requests += d.Requests
	e.Elements += d.Elements
	e.KernelCycles += d.KernelCycles
	e.BytesIn += d.BytesIn
	e.BytesOut += d.BytesOut
	e.ModeledSeconds += d.ModeledSeconds
	e.Degraded += d.Degraded
	e.Shed += d.Shed
	e.Failovers += d.Failovers
}

// LedgerRow pairs a key with its entry in snapshots.
type LedgerRow struct {
	LedgerKey
	LedgerEntry
}

// LedgerSnapshot is the /debug/ledger document: rows sorted by
// (tenant, function, method) for stable output.
type LedgerSnapshot struct {
	Rows []LedgerRow `json:"rows"`
	// Overflowed counts distinct keys collapsed into the overflow row
	// by the cardinality cap.
	Overflowed uint64 `json:"overflowed,omitempty"`
}

// ledgerMirror is one row's set of registered prometheus series.
type ledgerMirror struct {
	requests  *Counter
	elements  *Counter
	cycles    *Counter
	bytesIn   *Counter
	bytesOut  *Counter
	modeled   *FloatCounter
	degraded  *Counter
	shed      *Counter
	failovers *Counter
}

// maxLedgerRows caps distinct ledger rows; rows beyond it collapse
// into overflowLedgerKey — bounded state no matter how many tenants
// show up, the same rule as the accuracy watcher's series and the
// profiler's frames.
const maxLedgerRows = 1024

// overflowLedgerKey is where rows beyond maxLedgerRows collapse.
var overflowLedgerKey = LedgerKey{Tenant: "overflow", Function: "overflow", Method: "overflow"}

// Ledger is the per-(tenant, function, method) cost accountant. Adds
// happen per drained batch and per routing decision — off the
// per-element hot path — under one mutex; when a registry is attached
// every row also mirrors into tenant_* prometheus series. All methods
// are nil-safe: a disabled ledger is a nil pointer and one nil check.
type Ledger struct {
	mu         sync.Mutex
	entries    map[LedgerKey]*LedgerEntry
	mirrors    map[LedgerKey]*ledgerMirror
	reg        *Registry // nil: no prometheus mirror
	overflowed uint64
}

// NewLedger builds a ledger. reg, when non-nil, receives tenant_*
// prometheus series per row.
func NewLedger(reg *Registry) *Ledger {
	return &Ledger{
		entries: make(map[LedgerKey]*LedgerEntry),
		mirrors: make(map[LedgerKey]*ledgerMirror),
		reg:     reg,
	}
}

// row returns (creating if needed) the entry and mirror for k,
// applying the cardinality cap. Callers hold l.mu.
func (l *Ledger) row(k LedgerKey) (*LedgerEntry, *ledgerMirror) {
	e, ok := l.entries[k]
	if !ok {
		if len(l.entries) >= maxLedgerRows {
			l.overflowed++
			k = overflowLedgerKey
			if e, ok = l.entries[k]; ok {
				return e, l.mirrors[k]
			}
		}
		e = &LedgerEntry{}
		l.entries[k] = e
		if l.reg != nil {
			lb := fmt.Sprintf("{tenant=%q,fn=%q,method=%q}", k.Tenant, k.Function, k.Method)
			l.mirrors[k] = &ledgerMirror{
				requests:  l.reg.Counter("tenant_requests_total"+lb, "requests served, by tenant cost row"),
				elements:  l.reg.Counter("tenant_elements_total"+lb, "elements served, by tenant cost row"),
				cycles:    l.reg.Counter("tenant_kernel_cycles_total"+lb, "modeled kernel cycles attributed, by tenant cost row"),
				bytesIn:   l.reg.Counter("tenant_bytes_in_total"+lb, "host-to-PIM bytes attributed, by tenant cost row"),
				bytesOut:  l.reg.Counter("tenant_bytes_out_total"+lb, "PIM-to-host bytes attributed, by tenant cost row"),
				modeled:   l.reg.FloatCounter("tenant_modeled_seconds_total"+lb, "modeled pipeline seconds attributed, by tenant cost row"),
				degraded:  l.reg.Counter("tenant_degraded_total"+lb, "host-mirror degraded requests, by tenant cost row"),
				shed:      l.reg.Counter("tenant_shed_total"+lb, "requests shed, by tenant cost row"),
				failovers: l.reg.Counter("tenant_failovers_total"+lb, "replica failovers, by tenant cost row"),
			}
		}
	}
	return e, l.mirrors[k]
}

// Add accumulates d into k's row (and its prometheus mirror).
func (l *Ledger) Add(k LedgerKey, d LedgerEntry) {
	if l == nil {
		return
	}
	l.mu.Lock()
	e, m := l.row(k)
	e.add(d)
	l.mu.Unlock()
	if m != nil {
		m.requests.Add(d.Requests)
		m.elements.Add(d.Elements)
		m.cycles.Add(d.KernelCycles)
		m.bytesIn.Add(d.BytesIn)
		m.bytesOut.Add(d.BytesOut)
		m.modeled.Add(d.ModeledSeconds)
		m.degraded.Add(d.Degraded)
		m.shed.Add(d.Shed)
		m.failovers.Add(d.Failovers)
	}
}

// Overflowed reports how many distinct keys collapsed into the
// overflow row.
func (l *Ledger) Overflowed() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.overflowed
}

// Snapshot copies the ledger, rows sorted by (tenant, function,
// method). Nil-safe: a nil ledger snapshots empty.
func (l *Ledger) Snapshot() LedgerSnapshot {
	if l == nil {
		return LedgerSnapshot{}
	}
	l.mu.Lock()
	s := LedgerSnapshot{Rows: make([]LedgerRow, 0, len(l.entries)), Overflowed: l.overflowed}
	for k, e := range l.entries {
		s.Rows = append(s.Rows, LedgerRow{LedgerKey: k, LedgerEntry: *e})
	}
	l.mu.Unlock()
	sortLedgerRows(s.Rows)
	return s
}

func sortLedgerRows(rows []LedgerRow) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		return a.Method < b.Method
	})
}

// MergeLedgers sums snapshots row-by-key into one — how a cluster
// combines its own shed/failover accounting with each replica
// engine's served-cost ledger.
func MergeLedgers(snaps ...LedgerSnapshot) LedgerSnapshot {
	acc := make(map[LedgerKey]*LedgerEntry)
	var order []LedgerKey
	var overflowed uint64
	for _, s := range snaps {
		overflowed += s.Overflowed
		for _, row := range s.Rows {
			e, ok := acc[row.LedgerKey]
			if !ok {
				e = &LedgerEntry{}
				acc[row.LedgerKey] = e
				order = append(order, row.LedgerKey)
			}
			e.add(row.LedgerEntry)
		}
	}
	out := LedgerSnapshot{Rows: make([]LedgerRow, 0, len(order)), Overflowed: overflowed}
	for _, k := range order {
		out.Rows = append(out.Rows, LedgerRow{LedgerKey: k, LedgerEntry: *acc[k]})
	}
	sortLedgerRows(out.Rows)
	return out
}
