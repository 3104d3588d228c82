package engine

import (
	"fmt"
	"time"

	"transpimlib/internal/fusion"
	"transpimlib/internal/telemetry"
)

// batchTrace carries the wall-clock stage stamps of one batch while
// its shard runs it. It lives inline in the batch, and batch.tr points
// at it only when tracing is enabled (nil otherwise, so the disabled
// path never calls time.Now). The shard's owner stamps every field in
// program order, before transferOut copies them into the requests'
// records.
type batchTrace struct {
	shard int

	inStart, inEnd       time.Time // transferIn: pack + charge
	setupStart, setupEnd time.Time // compute: plan or cache ensure (≈0 on a hit)
	kernStart, kernEnd   time.Time // compute: the launches
	outStart, outEnd     time.Time // transferOut: gather + charge
}

// batchRecord is what a request's trace keeps of one batch it rode
// in: the stamps and the outcome fields its batch span shows, copied
// when the batch drains so the batch itself goes back to the pool.
type batchRecord struct {
	batchTrace
	n, reqs                 int
	setup, tin, tcomp, tout float64
	cycles                  uint64
	hit                     bool
	retries                 int
	remapped, hedged        bool
	degraded                bool
	err                     error
}

// reqRecord is one traced request as the tracer ring retains it:
// plain fields filled on the request path (batch records as each
// batch drains, the rest by finishRequest), with the span tree built
// only when a reader asks (Materialize). It is immutable once pushed.
type reqRecord struct {
	id    uint64
	proc  string
	start time.Time // enqueued
	end   time.Time // finishRequest
	shard int

	spec     Spec
	prog     *fusion.Compiled
	elements int
	tenant   string
	cacheHit bool
	// sloBreached is set when the request's shadow samples closed a
	// window that failed an accuracy SLO.
	sloBreached bool
	err         error

	// batches holds one record per batch the request rode in, in
	// completion order. It starts on inline, which covers a small
	// request's single batch without a second allocation.
	batches []batchRecord
	inline  [1]batchRecord
}

// record copies a drained batch's trace fields into the request's
// record, creating the record on the first traced batch. The caller
// holds r.mu.
func (r *request) record(b *batch) {
	if r.rec == nil {
		r.rec = &reqRecord{}
		r.rec.batches = r.rec.inline[:0]
	}
	r.rec.batches = append(r.rec.batches, batchRecord{
		batchTrace: *b.tr,
		n:          b.n,
		reqs:       len(b.segs),
		setup:      b.setup,
		tin:        b.tin,
		tcomp:      b.tcomp,
		tout:       b.tout,
		cycles:     b.cycles,
		hit:        b.hit,
		retries:    b.retries,
		remapped:   b.remapped,
		hedged:     b.hedged,
		degraded:   b.degraded,
		err:        b.err,
	})
}

// Materialize assembles the request's span tree:
//
//	request
//	├─ queue              (enqueue → first batch picked up)
//	├─ batch[k]           (one per batch the request rode in)
//	│  ├─ transfer_in     wall + modeled host→PIM seconds
//	│  ├─ setup           cache ensure; modeled generation+broadcast
//	│  ├─ kernel          wall + modeled cycles/seconds
//	│  └─ transfer_out    gather + modeled PIM→host seconds
//	└─ error              terminal span, present only on failure
//
// It reads only the immutable record, so concurrent readers may build
// the tree at the same time, each getting its own copy.
func (r *reqRecord) Materialize() *telemetry.Trace {
	root := &telemetry.Span{
		Name:  "request",
		Start: r.start,
		End:   r.end,
		Shard: r.shard,
		Proc:  r.proc,
	}
	if r.prog != nil {
		root.SetAttr("program", r.prog.Name())
		root.SetAttr("method", r.prog.Method())
		root.SetAttr("phases", fmt.Sprint(r.prog.NumPhases()))
	} else {
		root.SetAttr("fn", r.spec.Fn.String())
		root.SetAttr("method", r.spec.Par.Method.String())
	}
	root.SetAttr("elements", fmt.Sprint(r.elements))
	root.SetAttr("batches", fmt.Sprint(len(r.batches)))
	root.SetAttr("cache_hit", fmt.Sprint(r.cacheHit))
	if r.tenant != "" {
		root.SetAttr("tenant", r.tenant)
	}
	if r.sloBreached {
		// The accuracy watcher tripped an SLO window on this request's
		// shadow samples; fault-free, SLO-clean traces stay unchanged.
		root.SetAttr("accuracy_slo_breached", "true")
	}

	if len(r.batches) > 0 {
		root.AddChild(&telemetry.Span{
			Name:  "queue",
			Start: r.start,
			End:   r.batches[0].inStart,
			Shard: r.batches[0].shard,
		})
	}
	for k := range r.batches {
		b := &r.batches[k]
		bs := &telemetry.Span{
			Name:    fmt.Sprintf("batch[%d]", k),
			Start:   b.inStart,
			End:     b.outEnd,
			Shard:   b.shard,
			Modeled: b.setup + b.tin + b.tcomp + b.tout,
		}
		bs.SetAttr("elements", fmt.Sprint(b.n))
		bs.SetAttr("requests", fmt.Sprint(b.reqs))
		// Recovery outcomes, attached only when something happened so
		// fault-free traces stay unchanged.
		if b.retries > 0 {
			bs.SetAttr("retries", fmt.Sprint(b.retries))
		}
		if b.remapped {
			bs.SetAttr("remapped", "true")
		}
		if b.hedged {
			bs.SetAttr("hedged", "true")
		}
		if b.degraded {
			bs.SetAttr("degraded", "true")
		}
		if b.err != nil {
			bs.Err = b.err.Error()
		}
		bs.AddChild(&telemetry.Span{
			Name: "transfer_in", Start: b.inStart, End: b.inEnd,
			Shard: b.shard, Modeled: b.tin,
		})
		setup := &telemetry.Span{
			Name: "setup", Start: b.setupStart, End: b.setupEnd,
			Shard: b.shard, Modeled: b.setup,
		}
		setup.SetAttr("cache_hit", fmt.Sprint(b.hit))
		bs.AddChild(setup)
		if b.err == nil {
			kern := &telemetry.Span{
				Name: "kernel", Start: b.kernStart, End: b.kernEnd,
				Shard: b.shard, Modeled: b.tcomp,
			}
			kern.SetAttr("cycles", fmt.Sprint(b.cycles))
			bs.AddChild(kern)
			bs.AddChild(&telemetry.Span{
				Name: "transfer_out", Start: b.outStart, End: b.outEnd,
				Shard: b.shard, Modeled: b.tout,
			})
		}
		root.AddChild(bs)
	}
	if r.err != nil {
		// The Err-carrying terminal span: failed requests stay visible
		// in the trace tree, not just in the error return.
		root.Err = r.err.Error()
		root.AddChild(&telemetry.Span{
			Name: "error", Start: r.end, End: r.end,
			Shard: r.shard, Err: r.err.Error(),
		})
	}
	return &telemetry.Trace{ID: r.id, Root: root}
}
