//go:build slabcheck

// Pool self-checks, armed by the slabcheck build tag (CI runs the race
// detector with it); see internal/sim/slab_check.go for the rationale.

package htm

import "fmt"

// poolCheckTxn asserts a recycled Txn record is quiescent before reuse: by
// the time a thread begins a new transaction, its previous attempt's cleanup
// must have cleared every one of this thread's reader/writer bits from the
// conflict directory. A surviving bit means recycling would let a finished
// transaction keep conflicting with (or shielding) live ones.
func poolCheckTxn(r *Runtime, t *Txn) {
	if t.ctx == nil {
		return
	}
	id := t.ctx.ID()
	rw, rbit := dirReaderBit(id)
	ww, wbit := dirWriterBit(id)
	for i, k := range r.lines.Keys {
		if k != 0 && (r.lines.Vals[i][rw]&rbit != 0 || r.lines.Vals[i][ww]&wbit != 0) {
			panic(fmt.Sprintf("htm: recycled txn for thread %d still tracked on line %#x in the conflict directory", id, k))
		}
	}
}
