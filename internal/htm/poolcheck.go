package htm

import (
	"fmt"

	"tsxhpc/internal/sim"
)

// poolCheckTxn asserts a recycled Txn record is quiescent before reuse: by
// the time a thread begins a new transaction, its previous attempt's cleanup
// must have cleared every one of this thread's reader/writer bits from the
// conflict directory. A surviving bit means recycling would let a finished
// transaction keep conflicting with (or shielding) live ones. Begin runs it
// under sim.Config.Invariants.
func poolCheckTxn(r *Runtime, c *sim.Context) {
	id := c.ID()
	rw, rbit := dirReaderBit(id)
	ww, wbit := dirWriterBit(id)
	for i, k := range r.lines.Keys {
		if k != 0 && (r.lines.Vals[i][rw]&rbit != 0 || r.lines.Vals[i][ww]&wbit != 0) {
			panic(&sim.InvariantError{Point: "htm-pool", Thread: id, Clock: c.Now(),
				Detail: fmt.Sprintf("recycled txn still tracked on line %#x in the conflict directory", k)})
		}
	}
}
