// Package core is the Intel TSX-enabled synchronization library this
// repository reproduces from the paper: the programming techniques that turn
// raw transactional hardware (package htm) into application-level speedup.
//
// RTM lock elision and lockset elision (Section 5.2.1) are tm.Elider, the
// loop package tm's TSX mode runs too; this package's locking module runs
// it as well, under tm.ModulePolicy. This package provides:
//
//   - DoCoarsened — "dynamic transactional coarsening" (Section 5.2.2,
//     Listing 3): batch several dynamic instances of the same critical
//     section into one transactional region to amortize begin/commit costs.
//     (Static coarsening is a source-level restructuring; the workloads in
//     internal/apps apply it directly.)
//   - LockModule / Region / CondVar — the pluggable locking module of the
//     user-level TCP/IP stack study (Section 6), with all five
//     implementations compared in Figure 6, including the
//     transaction-aware condition variable.
package core

import (
	"tsxhpc/internal/sim"
	"tsxhpc/internal/tm"
)

// DoCoarsened executes items [0,n) where each item is one logical critical
// section, dynamically batching gran consecutive items into a single
// transactional region (Listing 3's TXN_GRAN pattern). With gran == 1 it
// degenerates to one region per item. The batching is per-thread and does
// not change which items execute, only how many begin/commit pairs are paid.
func DoCoarsened(sys *tm.System, c *sim.Context, n, gran int, item func(tx tm.Tx, i int)) {
	if gran < 1 {
		gran = 1
	}
	for start := 0; start < n; start += gran {
		end := start + gran
		if end > n {
			end = n
		}
		sys.Atomic(c, func(tx tm.Tx) {
			for i := start; i < end; i++ {
				item(tx, i)
			}
		})
	}
}
