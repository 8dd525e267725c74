package experiments

import (
	"fmt"
	"math"
	"strings"

	"tsxhpc/internal/apps"
	"tsxhpc/internal/harness"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/runner"
	"tsxhpc/internal/stamp"
	"tsxhpc/internal/tm"
)

// The paper's conclusions as checks. Each claim is a DESIGN.md §5 shape
// target written as a predicate over the result structs the experiments
// compute (never over rendered text), evaluated item by item: one item per
// workload, thread count or grid cell the target speaks about. A claim has
// three outcomes. It holds when every item meets the target; it deviates
// when some item misses the target but sits inside a band pinned for that
// item, and EXPERIMENTS.md explains the miss; otherwise it fails. Claims
// submits the same cell keys as the experiments, so on a suite that already
// rendered them (or shares their memo store) it simulates nothing.

// Outcome is a claim's verdict.
type Outcome uint8

const (
	Holds    Outcome = iota // every item meets the target
	Deviates                // some item misses it, inside its documented band
	Fails                   // some item misses it with no band, or outside it
)

func (o Outcome) String() string {
	switch o {
	case Holds:
		return "holds"
	case Deviates:
		return "deviates"
	}
	return "FAILS"
}

// ClaimResult is one evaluated claim.
type ClaimResult struct {
	ID      string // stable name, e.g. "fig2/tl2-1T-overhead"
	Target  string // the §5 target in words
	Outcome Outcome
	Detail  string // every item's measured value and verdict
}

// deviation pins a documented miss of a target to a band of the measured
// value. doc is the EXPERIMENTS.md heading anchor of the paragraph that
// explains it.
type deviation struct {
	lo, hi float64
	doc    string
}

// Anchors of the EXPERIMENTS.md sections the deviations cite.
const (
	docE2 = "#e2--figure-2-stamp-execution-time-normalized-to-sgl1t-lower--better"
	docE5 = "#e5--figure-4-real-world-workloads-speedup-vs-baseline1t"
	docE6 = "#e6--figure-5a-histogram-conflict-free-comparison-time--atomic1t"
	docE7 = "#e7--figure-5b-physicssolver-conflict-free-comparison-time--mutex1t"
	docE9 = "#e9--3-retry-policy-5-gave-the-best-overall-performance"
)

// deviations maps claim ID → item → its documented band.
var deviations = map[string]map[string]deviation{
	// bayes and labyrinth are capacity-bound at one thread: their tsx runs
	// mostly abort and fall back (Table 1: 63% and 93%, paper 64% and 87%).
	"fig2/tsx-1T-near-sgl": {
		"bayes":     {1.4, 1.9, docE2},
		"labyrinth": {1.9, 2.5, docE2},
	},
	// The model's baseline atomics and locks are cheap next to Haswell's.
	"fig4/coarsen-8T-geomean": {"geomean": {1.10, 1.25, docE5}},
	// Privatization's copies and reduction cost more than cheap atomics;
	// barrier's load imbalance already shows at 2T.
	"fig5/conflict-free-wins-1-2T": {
		"privatize/1T": {1.0, 1.2, docE6},
		"privatize/2T": {1.3, 1.7, docE6},
		"barrier/2T":   {1.3, 1.7, docE7},
	},
	// The contended mix's basin sits at 6-8 retries.
	"e9/best-budget-5": {"argmin": {6, 8, docE9}},
}

// item is one measured point of a claim.
type item struct {
	name string
	v    float64
	ok   bool
}

// judge folds a claim's items into its result.
func judge(id, target string, items []item) ClaimResult {
	r := ClaimResult{ID: id, Target: target}
	var b strings.Builder
	for _, it := range items {
		verdict := "ok"
		if !it.ok {
			d, documented := deviations[id][it.name]
			switch {
			case documented && it.v >= d.lo && it.v <= d.hi:
				verdict = fmt.Sprintf("deviates, band [%g, %g], EXPERIMENTS.md%s", d.lo, d.hi, d.doc)
				r.Outcome = max(r.Outcome, Deviates)
			case documented:
				verdict = fmt.Sprintf("FAILS, outside band [%g, %g]", d.lo, d.hi)
				r.Outcome = Fails
			default:
				verdict = "FAILS"
				r.Outcome = Fails
			}
		}
		fmt.Fprintf(&b, "%s=%.4g (%s); ", it.name, it.v, verdict)
	}
	r.Detail = strings.TrimSuffix(b.String(), "; ")
	return r
}

// Claim bounds, each in the unit of its item.
const (
	tl2OverheadMin   = 1.5  // tl2@1T / sgl@1T
	tsxNearSGL       = 0.1  // |tsx@1T / sgl@1T - 1|
	ssca2AbortMax    = 5.0  // percent, any thread count
	tsxTracksFG      = 0.03 // |tsx / fine-grained - 1|, every A6 cell
	clientPlateauMax = 0.02 // |bw@10⁵ / bw@10⁴ - 1| per module
	coarsenGeomean   = 1.41 // paper's tsx.coarsen / baseline mean at 8T
	coarsenGeomeanTo = 0.1  // |geomean - coarsenGeomean|
	bestRetryBudget  = 5    // Section 3: "5 gave the best overall performance"
)

// retryBudgets are the budgets E9 sweeps.
var retryBudgets = []int{1, 2, 3, 4, 5, 6, 8, 10}

// Claims evaluates the Figure 2, Table 1, A6, Figure 4, Figure 5 and E9
// claims.
func (s *Suite) Claims() ([]ClaimResult, error) {
	names := stamp.Names()
	type stampKey struct {
		name string
		mo   tm.Mode
		th   int
	}
	stampFuts := map[stampKey]runner.Future[stamp.Result]{}
	for _, name := range names {
		need := []stampKey{{name, tm.SGL, 1}, {name, tm.TL2, 1}}
		for _, th := range Threads {
			need = append(need, stampKey{name, tm.TSX, th})
		}
		for _, k := range need {
			stampFuts[k] = s.stampCell(k.name, k.mo, k.th)
		}
	}
	type scaleKey struct {
		mod            string
		cores, clients int
	}
	scaleFuts := map[scaleKey]runner.Future[netapps.ScaleResult]{}
	for _, mod := range netapps.ScaleModules {
		for _, cores := range scaleCoreAxis {
			scaleFuts[scaleKey{mod.Name, cores, scaleFixedClients}] = s.scaleCell(mod, cores, scaleFixedClients)
		}
		for _, clients := range scaleClientAxis {
			scaleFuts[scaleKey{mod.Name, scaleFixedCores, clients}] = s.scaleCell(mod, scaleFixedCores, clients)
		}
	}
	stampRes := map[stampKey]stamp.Result{}
	for k, f := range stampFuts {
		r, err := f.Wait()
		if err != nil {
			return nil, err
		}
		stampRes[k] = r
	}
	bw := map[scaleKey]float64{}
	for k, f := range scaleFuts {
		r, err := f.Wait()
		if err != nil {
			return nil, err
		}
		bw[k] = r.Bandwidth()
	}
	norm1T := func(name string, mo tm.Mode) float64 {
		return float64(stampRes[stampKey{name, mo, 1}].Cycles) / float64(stampRes[stampKey{name, tm.SGL, 1}].Cycles)
	}

	var tl2Over, tsx1T, ssca2, ht []item
	for _, name := range names {
		if name != "labyrinth" { // the STM-friendly exception: its tl2 port skips the grid copy
			v := norm1T(name, tm.TL2)
			tl2Over = append(tl2Over, item{name, v, v >= tl2OverheadMin})
		}
		v := norm1T(name, tm.TSX)
		tsx1T = append(tsx1T, item{name, v, math.Abs(v-1) <= tsxNearSGL})
		r4, r8 := stampRes[stampKey{name, tm.TSX, 4}].AbortRate, stampRes[stampKey{name, tm.TSX, 8}].AbortRate
		ht = append(ht, item{name, r8 - r4, r8 > r4})
	}
	for _, th := range Threads {
		v := stampRes[stampKey{"ssca2", tm.TSX, th}].AbortRate
		ssca2 = append(ssca2, item{fmt.Sprintf("%dT", th), v, v <= ssca2AbortMax})
	}

	gl64 := bw[scaleKey{"global-lock", 64, scaleFixedClients}] / bw[scaleKey{"global-lock", 16, scaleFixedClients}]
	var tracks, plateau []item
	track := func(cores, clients int) {
		v := bw[scaleKey{"tsx", cores, clients}] / bw[scaleKey{"fine-grained", cores, clients}]
		tracks = append(tracks, item{fmt.Sprintf("%dC/%d", cores, clients), v, math.Abs(v-1) <= tsxTracksFG})
	}
	for _, cores := range scaleCoreAxis {
		track(cores, scaleFixedClients)
	}
	for _, clients := range scaleClientAxis {
		if clients != scaleFixedClients { // that cell is on the core axis too
			track(scaleFixedCores, clients)
		}
	}
	top, prev := scaleClientAxis[len(scaleClientAxis)-1], scaleClientAxis[len(scaleClientAxis)-2]
	for _, mod := range netapps.ScaleModules {
		v := bw[scaleKey{mod.Name, scaleFixedCores, top}] / bw[scaleKey{mod.Name, scaleFixedCores, prev}]
		plateau = append(plateau, item{mod.Name, v, math.Abs(v-1) <= clientPlateauMax})
	}

	figClaims, err := s.figureClaims()
	if err != nil {
		return nil, err
	}
	return append([]ClaimResult{
		judge("fig2/tl2-1T-overhead", fmt.Sprintf("tl2@1T is at least %g× sgl@1T, except labyrinth", tl2OverheadMin), tl2Over),
		judge("fig2/tsx-1T-near-sgl", fmt.Sprintf("tsx@1T is within %g of sgl@1T", tsxNearSGL), tsx1T),
		judge("table1/ssca2-tsx-near-0", fmt.Sprintf("ssca2's tsx abort rate is at most %g%% at every thread count", ssca2AbortMax), ssca2),
		judge("table1/tsx-8T-above-4T", "tsx aborts more at 8T (HyperThreads share the L1) than at 4T, every workload (item: 8T-4T points)", ht),
		judge("a6/global-lock-retrogrades", "the global lock delivers less bandwidth at 64 cores than at 16", []item{{"64C/16C", gl64, gl64 < 1}}),
		judge("a6/tsx-tracks-fine-grained", fmt.Sprintf("tsx is within %g%% of fine-grained in every A6 cell", 100*tsxTracksFG), tracks),
		judge("a6/client-plateau", fmt.Sprintf("bandwidth moves under %g%% from 10⁴ to 10⁵ clients, every module", 100*clientPlateauMax), plateau),
	}, figClaims...), nil
}

// figureClaims evaluates the Figure 4, Figure 5 and E9 claims over the
// apps cells and the retry sweep's cells.
func (s *Suite) figureClaims() ([]ClaimResult, error) {
	type appKey struct {
		name, variant string
		th            int
	}
	appFuts := map[appKey]runner.Future[apps.Result]{}
	submit := func(name, variant string) {
		for _, th := range Threads {
			appFuts[appKey{name, variant, th}] = s.appsCell(name, variant, th)
		}
	}
	for _, name := range apps.Names() {
		for _, v := range apps.FigureVariants {
			submit(name, v)
		}
	}
	submit("histogram", "privatize")
	submit("physicsSolver", "barrier")
	retryFuts := make([]runner.Future[simCell], len(retryBudgets))
	for i, b := range retryBudgets {
		retryFuts[i] = s.retryCell(b)
	}
	cyc := map[appKey]uint64{}
	for k, f := range appFuts {
		r, err := f.Wait()
		if err != nil {
			return nil, err
		}
		cyc[k] = r.Cycles
	}
	best, bestCycles := 0, uint64(math.MaxUint64)
	for i, f := range retryFuts {
		r, err := f.Wait()
		if err != nil {
			return nil, err
		}
		if r.Cycles < bestCycles {
			best, bestCycles = retryBudgets[i], r.Cycles
		}
	}
	// vsBase is a variant's time over the baseline's at the same thread
	// count (below 1 wins).
	vsBase := func(name, variant string, th int) float64 {
		return float64(cyc[appKey{name, variant, th}]) / float64(cyc[appKey{name, "baseline", th}])
	}

	var initLoses, coarsenFlips, lowT, highT []item
	for _, name := range []string{"ua", "histogram"} {
		for _, th := range Threads {
			at := fmt.Sprintf("%s/%dT", name, th)
			v := vsBase(name, "tsx.init", th)
			initLoses = append(initLoses, item{at, v, v > 1})
			v = vsBase(name, "tsx.coarsen", th)
			coarsenFlips = append(coarsenFlips, item{at, v, v < 1})
		}
	}
	var gains []float64
	for _, name := range apps.Names() {
		gains = append(gains, harness.Speedup(cyc[appKey{name, "baseline", 8}], cyc[appKey{name, "tsx.coarsen", 8}]))
	}
	g := harness.Geomean(gains)
	for _, cf := range []struct{ name, variant string }{{"histogram", "privatize"}, {"physicsSolver", "barrier"}} {
		for _, th := range []int{1, 2} {
			v := vsBase(cf.name, cf.variant, th)
			lowT = append(lowT, item{fmt.Sprintf("%s/%dT", cf.variant, th), v, v < 1})
		}
		v := vsBase(cf.name, cf.variant, 8)
		highT = append(highT, item{cf.variant + "/8T", v, v > 1})
	}

	return []ClaimResult{
		judge("fig4/tsx-init-loses", "tsx.init is slower than baseline on ua and histogram at every thread count (item: time / baseline's)", initLoses),
		judge("fig4/coarsen-flips", "tsx.coarsen is faster than baseline on ua and histogram at every thread count (item: time / baseline's)", coarsenFlips),
		judge("fig4/coarsen-8T-geomean", fmt.Sprintf("tsx.coarsen's speedup over baseline at 8T, geomean over the workloads, is within %g of %g×", coarsenGeomeanTo, coarsenGeomean),
			[]item{{"geomean", g, math.Abs(g-coarsenGeomean) <= coarsenGeomeanTo}}),
		judge("fig5/conflict-free-wins-1-2T", "privatize (histogram) and barrier (physicsSolver) beat their baseline at 1T and 2T (item: time / baseline's)", lowT),
		judge("fig5/conflict-free-loses-8T", "privatize and barrier lose to their baseline at 8T (item: time / baseline's)", highT),
		judge("e9/best-budget-5", fmt.Sprintf("the retry budget with the fewest cycles is %d", bestRetryBudget),
			[]item{{"argmin", float64(best), best == bestRetryBudget}}),
	}, nil
}
