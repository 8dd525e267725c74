package experiments

import (
	"fmt"
	"math"
	"strings"

	"tsxhpc/internal/apps"
	"tsxhpc/internal/clomp"
	"tsxhpc/internal/core"
	"tsxhpc/internal/harness"
	"tsxhpc/internal/netapps"
	"tsxhpc/internal/rmstm"
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
// submits no cell of its own: it reads the grids the figures collect
// (figure1Cells, stampCells, figure3Cells, appsCells, figure6Cells,
// scaleCells and the E9 budgets), so a claim judges exactly the values its
// figure renders, and on a suite that already rendered them (or shares
// their memo store) it simulates nothing.

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
	docE4 = "#e4--figure-3-rms-tm-speedup-vs-fgl1t"
	docE5 = "#e5--figure-4-real-world-workloads-speedup-vs-baseline1t"
	docE6 = "#e6--figure-5a-histogram-conflict-free-comparison-time--atomic1t"
	docE7 = "#e7--figure-5b-physicssolver-conflict-free-comparison-time--mutex1t"
	docE8 = "#e8--figure-6-user-level-tcpip-stack-read-bandwidth--mutex"
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
	// At 8T scalparc's eight threads increment the same 24 lines of split
	// counters: 98% of its tsx regions abort and it runs at sgl's speed.
	"fig3/tsx-near-fgl-8T": {"scalparc": {0.4, 0.6, docE4}},
	// The model's stack has fewer critical sections per packet than the
	// full BSD path, so each abort and lock costs relatively less.
	"fig6/tsx-abort-drops-on-ferret-only": {"netferret": {0.8, 0.95, docE8}},
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
	smallCriticalMax = 0.5  // Small Critical's speedup / Small Atomic's (every scatter count) and Small TM's (1 scatter)
	tsxNearFGL8T     = 0.25 // |tsx@8T / fgl@8T - 1|
	tsxAbortDrop     = 0.75 // tsx.abort / mutex on netferret: "drops drastically"
	tsxCondNearMutex = 0.15 // |mean tsx.cond / mutex - 1|
	busyWaitGain     = 1.31 // paper's mean tsx.busywait / mutex
	busyWaitGainTo   = 0.1  // |mean gain - busyWaitGain|
	busyWaitMin      = 0.99 // tsx.busywait / mutex, every workload
	busyWaitSlack    = 0.02 // tsx.busywait may trail mutex.busywait by this much (both / mutex)
	aprioriScaleMin  = 2.0  // apriori fgl@8T speedup over fgl@1T
	aprioriIOMax     = 1.4  // apriori tsx@4T / fgl@4T
	lossAt8TMin      = 1.5  // privatize and barrier / baseline at 8T
	retryGainMax     = 1.1  // E9 budget 6's cycles / budget 1's
	bayesAbort1TMin  = 30.0 // tsx@1T abort rate, percent
	labyrinth1TMin   = 60.0 // tsx@1T abort rate, percent
	labyrinthTL2Max  = 30.0 // tl2@4T abort rate, percent
)

// capacityAborts bounds Table 1's capacity rows, in percent: bayes and
// labyrinth abort mostly at one thread (the read footprint overflows the
// L1), while labyrinth's tl2 port skips the unannotated grid copy.
var capacityAborts = []struct {
	k      stampKey
	lo, hi float64
}{
	{stampKey{"bayes", tm.TSX, 1}, bayesAbort1TMin, 100},
	{stampKey{"labyrinth", tm.TSX, 1}, labyrinth1TMin, 100},
	{stampKey{"labyrinth", tm.TL2, 4}, 0, labyrinthTL2Max},
}

// stmVsHTM4T are Figure 2's 4T winners: the STM where the annotation skips
// the copy that overflows the L1 (labyrinth), the HTM where the footprint
// fits.
var stmVsHTM4T = []struct {
	name      string
	win, lose tm.Mode
}{{"labyrinth", tm.TL2, tm.TSX}, {"ssca2", tm.TSX, tm.TL2}, {"vacation", tm.TSX, tm.TL2}}

// htRiseMin floors a STAMP workload's 8T-over-4T rise in tsx abort points
// where Table 1's rise is steep: vacation's regions mostly fit the L1 at 4T
// and not once two HyperThreads share it. Every other workload only has to
// rise.
var htRiseMin = map[string]float64{"vacation": 20}

// sglCollapses are the RMS-TM workloads on which the paper finds sgl far
// behind fgl: fluidanimate (many small critical sections) and utilitymine
// (over 30% of its time in critical sections).
var sglCollapses = map[string]bool{"fluidanimate": true, "utilitymine": true}

// Claims evaluates the Figure 1-6, Table 1, A6 and E9 claims.
func (s *Suite) Claims() ([]ClaimResult, error) {
	st, err := s.stampCells(figure2Modes)
	if err != nil {
		return nil, err
	}
	scale, err := s.scaleCells()
	if err != nil {
		return nil, err
	}
	norm1T := func(name string, mo tm.Mode) float64 {
		return float64(st[stampKey{name, mo, 1}].Cycles) / float64(st[stampKey{name, tm.SGL, 1}].Cycles)
	}

	var tl2Over, tsx1T, ssca2, ht, capacity, fourT []item
	for _, name := range stamp.Names() {
		if name != "labyrinth" { // the STM-friendly exception: its tl2 port skips the grid copy
			v := norm1T(name, tm.TL2)
			tl2Over = append(tl2Over, item{name, v, v >= tl2OverheadMin})
		}
		v := norm1T(name, tm.TSX)
		tsx1T = append(tsx1T, item{name, v, math.Abs(v-1) <= tsxNearSGL})
		r4, r8 := st[stampKey{name, tm.TSX, 4}].AbortRate, st[stampKey{name, tm.TSX, 8}].AbortRate
		ht = append(ht, item{name, r8 - r4, r8 > r4 && r8-r4 >= htRiseMin[name]})
	}
	for _, c := range capacityAborts {
		v := st[c.k].AbortRate
		capacity = append(capacity, item{fmt.Sprintf("%s/%v/%dT", c.k.name, c.k.mode, c.k.threads), v, v >= c.lo && v <= c.hi})
	}
	for _, w := range stmVsHTM4T {
		v := float64(st[stampKey{w.name, w.win, 4}].Cycles) / float64(st[stampKey{w.name, w.lose, 4}].Cycles)
		fourT = append(fourT, item{w.name + "/" + w.win.String(), v, v < 1})
	}
	for _, th := range Threads {
		v := st[stampKey{"ssca2", tm.TSX, th}].AbortRate
		ssca2 = append(ssca2, item{fmt.Sprintf("%dT", th), v, v <= ssca2AbortMax})
	}

	mods := map[string]netapps.ScaleModule{}
	for _, mod := range netapps.ScaleModules {
		mods[mod.Name] = mod
	}
	bw := func(mod string, cores, clients int) float64 {
		return scale[scaleKey{mods[mod], cores, clients}].Bandwidth()
	}
	gl64 := bw("global-lock", 64, scaleFixedClients) / bw("global-lock", 16, scaleFixedClients)
	var tracks, plateau []item
	track := func(cores, clients int) {
		v := bw("tsx", cores, clients) / bw("fine-grained", cores, clients)
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
		v := bw(mod.Name, scaleFixedCores, top) / bw(mod.Name, scaleFixedCores, prev)
		plateau = append(plateau, item{mod.Name, v, math.Abs(v-1) <= clientPlateauMax})
	}

	figClaims, err := s.figureClaims()
	if err != nil {
		return nil, err
	}
	kernelClaims, err := s.kernelClaims()
	if err != nil {
		return nil, err
	}
	return append(append(kernelClaims,
		judge("fig2/tl2-1T-overhead", fmt.Sprintf("tl2@1T is at least %g× sgl@1T, except labyrinth", tl2OverheadMin), tl2Over),
		judge("fig2/tsx-1T-near-sgl", fmt.Sprintf("tsx@1T is within %g of sgl@1T", tsxNearSGL), tsx1T),
		judge("fig2/tl2-vs-tsx-4T", "at 4T tl2 beats tsx on labyrinth and tsx beats tl2 on ssca2 and vacation (item: the winner's time / the loser's)", fourT),
		judge("table1/ssca2-tsx-near-0", fmt.Sprintf("ssca2's tsx abort rate is at most %g%% at every thread count", ssca2AbortMax), ssca2),
		judge("table1/tsx-8T-above-4T", fmt.Sprintf("tsx aborts more at 8T (HyperThreads share the L1) than at 4T, every workload, vacation by at least %g points (item: 8T-4T points)", htRiseMin["vacation"]), ht),
		judge("table1/capacity-aborts", fmt.Sprintf("tsx aborts at least %g%% on bayes and %g%% on labyrinth at 1T, and labyrinth's tl2 at most %g%% at 4T (item: abort rate, %%)", bayesAbort1TMin, labyrinth1TMin, labyrinthTL2Max), capacity),
		judge("a6/global-lock-retrogrades", "the global lock delivers less bandwidth at 64 cores than at 16", []item{{"64C/16C", gl64, gl64 < 1}}),
		judge("a6/tsx-tracks-fine-grained", fmt.Sprintf("tsx is within %g%% of fine-grained in every A6 cell", 100*tsxTracksFG), tracks),
		judge("a6/client-plateau", fmt.Sprintf("bandwidth moves under %g%% from 10⁴ to 10⁵ clients, every module", 100*clientPlateauMax), plateau),
	), figClaims...), nil
}

// kernelClaims evaluates the Figure 1, Figure 3 and Figure 6 claims over
// the CLOMP-TM, RMS-TM and TCP/IP stack grids.
func (s *Suite) kernelClaims() ([]ClaimResult, error) {
	clompRes, err := s.figure1Cells()
	if err != nil {
		return nil, err
	}
	rms, err := s.figure3Cells()
	if err != nil {
		return nil, err
	}
	net, err := s.figure6Cells()
	if err != nil {
		return nil, err
	}

	// vsAtomic is a scheme's Figure 1 speedup over Small Atomic's at the
	// same scatter count (above 1 is faster).
	vsAtomic := func(sch clomp.Scheme, sc int) float64 {
		return float64(clompRes[clompKey{sc, clomp.SmallAtomic, 4}].Cycles) / float64(clompRes[clompKey{sc, sch, 4}].Cycles)
	}
	var atomicFastest, largeTMCrosses, criticalSlow, largeCriticalSlow []item
	for _, sch := range clomp.Schemes[1:] {
		v := vsAtomic(sch, 1)
		atomicFastest = append(atomicFastest, item{sch.String(), v, v < 1})
	}
	for _, sc := range figure1Scatters {
		at := fmt.Sprintf("%d scatters", sc)
		if v := vsAtomic(clomp.LargeTM, sc); sc <= 2 {
			largeTMCrosses = append(largeTMCrosses, item{at, v, v < 1})
		} else if sc >= 4 {
			largeTMCrosses = append(largeTMCrosses, item{at, v, v > 1})
		}
		v := vsAtomic(clomp.SmallCritical, sc)
		criticalSlow = append(criticalSlow, item{at, v, v <= smallCriticalMax})
		v = float64(clompRes[clompKey{sc, clomp.Serial, 1}].Cycles) / float64(clompRes[clompKey{sc, clomp.LargeCritical, 4}].Cycles)
		largeCriticalSlow = append(largeCriticalSlow, item{at, v, v < 1})
	}
	smallTMGap := vsAtomic(clomp.SmallCritical, 1) / vsAtomic(clomp.SmallTM, 1)
	criticalSlow = append(criticalSlow, item{"over Small TM's, 1 scatter", smallTMGap, smallTMGap < smallCriticalMax})

	var sglCollapse, tsxNearFGL []item
	for _, name := range rmstm.Names() {
		cyc := func(sc rmstm.Scheme, th int) uint64 { return rms[rmsKey{name, sc, th}].Cycles }
		v := harness.Speedup(cyc(rmstm.FGL, 1), cyc(rmstm.SGLScheme, 8))
		sglCollapse = append(sglCollapse, item{name, v, (v < 1) == sglCollapses[name]})
		v = float64(cyc(rmstm.FGL, 8)) / float64(cyc(rmstm.TSXScheme, 8))
		tsxNearFGL = append(tsxNearFGL, item{name, v, math.Abs(v-1) <= tsxNearFGL8T})
	}
	aprioriScale := harness.Speedup(rms[rmsKey{"apriori", rmstm.FGL, 1}].Cycles, rms[rmsKey{"apriori", rmstm.FGL, 8}].Cycles)
	aprioriTSX := rms[rmsKey{"apriori", rmstm.TSXScheme, 4}]
	aprioriIO := float64(aprioriTSX.Cycles) / float64(rms[rmsKey{"apriori", rmstm.FGL, 4}].Cycles)

	var abortDrop, busyEvery []item
	var cond, busy []float64
	for _, name := range netapps.Names() {
		v := vsMutex(net, name, core.ModeTSXAbort)
		ok := v >= 1
		if name == "netferret" {
			ok = v <= tsxAbortDrop
		}
		abortDrop = append(abortDrop, item{name, v, ok})
		cond = append(cond, vsMutex(net, name, core.ModeTSXCond))
		tbw, mbw := vsMutex(net, name, core.ModeTSXBusyWait), vsMutex(net, name, core.ModeMutexBusyWait)
		busy = append(busy, tbw)
		busyEvery = append(busyEvery, item{name, tbw, tbw >= busyWaitMin}, item{name + " over mutex.busywait", tbw - mbw, tbw >= mbw-busyWaitSlack})
	}
	condMean, busyMean := harness.Mean(cond), harness.Mean(busy)
	ferretCond, ferretAbort := vsMutex(net, "netferret", core.ModeTSXCond), vsMutex(net, "netferret", core.ModeTSXAbort)

	return []ClaimResult{
		judge("fig1/small-atomic-fastest", "Small Atomic is the fastest scheme at 1 scatter (item: a scheme's speedup over Small Atomic's)", atomicFastest),
		judge("fig1/large-tm-crosses-3-4", "Large TM is slower than Small Atomic at 1-2 scatters and faster from 4 (item: Large TM's speedup over Small Atomic's)", largeTMCrosses),
		judge("fig1/small-critical-far-worse", fmt.Sprintf("Small Critical's speedup is at most %g× Small Atomic's at every scatter count, and under %g× Small TM's at 1 scatter", smallCriticalMax, smallCriticalMax), criticalSlow),
		judge("fig1/large-critical-below-serial", "Large Critical is slower than serial at every scatter count (item: its speedup over serial)", largeCriticalSlow),
		judge("fig3/sgl-collapses-exactly", "sgl@8T is slower than fgl@1T on fluidanimate and utilitymine and on no other workload (item: sgl@8T speedup vs fgl@1T)", sglCollapse),
		judge("fig3/tsx-near-fgl-8T", fmt.Sprintf("tsx@8T is within %g%% of fgl@8T, every workload (item: tsx@8T speedup / fgl@8T's)", 100*tsxNearFGL8T), tsxNearFGL),
		judge("fig3/apriori-fgl-scales", fmt.Sprintf("apriori's fgl@8T is at least %g× faster than fgl@1T", aprioriScaleMin),
			[]item{{"fgl@8T speedup", aprioriScale, aprioriScale >= aprioriScaleMin}}),
		judge("fig3/apriori-syscalls-cheap", fmt.Sprintf("apriori's tsx@4T regions abort on syscalls (I/O inside critical sections) yet take at most %g× fgl@4T's time", aprioriIOMax),
			[]item{{"syscall aborts", float64(aprioriTSX.Syscalls), aprioriTSX.Syscalls > 0}, {"tsx@4T / fgl@4T", aprioriIO, aprioriIO <= aprioriIOMax}}),
		judge("fig6/tsx-abort-drops-on-ferret-only", fmt.Sprintf("tsx.abort is at most %g× mutex on netferret and not below mutex elsewhere (item: bandwidth / mutex's)", tsxAbortDrop), abortDrop),
		judge("fig6/tsx-cond-near-mutex", fmt.Sprintf("mean tsx.cond bandwidth is within %g of mutex's", tsxCondNearMutex),
			[]item{{"mean", condMean, math.Abs(condMean-1) <= tsxCondNearMutex}}),
		judge("fig6/busywait-gain", fmt.Sprintf("mean tsx.busywait bandwidth over mutex's is within %g of %g×", busyWaitGainTo, busyWaitGain),
			[]item{{"mean", busyMean, math.Abs(busyMean-busyWaitGain) <= busyWaitGainTo}}),
		judge("fig6/tsx-cond-rescues-ferret", "on netferret tsx.cond is not below mutex and beats tsx.abort (item: bandwidth / mutex's, then tsx.cond's / tsx.abort's)",
			[]item{{"tsx.cond", ferretCond, ferretCond >= 1}, {"tsx.cond / tsx.abort", ferretCond / ferretAbort, ferretCond > ferretAbort}}),
		judge("fig6/busywait-every-app", fmt.Sprintf("tsx.busywait is at least %g× mutex and at most %g below mutex.busywait on every workload (item: bandwidth / mutex's, then its margin over mutex.busywait's)", busyWaitMin, busyWaitSlack), busyEvery),
	}, nil
}

// figureClaims evaluates the Figure 4, Figure 5 and E9 claims over the
// Figure 4 and Figure 5 apps grids and the retry sweep's cells.
func (s *Suite) figureClaims() ([]ClaimResult, error) {
	fig4, err := s.appsCells(apps.Names(), apps.FigureVariants)
	if err != nil {
		return nil, err
	}
	fig5a, err := s.appsCells([]string{"histogram"}, figure5aVariants)
	if err != nil {
		return nil, err
	}
	fig5b, err := s.appsCells([]string{"physicsSolver"}, figure5bVariants)
	if err != nil {
		return nil, err
	}
	retry, err := collect(RetryBudgets, s.retryCell)
	if err != nil {
		return nil, err
	}
	best := RetryBudgets[0]
	for _, b := range RetryBudgets {
		if retry[b].Cycles < retry[best].Cycles {
			best = b
		}
	}
	// vsBase is a variant's time over the baseline's at the same thread
	// count in one apps grid (below 1 wins).
	vsBase := func(cells map[appKey]apps.Result, name, variant string, th int) float64 {
		return float64(cells[appKey{name, variant, th}].Cycles) / float64(cells[appKey{name, "baseline", th}].Cycles)
	}

	var initLoses, coarsenFlips, initWins, lowT, highT []item
	for _, name := range []string{"ua", "histogram"} {
		for _, th := range Threads {
			at := fmt.Sprintf("%s/%dT", name, th)
			v := vsBase(fig4, name, "tsx.init", th)
			initLoses = append(initLoses, item{at, v, v > 1})
			v = vsBase(fig4, name, "tsx.coarsen", th)
			coarsenFlips = append(coarsenFlips, item{at, v, v < 1})
		}
	}
	for _, name := range []string{"physicsSolver", "nufft"} {
		v := vsBase(fig4, name, "tsx.init", 8)
		initWins = append(initWins, item{name + "/8T", v, v < 1})
	}
	g := coarsenGeomean8T(fig4)
	for _, cf := range []struct {
		cells         map[appKey]apps.Result
		name, variant string
	}{{fig5a, "histogram", "privatize"}, {fig5b, "physicsSolver", "barrier"}} {
		for _, th := range []int{1, 2} {
			v := vsBase(cf.cells, cf.name, cf.variant, th)
			lowT = append(lowT, item{fmt.Sprintf("%s/%dT", cf.variant, th), v, v < 1})
		}
		v := vsBase(cf.cells, cf.name, cf.variant, 8)
		highT = append(highT, item{cf.variant + "/8T", v, v >= lossAt8TMin})
	}
	gran1T := vsBase(fig5b, "physicsSolver", "tsx.gran3", 1) / vsBase(fig5b, "physicsSolver", "tsx.gran1", 1)
	gran8T := vsBase(fig5b, "physicsSolver", "tsx.gran3", 8) / vsBase(fig5b, "physicsSolver", "tsx.gran2", 8)
	retryGain := float64(retry[6].Cycles) / float64(retry[1].Cycles)

	return []ClaimResult{
		judge("fig4/tsx-init-loses", "tsx.init is slower than baseline on ua and histogram at every thread count (item: time / baseline's)", initLoses),
		judge("fig4/coarsen-flips", "tsx.coarsen is faster than baseline on ua and histogram at every thread count (item: time / baseline's)", coarsenFlips),
		judge("fig4/coarsen-8T-geomean", fmt.Sprintf("tsx.coarsen's speedup over baseline at 8T, geomean over the workloads, is within %g of %g×", coarsenGeomeanTo, coarsenGeomean),
			[]item{{"geomean", g, math.Abs(g-coarsenGeomean) <= coarsenGeomeanTo}}),
		judge("fig4/lockset-init-wins-8T", "tsx.init is faster than baseline at 8T on the lockset workloads physicsSolver and nufft (item: time / baseline's)", initWins),
		judge("fig5/conflict-free-wins-1-2T", "privatize (histogram) and barrier (physicsSolver) beat their baseline at 1T and 2T (item: time / baseline's)", lowT),
		judge("fig5/conflict-free-loses-8T", fmt.Sprintf("privatize and barrier take at least %g× their baseline's time at 8T (item: time / baseline's)", lossAt8TMin), highT),
		judge("fig5/granularity-inflection", "physicsSolver's tsx.gran3 is faster than tsx.gran1 at 1T and slower than tsx.gran2 at 8T (item: gran3's time / the other's)",
			[]item{{"gran3/gran1@1T", gran1T, gran1T < 1}, {"gran3/gran2@8T", gran8T, gran8T > 1}}),
		judge("e9/best-budget-5", fmt.Sprintf("the retry budget with the fewest cycles is %d", bestRetryBudget),
			[]item{{"argmin", float64(best), best == bestRetryBudget}}),
		judge("e9/retries-pay", fmt.Sprintf("6 retries take at most %g× the cycles of 1 retry", retryGainMax),
			[]item{{"6/1", retryGain, retryGain <= retryGainMax}}),
	}, nil
}
