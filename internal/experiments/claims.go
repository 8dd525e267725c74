package experiments

import (
	"fmt"
	"math"
	"strings"

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
)

// deviations maps claim ID → item → its documented band.
var deviations = map[string]map[string]deviation{
	// bayes and labyrinth are capacity-bound at one thread: their tsx runs
	// mostly abort and fall back (Table 1: 63% and 93%, paper 64% and 87%).
	"fig2/tsx-1T-near-sgl": {
		"bayes":     {1.4, 1.9, docE2},
		"labyrinth": {1.9, 2.5, docE2},
	},
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
)

// Claims evaluates the Figure 2, Table 1 and A6 claims.
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

	return []ClaimResult{
		judge("fig2/tl2-1T-overhead", fmt.Sprintf("tl2@1T is at least %g× sgl@1T, except labyrinth", tl2OverheadMin), tl2Over),
		judge("fig2/tsx-1T-near-sgl", fmt.Sprintf("tsx@1T is within %g of sgl@1T", tsxNearSGL), tsx1T),
		judge("table1/ssca2-tsx-near-0", fmt.Sprintf("ssca2's tsx abort rate is at most %g%% at every thread count", ssca2AbortMax), ssca2),
		judge("table1/tsx-8T-above-4T", "tsx aborts more at 8T (HyperThreads share the L1) than at 4T, every workload (item: 8T-4T points)", ht),
		judge("a6/global-lock-retrogrades", "the global lock delivers less bandwidth at 64 cores than at 16", []item{{"64C/16C", gl64, gl64 < 1}}),
		judge("a6/tsx-tracks-fine-grained", fmt.Sprintf("tsx is within %g%% of fine-grained in every A6 cell", 100*tsxTracksFG), tracks),
		judge("a6/client-plateau", fmt.Sprintf("bandwidth moves under %g%% from 10⁴ to 10⁵ clients, every module", 100*clientPlateauMax), plateau),
	}, nil
}
