package memo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync"

	"tsxhpc/internal/sim"
)

// ModelFingerprint hashes everything that can change a simulation cell's
// virtual-cycle result given its key:
//
//   - the resolved sim.DefaultConfig() — cost profile, core/HT topology,
//     RNG seed, and the process-wide run defaults folded into it (fault
//     plan with its chaos seed and knobs, cycle budgets);
//   - a fingerprint of the simulator code (CodeFingerprint);
//   - the store codec schema version.
//
// Two processes share cache entries iff their fingerprints match, so a cost
// table edit, a simulator change, or a different chaos seed each move the
// store to a fresh namespace automatically. Everything else that
// distinguishes cells (workload, mode, threads, per-experiment knobs) is in
// the cell key by the runner's contract.
//
// Call it after sim.SetRunDefaults for the run defaults to be captured.
func ModelFingerprint() (string, error) {
	code, err := CodeFingerprint()
	if err != nil {
		return "", err
	}
	return fingerprint(sim.DefaultConfig(), code), nil
}

// fingerprint combines one resolved machine config with a code fingerprint.
// %#v renders every cost field and the concrete fault-plan value (chaos
// knobs included) deterministically.
func fingerprint(cfg sim.Config, code string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("schema=%d\ncode=%s\nmodel=%#v\n", schemaVersion, code, cfg)))
	return hex.EncodeToString(h[:])[:16]
}

var codeFP struct {
	once sync.Once
	v    string
	err  error
}

// CodeFingerprint identifies the simulator build:
//
//  1. the VCS revision stamped into the binary, when the tree was clean
//     ("vcs:<rev>");
//  2. otherwise a hash of the running executable ("exe:<hash>") — the
//     dirty-tree, `go run` and `go test` path. Go builds are reproducible,
//     so the same sources build the same bytes, and any code change
//     compiled into the binary moves it to a fresh namespace.
//
// Both are functions of the running code alone, never of the working
// directory. If neither is computable the error tells callers to run
// without a persistent cache rather than risk serving stale results.
func CodeFingerprint() (string, error) {
	codeFP.once.Do(func() { codeFP.v, codeFP.err = computeCodeFingerprint() })
	return codeFP.v, codeFP.err
}

func computeCodeFingerprint() (string, error) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		modified := true
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
		if rev != "" && !modified {
			return "vcs:" + rev, nil
		}
	}
	exe, err := os.Executable()
	if err == nil {
		var h string
		if h, err = fileHash(exe); err == nil {
			return "exe:" + h, nil
		}
	}
	return "", fmt.Errorf("memo: cannot fingerprint the build (no clean VCS stamp, executable unreadable: %v); run with the cache off", err)
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
