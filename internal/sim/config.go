package sim

import "fmt"

// ConfigError reports an invalid machine configuration. NewE returns it and
// New panics with it, so callers that construct machines from user input
// (topology flags, sweep grids) can surface the offending field instead of
// crashing deep inside construction.
type ConfigError struct {
	Field  string // the Config field that is out of range
	Detail string // what about it, including the model limit it violates
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("sim: invalid config: %s: %s", e.Field, e.Detail)
}

// normalized returns cfg with the paper defaults applied to zero-valued
// topology and cost fields: 1 socket × 4 cores × 2 HyperThreads,
// DefaultCosts. Negative values are left for Validate to reject.
func (cfg Config) normalized() Config {
	if cfg.Sockets == 0 {
		cfg.Sockets = 1
	}
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if cfg.ThreadsPerCore == 0 {
		cfg.ThreadsPerCore = 2
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	return cfg
}

// Validate checks the topology against the model's structural limits and
// returns a typed *ConfigError for the first violation. Zero-valued fields
// are normalized to the paper defaults first, so Validate accepts exactly
// the configurations NewE accepts.
//
// The limits come from packed representations, not arbitrary policy: the
// presence directory records line holders in a 64-bit core mask, the L1 way
// metadata packs per-thread read/write marks into 8-bit masks, and the
// scheduling key gives thread ids keyIDBits bits.
func (cfg Config) Validate() error {
	cfg = cfg.normalized()
	if cfg.Sockets < 1 {
		return &ConfigError{"Sockets", fmt.Sprintf("%d sockets; need at least 1", cfg.Sockets)}
	}
	if cfg.Cores < 1 {
		return &ConfigError{"Cores", fmt.Sprintf("%d cores per socket; need at least 1", cfg.Cores)}
	}
	if cfg.ThreadsPerCore < 1 {
		return &ConfigError{"ThreadsPerCore", fmt.Sprintf("%d threads per core; need at least 1", cfg.ThreadsPerCore)}
	}
	if cfg.ThreadsPerCore > maxThreadsPerCore {
		return &ConfigError{"ThreadsPerCore",
			fmt.Sprintf("%d threads per core; the L1 way metadata packs per-thread marks into %d-bit masks",
				cfg.ThreadsPerCore, maxThreadsPerCore)}
	}
	// Bound the factors before multiplying so absurd inputs cannot overflow
	// the products checked below.
	if cfg.Sockets > maxCores {
		return &ConfigError{"Sockets", fmt.Sprintf("%d sockets; the presence directory's core bitmask holds %d cores total", cfg.Sockets, maxCores)}
	}
	if cfg.Cores > maxCores {
		return &ConfigError{"Cores", fmt.Sprintf("%d cores per socket; the presence directory's core bitmask holds %d cores total", cfg.Cores, maxCores)}
	}
	if total := cfg.Sockets * cfg.Cores; total > maxCores {
		return &ConfigError{"Sockets",
			fmt.Sprintf("%d total cores (%d sockets × %d per socket); the presence directory's core bitmask holds %d",
				total, cfg.Sockets, cfg.Cores, maxCores)}
	}
	if threads := cfg.Sockets * cfg.Cores * cfg.ThreadsPerCore; threads > 1<<keyIDBits {
		return &ConfigError{"ThreadsPerCore",
			fmt.Sprintf("%d hardware threads; the packed scheduling key's id field holds %d",
				threads, 1<<keyIDBits)}
	}
	if cfg.ThreadsPerCore > 1 && !cfg.DisableHT && cfg.Costs.HTFactorDen < 1 {
		return &ConfigError{"Costs.HTFactorDen", "HyperThread co-residency scaling needs a positive denominator"}
	}
	if _, err := ParseLayout(cfg.Layout); err != nil {
		return &ConfigError{"Layout", err.Error()}
	}
	return nil
}

const (
	// maxCores is the machine-wide core limit: the presence directory and
	// the coherence probe represent the set of holders as a uint64 bitmask
	// indexed by core id.
	maxCores = 64
	// maxThreadsPerCore is the per-core hardware thread limit: cache way
	// metadata packs per-thread transactional read and write marks into
	// 8-bit fields (see metaWShift in cache.go).
	maxThreadsPerCore = 8
)
