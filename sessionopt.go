package mmdb

// SessionOption configures one session at admission time. Options are
// applied in order; the zero-option call db.NewSession(ctx) admits a
// Batch-class session with the class's default memory grant (its static
// share of MemoryPages), exactly the pre-option behavior.
type SessionOption func(*sessionConfig)

// sessionConfig is the resolved per-session admission request.
type sessionConfig struct {
	class    QueryClass
	minPages int
	retries  int
	readPref ReadPreference
}

func defaultSessionConfig() sessionConfig {
	return sessionConfig{class: Batch}
}

// resolveSessionConfig folds opts over the default config: the one
// resolution path shared by Database.NewSession and the Cluster's read
// routing, so an option means the same thing everywhere it can appear —
// NewSession, one-shot Query calls, and the wire protocol's
// per-statement options.
func resolveSessionConfig(opts []SessionOption) sessionConfig {
	cfg := defaultSessionConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithClass admits the session under the given priority class.
// Interactive sessions are granted freed slots ahead of queued Batch work
// under StrictPriority (and in weight proportion under WeightedFair), and
// their memory grants may draw the class's reserved pages. Invalid
// classes fall back to Batch, the default.
func WithClass(c QueryClass) SessionOption {
	return func(cfg *sessionConfig) {
		if c.Valid() {
			cfg.class = c
		}
	}
}

// WithMinPages requests an explicit memory grant of at least n pages
// instead of the default share: the session's grant is exactly n,
// clamped to [2, the class's drawable pool]. Use it when a query was
// costed against a specific |M| and must execute with it. n <= 0 keeps
// the default.
func WithMinPages(n int) SessionOption {
	return func(cfg *sessionConfig) {
		if n > 0 {
			cfg.minPages = n
		}
	}
}

// WithRetry opts the session's queries into bounded retry when they are
// killed by a *transient* injected device fault (ErrFaultTransient): the
// query is re-run, up to n extra attempts, and each attempt's output is
// buffered and delivered only on success — the caller never observes a
// partial result set from a failed attempt. Permanent faults and every
// other error still surface immediately. Each attempt charges the
// session clock as usual, so retried queries honestly cost more virtual
// time. n <= 0 keeps retries off, the default.
func WithRetry(n int) SessionOption {
	return func(cfg *sessionConfig) {
		if n > 0 {
			cfg.retries = n
		}
	}
}

// WithReadPreference routes the session's (or one-shot query's) reads
// when the receiver is a Cluster: NearestReplica prefers the most
// caught-up replica, BoundedStaleness any replica within its LSN-lag
// bound, and the default (PrimaryOnly) pins reads to the primary.
// Routing never fails — when no replica qualifies, the primary answers.
// On a plain Database the option is accepted and ignored, so code can
// pass it unconditionally and behave identically over both handles; the
// wire protocol carries the same preference per statement (docs/WIRE.md).
func WithReadPreference(p ReadPreference) SessionOption {
	return func(cfg *sessionConfig) {
		cfg.readPref = p
	}
}
