package analysis

// DefaultSuite returns the protocol-invariant analyzer suite with each
// analyzer bound to the packages whose invariants it encodes. Scope
// entries are module-relative import paths; cmd/ringbft-vet runs this
// suite and `make lint` must exit zero on the repository.
//
// Adding a rule: write the Analyzer in its own file, give it fixtures
// under testdata/src/<name>/ (see analysistest.go), wire it here with a
// scope and a Why, and burn the existing findings down — fix real
// violations, or annotate with `//ringbft:ignore <name> <reason>` where
// the code is right and the rule's approximation is what's wrong.
func DefaultSuite() []Scoped {
	// Every cmd/ binary: the ringbft-client MAC bug lived in cmd/, outside
	// every PR 6 scope — the lesson is that entry points handle messages
	// and replay schedules too.
	cmds := []string{
		"cmd/ringbft-bench", "cmd/ringbft-chaos", "cmd/ringbft-client",
		"cmd/ringbft-node", "cmd/ringbft-vet",
	}
	// Determinism-critical: packages whose control flow must replay
	// identically across replicas (sequence assignment, message emission)
	// or across reruns of one seed (chaos schedules, harness scheduling).
	// internal/wal and internal/store joined in PR 9: recovery replay and
	// read-set assembly must be byte-identical across replicas as well.
	deterministic := append([]string{
		"internal/pbft", "internal/host", "internal/ringbft", "internal/ahl",
		"internal/sharper", "internal/chaos", "internal/harness",
		"internal/protocols", "internal/evidence",
		"internal/wal", "internal/store", "internal/tcpnet",
	}, cmds...)
	// Byzantine-facing: packages that handle messages from other nodes.
	// internal/evidence qualifies twice over: records are built from peer
	// messages, and transferable records are re-verified on foreign nodes.
	handlers := append([]string{
		"internal/pbft", "internal/host", "internal/ringbft", "internal/ahl",
		"internal/sharper", "internal/protocols", "internal/evidence",
		"internal/wal", "internal/store", "internal/tcpnet",
	}, cmds...)
	// Codec-bearing: packages that touch peer- or disk-supplied bytes.
	// internal/types carries the one codec and its cursor (types.Reader);
	// wal, evidence and tcpnet parse through it; internal/crypto parses
	// keys and signatures.
	codecs := []string{
		"internal/wal", "internal/evidence", "internal/tcpnet",
		"internal/store", "internal/types", "internal/crypto",
	}
	// Seed-deterministic: Scenario(seed) and jitter sampling must replay.
	// internal/metrics and internal/trace join the scope because their
	// wall-clock-freedom is what lets instrumented chaos runs stay
	// byte-identical: every timestamp must come from a caller-injected
	// clock, never time.Now.
	seeded := []string{
		"internal/chaos", "internal/simnet",
		"internal/metrics", "internal/trace",
	}

	return []Scoped{
		{Analyzer: MapIter, Scope: deterministic,
			Why: "map order must not reach sequence assignment, message emission, or schedules"},
		{Analyzer: VerifyFirst, Scope: handlers,
			Why: "payload adoption must be dominated by a Verify* authenticity check"},
		{Analyzer: LockSend, Scope: nil,
			Why: "no blocking op under any mutex, anywhere in the module"},
		{Analyzer: WallClock, Scope: seeded,
			Why: "seed-reproducibility: no wall clock or global rand in schedule construction"},
		{Analyzer: KindSwitch, Scope: nil,
			Why: "a new MsgType or WAL record kind must not silently fall through any dispatch switch"},
		{Analyzer: CodecBounds, Scope: codecs,
			Why: "every hand-rolled decoder read must sit behind a length check; hostile frames must error, not panic"},
		{Analyzer: LockOrder, Scope: nil,
			Why: "lock cycles span packages (harness wraps engine mutexes around tcpnet); the whole module is one acquisition graph"},
	}
}

// Analyzers returns every analyzer in the default suite, unscoped (the
// fixture harness and -only flag look analyzers up by name here).
func Analyzers() []*Analyzer {
	return []*Analyzer{MapIter, VerifyFirst, LockSend, WallClock, KindSwitch, CodecBounds, LockOrder}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
