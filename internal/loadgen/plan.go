package loadgen

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/exp"
)

// This file builds the request plan: the complete, deterministic
// schedule of operations a run will execute, generated single-threaded
// from per-client seeded RNG streams BEFORE any request is sent. The
// plan is the determinism contract of the harness — the same seed and
// config produce a byte-identical schedule on any machine with any
// executor worker count, because workers only execute the plan, they
// never draw randomness. Wall-clock timings live in the report's
// scenario stats, never in the schedule.

// Op kinds. Submissions create jobs; artifact_get and sse target the
// job created by an earlier submission of the same client (Follows);
// cancel submits a throwaway campaign and deletes it immediately.
const (
	KindCampaignCached   = "campaign_cached"
	KindCampaignUncached = "campaign_uncached"
	KindSim              = "sim"
	KindArtifactGet      = "artifact_get"
	KindSSE              = "sse"
	KindCancel           = "cancel"
	// KindDistributed is an uncached campaign submission intended for a
	// coordinator target: the payload is unique per op (no cache or
	// single-flight collapse), so the measured latency is the distributed
	// execution path end to end. Point the harness at a 1-worker and then
	// an N-worker coordinator with the same seed to get the scaling
	// comparison in BENCH_NOTES.md.
	KindDistributed = "distributed"
	// KindDrain runs Config.DrainCmd — an operator-supplied shell command
	// that SIGTERMs and relaunches a worker (or otherwise perturbs the
	// deployment) mid-run. It is the resilience drill of the mix: with
	// drain ops interleaved, a run against a journaled coordinator must
	// still finish with zero failed campaigns. No path or body; the
	// command itself is config, not schedule.
	KindDrain = "drain"
)

// opKinds is the fixed mix order (weights are drawn in this order, so
// the order is part of the determinism contract; new kinds append at
// the end, which leaves every zero-weight-for-them schedule unchanged).
var opKinds = []string{KindCampaignCached, KindCampaignUncached, KindSim, KindArtifactGet, KindSSE, KindCancel, KindDistributed, KindDrain}

// Op is one planned operation. Everything in it is derived from the
// seed; the JSON rendering (embedded in BENCH_SERVE.json as the
// schedule) is byte-identical across runs with the same seed and
// config.
type Op struct {
	// Index is the op's position in the global dispatch order.
	Index int `json:"index"`
	// Client and Seq identify the issuing client and its per-client
	// sequence number.
	Client int    `json:"client"`
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	// AtMicros is the open-loop dispatch offset from run start
	// (microseconds; 0 in closed-loop mode, where clients run their ops
	// back to back).
	AtMicros int64 `json:"at_micros"`
	// Path is the submission endpoint for submission kinds ("" for
	// follow-up kinds, whose URL depends on the job id learned at run
	// time).
	Path string `json:"path,omitempty"`
	// Body is the canonical request payload, nonce-free (the nonce is
	// mixed in at execution time only, so it never perturbs the
	// schedule).
	Body string `json:"body,omitempty"`
	// Follows is the plan index of the submission this op targets (-1
	// for submissions and cancels).
	Follows int `json:"follows"`
	// Artifact is the artifact file an artifact_get fetches.
	Artifact string `json:"artifact,omitempty"`
}

// at returns the dispatch offset as a duration.
func (o *Op) at() time.Duration { return time.Duration(o.AtMicros) * time.Microsecond }

// isSubmission reports whether the op creates a job whose id follow-up
// ops can target.
func (o *Op) isSubmission() bool {
	switch o.Kind {
	case KindCampaignCached, KindCampaignUncached, KindSim, KindDistributed:
		return true
	}
	return false
}

// DefaultSpec is the shared cached-campaign payload: every client
// submits it verbatim, so the first submission is the one cache miss
// and everything after exercises the memory/disk/single-flight tiers.
// It mirrors the golden spec of internal/campaign — cheap, and covering
// a static table plus an analytic experiment.
const DefaultSpec = `{"name":"load-shared","seed":1,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`

// specExperiments are the artifact base names DefaultSpec (and every
// uncached variant, which shares its experiment list) produces.
var specExperiments = []string{"e1", "e3"}

// artifactFormats mirrors results.Formats() — fixed here so the plan
// never depends on map iteration or registry order.
var artifactFormats = []string{"json", "csv", "txt"}

// uncachedSpec builds a unique campaign payload for (client, seq): the
// DefaultSpec experiments under a seed derived from the base seed and
// the op coordinates, so no two ops in a run share a cache key (and
// reruns with the same base seed regenerate the same payloads).
func uncachedSpec(base int64, kind string, client, seq int) string {
	seed := positiveSeed(base, fmt.Sprintf("%s-c%d-s%d", kind, client, seq))
	return fmt.Sprintf(`{"name":"load-c%d-s%d","seed":%d,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`,
		client, seq, seed)
}

// distributedSpec builds the payload for distributed submissions: the
// DefaultSpec experiments plus a small real cycle simulation (X1), so a
// coordinator target fans the job out to workers that stream per-epoch
// progress back. The extra experiment is what makes the followed SSE
// verification meaningful — an all-analytic spec would never publish an
// epoch event. Artifact picks stay valid because the experiment list is
// a superset of specExperiments.
func distributedSpec(base int64, client, seq int) string {
	seed := positiveSeed(base, fmt.Sprintf("distributed-c%d-s%d", client, seq))
	return fmt.Sprintf(`{"name":"load-c%d-s%d","seed":%d,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}},{"id":"X1","params":{"size":64,"threads":8,"epochs":3,"hts":8}}]}`,
		client, seq, seed)
}

// simBody builds a small unique sim payload for (client, seq).
func simBody(base int64, client, seq int) string {
	seed := positiveSeed(base, fmt.Sprintf("sim-c%d-s%d", client, seq))
	return fmt.Sprintf(`{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":%d,"workers":1}`, seed)
}

// positiveSeed derives a strictly positive seed for a named stream
// (payload seeds are user-visible in specs, where 0 means "default").
func positiveSeed(base int64, stream string) int64 {
	s := exp.StreamSeed(base, stream) & 0x7fffffffffffffff
	if s == 0 {
		s = 1
	}
	return s
}

// Plan is the full run schedule in dispatch order.
type Plan struct {
	Ops []Op `json:"ops"`
}

// BuildPlan generates the schedule for cfg. Each client owns one RNG
// stream seeded by exp.StreamSeed(cfg.Seed, "client-<i>"); kind choices,
// inter-arrival draws, and artifact picks all come from that stream, so
// clients are mutually independent and the whole plan is reproducible
// from cfg alone. Open loop: exponential inter-arrivals at
// cfg.Rate/Clients per client up to the cfg.Duration horizon. Closed
// loop: exactly cfg.Requests ops per client, dispatched back to back
// (AtMicros 0) — bounded by count, not wall time, so the schedule never
// depends on how fast the server answers.
func BuildPlan(cfg Config) (*Plan, error) {
	weights, err := cfg.Mix.weights()
	if err != nil {
		return nil, err
	}
	var ops []Op
	for c := 0; c < cfg.Clients; c++ {
		rng := rand.New(exp.NewSource(exp.StreamSeed(cfg.Seed, fmt.Sprintf("client-%d", c))))
		lastSub := -1 // plan index of this client's latest submission
		emit := func(seq int, atMicros int64) {
			op := Op{
				Client:   c,
				Seq:      seq,
				Kind:     pickKind(rng, weights),
				AtMicros: atMicros,
				Follows:  -1,
			}
			// Follow-up kinds need a prior submission to target; a client's
			// first ops upgrade to the shared cached campaign instead.
			if (op.Kind == KindArtifactGet || op.Kind == KindSSE) && lastSub < 0 {
				op.Kind = KindCampaignCached
			}
			switch op.Kind {
			case KindCampaignCached:
				op.Path, op.Body = "/v1/campaigns", cfg.Spec
			case KindCampaignUncached:
				op.Path, op.Body = "/v1/campaigns", uncachedSpec(cfg.Seed, "uncached", c, seq)
			case KindDistributed:
				op.Path, op.Body = "/v1/campaigns", distributedSpec(cfg.Seed, c, seq)
			case KindSim:
				op.Path, op.Body = "/v1/sims", simBody(cfg.Seed, c, seq)
			case KindCancel:
				op.Path, op.Body = "/v1/campaigns", uncachedSpec(cfg.Seed, "cancel", c, seq)
			case KindArtifactGet:
				op.Follows = lastSub
				op.Artifact = planArtifact(rng, ops[lastSub].Kind)
			case KindSSE:
				op.Follows = lastSub
			case KindDrain:
				// No path or body: the op is a marker in the schedule; the
				// command it runs lives in config.
			}
			// Index is provisional (per-client emit order); the merge below
			// renumbers into global dispatch order.
			ops = append(ops, op)
			if op.isSubmission() {
				lastSub = len(ops) - 1
			}
		}

		if cfg.Mode == ModeClosed {
			for seq := 0; seq < cfg.Requests; seq++ {
				emit(seq, 0)
			}
			continue
		}
		perClient := cfg.Rate / float64(cfg.Clients)
		at := time.Duration(0)
		for seq := 0; ; seq++ {
			at += time.Duration(rng.ExpFloat64() / perClient * float64(time.Second))
			if at >= cfg.Duration {
				break
			}
			emit(seq, at.Microseconds())
		}
	}

	// Merge clients into global dispatch order: by time, ties broken by
	// (client, seq) so the order is total and deterministic. Follows
	// indices are per-slice already (they point into ops), so remap them
	// through the permutation.
	perm := make([]int, len(ops))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		x, y := &ops[perm[a]], &ops[perm[b]]
		if x.AtMicros != y.AtMicros {
			return x.AtMicros < y.AtMicros
		}
		if x.Client != y.Client {
			return x.Client < y.Client
		}
		return x.Seq < y.Seq
	})
	newIndex := make([]int, len(ops))
	for newPos, old := range perm {
		newIndex[old] = newPos
	}
	sorted := make([]Op, len(ops))
	for newPos, old := range perm {
		op := ops[old]
		op.Index = newPos
		if op.Follows >= 0 {
			op.Follows = newIndex[op.Follows]
		}
		sorted[newPos] = op
	}
	return &Plan{Ops: sorted}, nil
}

// pickKind draws one op kind from the cumulative mix weights.
func pickKind(rng *rand.Rand, cum []float64) string {
	x := rng.Float64()
	for i, c := range cum {
		if x < c {
			return opKinds[i]
		}
	}
	return opKinds[len(opKinds)-1]
}

// planArtifact picks which artifact file an artifact_get fetches, from
// the followed submission's known output set.
func planArtifact(rng *rand.Rand, followsKind string) string {
	format := artifactFormats[rng.Intn(len(artifactFormats))]
	if followsKind == KindSim {
		return "run." + format
	}
	return specExperiments[rng.Intn(len(specExperiments))] + "." + format
}

// ScheduleJSON renders the plan as canonical indented JSON — the bytes
// the determinism test compares across worker counts.
func (p *Plan) ScheduleJSON() ([]byte, error) {
	return json.MarshalIndent(p, "", "  ")
}
