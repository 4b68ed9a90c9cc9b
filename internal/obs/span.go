package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Causal spans
// ------------
//
// A Span is one node of a causal tree describing where an operation's
// virtual time went: the root is a user-visible operation (write, read,
// parity commit, rebuild), its children are pipeline phases (direct
// stripe write, elastic log-stripe flush, commit flush, commit fold), and
// the leaves are individual device I/Os. Every node carries virtual-time
// start/end stamps, a unique ID, its parent's ID, and shard/LBA
// attribution, so a span tree answers "which phase, on which shard, on
// which device" for any slow request — the per-stage breakdown the flat
// latency histograms cannot give.
//
// Ownership and pooling contract (relied on by the engine's
// zero-allocation steady state):
//
//   - Spans are created through a SpanRecorder (one per engine shard) and
//     belong to the goroutine building the tree until the root is passed
//     to Finish. Only that goroutine may touch the tree — the recorder's
//     lock covers the free list and the completed ring, never the nodes.
//   - Finish publishes the root into a bounded ring of recently completed
//     trees. When the ring is full the oldest tree is evicted and every
//     node recycles onto the recorder's free list, so a warmed-up
//     recorder allocates nothing in steady state.
//   - Snapshot deep-copies the ring into plain SpanSnapshot values; live
//     Span nodes never escape the recorder.
//
// All methods are nil-safe: a nil recorder hands out nil spans and a nil
// span ignores every call, so instrumented code needs no "are spans
// enabled?" branches.

// SpanKind identifies what a span node describes.
type SpanKind uint8

// Span kinds. Roots first, then phases, then I/O leaves.
const (
	// SpanWrite is one user write request (root; LBA/N = request range).
	SpanWrite SpanKind = iota + 1
	// SpanRead is one user read request (root).
	SpanRead
	// SpanCommit is one per-shard parity commit (root; Cause names the
	// trigger: manual, every, guard, space, pressure; the stripes folded
	// are the N of its SpanCommitFold child).
	SpanCommit
	// SpanRebuild is a device rebuild (root; LBA = device index, N =
	// chunks reconstructed).
	SpanRebuild
	// SpanDirect is a direct full-stripe write phase (LBA = first chunk
	// of the stripe, N = data chunks).
	SpanDirect
	// SpanLogAppend is one elastic log-stripe flush phase (LBA = log
	// position, N = member width k').
	SpanLogAppend
	// SpanCommitFlush is a commit's buffer-drain phase.
	SpanCommitFlush
	// SpanCommitFold is a commit's parity-fold phase (N = stripes).
	SpanCommitFold
	// SpanCommitPrefold is the read-and-encode pass the group committer ran
	// off the shard lock before the commit took it (N = stripes encoded).
	SpanCommitPrefold
	// SpanIORead is one device chunk read (Dev = device name, LBA =
	// device-local chunk).
	SpanIORead
	// SpanIOWrite is one device chunk write (fields as SpanIORead).
	SpanIOWrite
	// SpanNetBatch is one cross-connection write batch entering the
	// engine (root; N = ops in the batch). Timestamps are wall-clock
	// seconds since the server's epoch, not virtual time.
	SpanNetBatch
	// SpanNet is one network request inside a batch (LBA/N = request
	// range; Cause = frame type name).
	SpanNet
	// SpanNetReadBatch is one cross-connection read batch entering the
	// engine (root; N = ops in the batch). Wall-clock timestamps, like
	// SpanNetBatch.
	SpanNetReadBatch
)

var spanKindNames = map[SpanKind]string{
	SpanWrite:         "write",
	SpanRead:          "read",
	SpanCommit:        "commit",
	SpanRebuild:       "rebuild",
	SpanDirect:        "direct-stripe",
	SpanLogAppend:     "log-append",
	SpanCommitFlush:   "commit-flush",
	SpanCommitFold:    "commit-fold",
	SpanCommitPrefold: "commit-prefold",
	SpanIORead:        "io-read",
	SpanIOWrite:       "io-write",
	SpanNetBatch:      "net-batch",
	SpanNet:           "net",
	SpanNetReadBatch:  "net-read-batch",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if s, ok := spanKindNames[k]; ok {
		return s
	}
	return "span-kind-?"
}

// MarshalJSON encodes the kind as its string name.
func (k SpanKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// spanIDs hands out process-unique span IDs.
var spanIDs atomic.Uint64

// Span is one node of a causal span tree. Nodes are pooled; see the
// ownership contract in the package comment above. Fields are read
// through Snapshot copies, never from live nodes.
type Span struct {
	id     uint64
	parent uint64
	kind   SpanKind
	shard  int32
	start  float64
	end    float64
	lba    int64
	n      int64
	dev    string // device name, I/O leaves only
	cause  string // commit trigger, commit roots only
	kids   []*Span
	rec    *SpanRecorder // owning recorder (pool access for Child/IO)
}

// reset clears a recycled node for reuse, keeping the children slice's
// capacity.
func (s *Span) reset() {
	s.id, s.parent, s.kind, s.shard = 0, 0, 0, 0
	s.start, s.end, s.lba, s.n = 0, 0, 0, 0
	s.dev, s.cause = "", ""
	s.kids = s.kids[:0]
}

// Child appends a phase child starting at start, attributed to shard, and
// returns it. Nil-safe: a nil receiver returns nil.
func (s *Span) Child(kind SpanKind, shard int, start float64, lba, n int64) *Span {
	if s == nil {
		return nil
	}
	c := s.rec.get()
	c.id = spanIDs.Add(1)
	c.parent = s.id
	c.kind = kind
	c.shard = int32(shard)
	c.start, c.end = start, start
	c.lba, c.n = lba, n
	c.rec = s.rec
	s.kids = append(s.kids, c)
	return c
}

// IO appends a device I/O leaf. Nil-safe.
func (s *Span) IO(write bool, dev string, chunk int64, start, end float64) {
	if s == nil {
		return
	}
	kind := SpanIORead
	if write {
		kind = SpanIOWrite
	}
	c := s.Child(kind, int(s.shard), start, chunk, 1)
	c.dev = dev
	c.end = end
}

// Close stamps the span's completion time. Nil-safe.
func (s *Span) Close(end float64) {
	if s == nil {
		return
	}
	s.end = end
}

// SetCause labels a commit root with its trigger name. The string should
// be a static constant (the steady state must not build strings). Nil-safe.
func (s *Span) SetCause(cause string) {
	if s == nil {
		return
	}
	s.cause = cause
}

// SetN replaces the span's count, for a root whose count is known only at
// its end (a rebuild's chunks reconstructed). Nil-safe.
func (s *Span) SetN(n int64) {
	if s == nil {
		return
	}
	s.n = n
}

// DefaultSpanTrees is the default per-recorder ring capacity.
const DefaultSpanTrees = 256

// SpanConfig parameterizes span recording.
type SpanConfig struct {
	// Trees is the per-recorder bounded ring capacity, in completed span
	// trees (<= 0 selects DefaultSpanTrees). Every operation is recorded.
	Trees int
}

func (c SpanConfig) withDefaults() SpanConfig {
	if c.Trees <= 0 {
		c.Trees = DefaultSpanTrees
	}
	return c
}

// SpanRecorder records causal span trees for one engine shard: a free
// list of pooled nodes and a bounded ring of recently completed trees.
// The zero value is not usable; recorders come from Sink.SpanRecorder.
type SpanRecorder struct {
	mu   sync.Mutex
	cfg  SpanConfig
	free []*Span // recycled nodes
	// ring holds the most recent completed roots: a circular buffer of
	// cfg.Trees entries, oldest at head once full.
	ring  []*Span
	head  int
	total uint64 // roots ever published
}

func newSpanRecorder(cfg SpanConfig) *SpanRecorder {
	cfg = cfg.withDefaults()
	return &SpanRecorder{cfg: cfg, ring: make([]*Span, 0, cfg.Trees)}
}

// get pops a pooled node (or allocates while the pool warms up).
func (r *SpanRecorder) get() *Span {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		s := r.free[n-1]
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return s
	}
	r.mu.Unlock()
	return &Span{}
}

// recycleLocked returns a tree's nodes to the free list. r.mu is held.
func (r *SpanRecorder) recycleLocked(s *Span) {
	for _, c := range s.kids {
		r.recycleLocked(c)
	}
	s.reset()
	r.free = append(r.free, s)
}

// Start begins a root span for one operation. It returns nil — a no-op
// tree — when the recorder is nil.
func (r *SpanRecorder) Start(kind SpanKind, shard int, start float64, lba, n int64) *Span {
	if r == nil {
		return nil
	}
	s := r.get()
	s.id = spanIDs.Add(1)
	s.kind = kind
	s.shard = int32(shard)
	s.start, s.end = start, start
	s.lba, s.n = lba, n
	s.rec = r
	return s
}

// Finish closes the root and publishes its tree into the ring, evicting
// (and recycling) the oldest tree when full. Nil-safe in both arguments.
func (r *SpanRecorder) Finish(s *Span, end float64) {
	if r == nil || s == nil {
		return
	}
	s.end = end
	r.mu.Lock()
	r.total++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, s)
		r.mu.Unlock()
		return
	}
	old := r.ring[r.head]
	r.ring[r.head] = s
	r.head = (r.head + 1) % len(r.ring)
	r.recycleLocked(old)
	r.mu.Unlock()
}

// Drop abandons a tree without publishing it (error paths), recycling its
// nodes. Nil-safe.
func (r *SpanRecorder) Drop(s *Span) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.recycleLocked(s)
	r.mu.Unlock()
}

// Total returns the number of roots ever published.
func (r *SpanRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many completed trees were evicted by ring
// wraparound.
func (r *SpanRecorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total - uint64(len(r.ring))
}

// SpanSnapshot is a value copy of one span node, safe to retain and
// serialize. Children are nested, so one root snapshot is a full tree.
type SpanSnapshot struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Shard  int     `json:"shard"`
	T      float64 `json:"t"`
	Dur    float64 `json:"dur"`
	LBA    int64   `json:"lba"`
	N      int64   `json:"n,omitempty"`
	Dev    string  `json:"dev,omitempty"`
	Cause  string  `json:"cause,omitempty"`
	// Children are nested phase and I/O spans in creation order.
	Children []SpanSnapshot `json:"children,omitempty"`
}

func snapshotSpan(s *Span) SpanSnapshot {
	out := SpanSnapshot{
		ID:     s.id,
		Parent: s.parent,
		Kind:   s.kind.String(),
		Shard:  int(s.shard),
		T:      s.start,
		Dur:    s.end - s.start,
		LBA:    s.lba,
		N:      s.n,
		Dev:    s.dev,
		Cause:  s.cause,
	}
	if len(s.kids) > 0 {
		out.Children = make([]SpanSnapshot, len(s.kids))
		for i, c := range s.kids {
			out.Children[i] = snapshotSpan(c)
		}
	}
	return out
}

// Snapshot deep-copies the retained trees, oldest first.
func (r *SpanRecorder) Snapshot() []SpanSnapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(r.ring))
	for i := 0; i < len(r.ring); i++ {
		out = append(out, snapshotSpan(r.ring[(r.head+i)%len(r.ring)]))
	}
	return out
}

// WriteSpanJSONL writes span trees one JSON object per line, each line a
// complete root tree with nested children.
func WriteSpanJSONL(w io.Writer, spans []SpanSnapshot) error {
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// SortSpans orders roots by start time, breaking ties by ID — the merge
// order used when aggregating several recorders' rings.
func SortSpans(spans []SpanSnapshot) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].T != spans[j].T {
			return spans[i].T < spans[j].T
		}
		return spans[i].ID < spans[j].ID
	})
}
