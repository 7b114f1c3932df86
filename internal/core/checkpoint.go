package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"

	"eventorder/internal/model"
	"eventorder/internal/statetab"
)

// ErrBadCheckpoint is wrapped by every checkpoint decode or validation
// failure, so transport layers can map "the client sent an unusable
// checkpoint" (HTTP 422) separately from other errors. The decode path
// never panics and never allocates more than MaxCheckpointBytes on
// adversarial input: the size cap is enforced before base64 or gob see
// the payload, and gob itself bounds declared lengths by input size.
var ErrBadCheckpoint = errors.New("core: bad checkpoint")

// MaxCheckpointBytes caps the encoded (binary) size of a checkpoint a
// decoder will accept. Real checkpoints are megabytes at worst (the
// state table dominates); the cap exists so an adversarial payload
// cannot drive memory use past what the request size limits already
// allow.
const MaxCheckpointBytes = 64 << 20

// Checkpoint encoding header: magic + format version. Version 1 is the
// first headered format; payloads from before the header (or with a
// future version) are rejected rather than fed to gob.
const (
	ckptMagic   = "EOCK"
	ckptVersion = 1
)

// badCheckpoint builds an error wrapping ErrBadCheckpoint.
func badCheckpoint(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
}

// Checkpoint is a serializable snapshot of an interrupted batch
// exploration, returned inside a partial MatrixResult and resumed via
// MatrixOpts.Resume. It captures everything the level-synchronous sweeps
// need to pick up where they stopped:
//
//   - the shared state table (packed keys and completability bits) as a
//     statetab.Snapshot — the exploration's memo AND its frontier, since a
//     key's level is recoverable from its program counters (level =
//     executed actions = Σ pc);
//   - which sweep was running (Phase) and the level it was processing
//     (NextLevel) — resuming re-runs that level from scratch, which is
//     safe because every per-state step is idempotent and deterministic;
//   - the interval facts folded so far (CanOrder/CanOverlap) plus the pc
//     signatures already folded (PcSeen), so resumed folding neither
//     loses nor double-counts facts;
//   - the polynomial fact seed the run started with, so a resumed run
//     needs no separate MatrixOpts.Seed (the two are mutually exclusive);
//   - the cumulative Expanded count, charged against the resuming call's
//     budget so a budget names total states across all attempts.
//
// A checkpoint taken mid-forward-sweep drops the partially interned next
// level: re-expanding NextLevel must re-intern those children as fresh,
// or they would never enter the next frontier. Dropped work is re-charged
// on resume, so Expanded can exceed a one-shot run's count by at most one
// level per interrupt — verdicts are unaffected.
//
// The Fingerprint binds the checkpoint to the analyzer's preprocessed
// execution structure and feasibility notion (IgnoreData); resuming on a
// different execution is rejected. Checkpoints JSON-encode as a base64
// string (the packed words are raw uint64s, which JSON numbers would
// corrupt past 2^53), so wire schemas can embed *Checkpoint directly.
type Checkpoint struct {
	// Fingerprint identifies the execution structure and feasibility
	// notion this checkpoint belongs to.
	Fingerprint [32]byte
	// Symm records whether process-symmetry orbit collapsing was on. The
	// stored state keys are then orbit-canonical representatives (and
	// PcSeen's aux words are fold-progress masks), so the resumed run
	// keeps the setting and refuses to resume with symmetry disabled.
	// Checkpoints from before this field decode as false, matching the
	// runs that produced them. (Gob omits zero-valued fields, so old
	// payloads remain readable.)
	Symm bool
	// Phase is the interrupted sweep: 0 forward, 1 backward.
	Phase uint8
	// NextLevel is the level the interrupted sweep was processing; the
	// resumed run re-runs it from scratch.
	NextLevel int
	// Expanded is the cumulative number of states charged against the
	// budget across all attempts so far.
	Expanded int64
	// Edges is the cumulative explored forward-edge count.
	Edges int64
	// NumEvents is the execution's event count (sizes the fact rows).
	NumEvents int
	// States is the shared exploration table: packed state keys, each
	// with its completability bit. Checkpoints from builds with sleep-set
	// reduction also carry a POR flag and per-state sleep masks in the aux
	// words; gob skips the flag and resume ignores the masks.
	States *statetab.Snapshot
	// PcSeen is the set of pc signatures whose facts are already folded.
	PcSeen *statetab.Snapshot
	// CanOrder and CanOverlap are the folded fact matrices, NumEvents
	// rows of (NumEvents+63)/64 words each, flattened row-major.
	CanOrder   []uint64
	CanOverlap []uint64
	// HasSeed records whether the run carried a fact seed; the four pair
	// lists reconstruct it on resume.
	HasSeed                                            bool
	SeedOrder, SeedNoOrder, SeedOverlap, SeedNoOverlap [][2]int32
}

// Checkpoint phases.
const (
	ckPhaseForward uint8 = iota
	ckPhaseBackward
)

// Encode serializes the checkpoint as a 5-byte header ("EOCK" + version)
// followed by gob (self-describing, exact for uint64 words, no dependency
// beyond the standard library). The header lets decoders reject foreign
// or stale payloads before gob allocates anything for them.
func (c *Checkpoint) Encode() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString(ckptMagic)
	buf.WriteByte(ckptVersion)
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeCheckpoint reverses Encode. All failures wrap ErrBadCheckpoint;
// the size cap and header are checked before gob runs.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) > MaxCheckpointBytes {
		return nil, badCheckpoint("encoded size %d exceeds max %d", len(b), MaxCheckpointBytes)
	}
	if len(b) < len(ckptMagic)+1 || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, badCheckpoint("missing checkpoint header")
	}
	if v := b[len(ckptMagic)]; v != ckptVersion {
		return nil, badCheckpoint("unsupported checkpoint version %d (this build reads version %d)", v, ckptVersion)
	}
	c := &Checkpoint{}
	if err := gob.NewDecoder(bytes.NewReader(b[len(ckptMagic)+1:])).Decode(c); err != nil {
		return nil, badCheckpoint("decoding: %v", err)
	}
	return c, nil
}

// EncodeString returns the checkpoint as base64(header+gob), the form
// the wire schema and the CLI checkpoint files carry.
func (c *Checkpoint) EncodeString() (string, error) {
	b, err := c.Encode()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(b), nil
}

// DecodeCheckpointString reverses EncodeString. The size cap applies to
// the base64 text before it is decoded, so an oversized payload is
// rejected without materializing its binary form.
func DecodeCheckpointString(s string) (*Checkpoint, error) {
	if len(s) > base64.StdEncoding.EncodedLen(MaxCheckpointBytes) {
		return nil, badCheckpoint("encoded size %d exceeds max", len(s))
	}
	b, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, badCheckpoint("base64: %v", err)
	}
	return DecodeCheckpoint(b)
}

// MarshalJSON encodes the checkpoint as a base64 JSON string.
func (c *Checkpoint) MarshalJSON() ([]byte, error) {
	s, err := c.EncodeString()
	if err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// UnmarshalJSON reverses MarshalJSON.
func (c *Checkpoint) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("core: checkpoint must be a base64 JSON string: %w", err)
	}
	d, err := DecodeCheckpointString(s)
	if err != nil {
		return err
	}
	*c = *d
	return nil
}

// seed reconstructs the fact seed the checkpointed run carried, or nil.
func (c *Checkpoint) seed() *FactSeed {
	if !c.HasSeed {
		return nil
	}
	build := func(name string, pairs [][2]int32) *model.Relation {
		r := model.NewRelation(name, c.NumEvents)
		for _, p := range pairs {
			r.Set(model.EventID(p[0]), model.EventID(p[1]))
		}
		return r
	}
	return &FactSeed{
		Order:     build("ckptOrder", c.SeedOrder),
		NoOrder:   build("ckptNoOrder", c.SeedNoOrder),
		Overlap:   build("ckptOverlap", c.SeedOverlap),
		NoOverlap: build("ckptNoOverlap", c.SeedNoOverlap),
	}
}

// seedPairs flattens a seed relation into the checkpoint's pair-list form.
func seedPairs(r *model.Relation) [][2]int32 {
	if r == nil {
		return nil
	}
	pairs := r.Pairs()
	out := make([][2]int32, len(pairs))
	for i, p := range pairs {
		out[i] = [2]int32{int32(p[0]), int32(p[1])}
	}
	return out
}

// validateFor checks the checkpoint is structurally sound and belongs to
// analyzer a before a resume trusts its contents.
func (c *Checkpoint) validateFor(a *Analyzer) error {
	if c.Fingerprint != a.fingerprint() {
		return badCheckpoint("checkpoint fingerprint does not match this execution (wrong trace, event set, or IgnoreData setting)")
	}
	if c.Phase > ckPhaseBackward {
		return badCheckpoint("checkpoint phase %d out of range", c.Phase)
	}
	if c.NumEvents != len(a.x.Events) {
		return badCheckpoint("checkpoint covers %d events, execution has %d", c.NumEvents, len(a.x.Events))
	}
	if c.NextLevel < 0 || c.NextLevel > len(a.acts) {
		return badCheckpoint("checkpoint level %d out of range [0, %d]", c.NextLevel, len(a.acts))
	}
	if c.Expanded < 0 {
		return badCheckpoint("checkpoint expanded count %d negative", c.Expanded)
	}
	if c.States == nil || c.PcSeen == nil {
		return badCheckpoint("checkpoint is missing its state tables")
	}
	if c.States.Entries < 1 {
		return badCheckpoint("checkpoint state table is empty")
	}
	if err := c.States.Validate(); err != nil {
		return badCheckpoint("checkpoint state table: %v", err)
	}
	if err := c.PcSeen.Validate(); err != nil {
		return badCheckpoint("checkpoint pc-signature table: %v", err)
	}
	if c.States.Words != a.keyWords {
		return badCheckpoint("checkpoint keys are %d words, analyzer packs %d", c.States.Words, a.keyWords)
	}
	factWords := (c.NumEvents + 63) / 64
	if len(c.CanOrder) != c.NumEvents*factWords || len(c.CanOverlap) != c.NumEvents*factWords {
		return badCheckpoint("checkpoint fact matrices have %d/%d words, want %d",
			len(c.CanOrder), len(c.CanOverlap), c.NumEvents*factWords)
	}
	return nil
}

// fingerprint digests the preprocessed execution structure plus the
// feasibility notion: the full action list (kinds, operations, events,
// processes, objects, data prerequisites), initial semaphore and event-
// variable state, and IgnoreData. Two analyzers with equal fingerprints
// run identical sweeps, so a checkpoint from one resumes on the other.
func (a *Analyzer) fingerprint() [32]byte {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	put(uint64(len(a.x.Events)))
	put(uint64(len(a.procActs)))
	if a.opts.IgnoreData {
		put(1)
	} else {
		put(0)
	}
	for i := range a.acts {
		act := &a.acts[i]
		put(uint64(act.kind)<<32 | uint64(uint32(act.opKind)))
		put(uint64(uint32(act.event))<<32 | uint64(uint32(act.proc)))
		put(uint64(uint32(act.op))<<32 | uint64(uint32(act.obj)))
		put(uint64(len(act.prereqs)))
		for _, pr := range act.prereqs {
			put(uint64(uint32(pr)))
		}
	}
	for _, s := range a.semInit {
		put(uint64(uint32(s)))
	}
	for _, e := range a.evInit {
		put(e)
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}
