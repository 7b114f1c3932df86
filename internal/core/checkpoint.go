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
// MatrixOpts.Resume. The depth-first pass stores a state only when its
// last child returns, so a checkpoint holds finished states alone, and
// their completability is final. It captures:
//
//   - the finished states (packed keys and completability bits) as a
//     statetab.Snapshot — the resumed pass reruns from the root with them
//     as table hits, so only the states the interrupt left open are
//     entered again, and they are charged only when they finish;
//   - the interval facts folded so far (CanOrder/CanOverlap) plus the pc
//     signatures already folded (PcSeen), so resumed folding neither
//     loses nor double-counts facts;
//   - the polynomial fact seed the run started with, so a resumed run
//     needs no separate MatrixOpts.Seed (the two are mutually exclusive);
//   - the cumulative Expanded count, charged against the resuming call's
//     budget so a budget names finished states across all attempts.
//
// Checkpoints cut by the level-synchronous sweeps of earlier builds still
// resume: their entries are imported only where the bit is final (see
// finishedStates).
//
// The format does not depend on the memo layout the pass ran over: a pass
// over cells (cells.go) exports its finished states and folded signatures
// as the packed keys a hashed pass holds, and either layout resumes either
// kind. A resume bounds-checks every key before it imports one, rejecting
// with ErrBadCheckpoint a pc field past its process's length, a state
// key's discriminator byte other than the completion memo's, and any bit
// set past a key's fields. It rejects a fact bit or seed pair naming an
// event past NumEvents, and a seed claiming a fact both true and false, the
// same way.
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
	// Phase names the engine that cut the checkpoint: 2 for the
	// depth-first pass, 0 and 1 for the forward and backward sweeps of
	// earlier builds.
	Phase uint8
	// NextLevel is the level an earlier build's interrupted sweep was
	// processing (zero from the depth-first pass).
	NextLevel int
	// Expanded is the cumulative number of states charged against the
	// budget across all attempts so far.
	Expanded int64
	// Edges is the cumulative count of the charged states' successor
	// transitions.
	Edges int64
	// NumEvents is the execution's event count (sizes the fact rows).
	NumEvents int
	// States holds the finished states: packed state keys, each with its
	// completability bit. Checkpoints from builds with sleep-set reduction
	// also carry a POR flag and per-state sleep masks in the aux words; gob
	// skips the flag and resume ignores the masks.
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

// Checkpoint phases: the two level sweeps of earlier builds, and the
// depth-first pass.
const (
	ckPhaseForward uint8 = iota
	ckPhaseBackward
	ckPhaseSearch
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
	if c.Phase > ckPhaseSearch {
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
	if err := c.States.Validate(); err != nil {
		return badCheckpoint("checkpoint state table: %v", err)
	}
	if err := c.PcSeen.Validate(); err != nil {
		return badCheckpoint("checkpoint pc-signature table: %v", err)
	}
	if c.States.Words != a.keyWords {
		return badCheckpoint("checkpoint keys are %d words, analyzer packs %d", c.States.Words, a.keyWords)
	}
	if want, _ := a.pcSigGeometry(); c.PcSeen.Words != want {
		return badCheckpoint("checkpoint pc signatures are %d words, analyzer packs %d", c.PcSeen.Words, want)
	}
	if err := a.checkKeys(c.States, true); err != nil {
		return err
	}
	if err := a.checkKeys(c.PcSeen, false); err != nil {
		return err
	}
	factWords := (c.NumEvents + 63) / 64
	if len(c.CanOrder) != c.NumEvents*factWords || len(c.CanOverlap) != c.NumEvents*factWords {
		return badCheckpoint("checkpoint fact matrices have %d/%d words, want %d",
			len(c.CanOrder), len(c.CanOverlap), c.NumEvents*factWords)
	}
	// The result assembly transposes the fact rows into an n-row matrix, so
	// a bit past the events in a row's last word would index past it.
	if rem := c.NumEvents % 64; rem != 0 {
		past := ^uint64(0) << uint(rem)
		for e := 0; e < c.NumEvents; e++ {
			if w := (e+1)*factWords - 1; (c.CanOrder[w]|c.CanOverlap[w])&past != 0 {
				return badCheckpoint("checkpoint fact row %d names an event past the execution's %d", e, c.NumEvents)
			}
		}
	}
	if c.HasSeed {
		for _, pairs := range [][][2]int32{c.SeedOrder, c.SeedNoOrder, c.SeedOverlap, c.SeedNoOverlap} {
			for _, p := range pairs {
				if p[0] < 0 || p[1] < 0 || int(p[0]) >= c.NumEvents || int(p[1]) >= c.NumEvents {
					return badCheckpoint("checkpoint seed pair (%d, %d) out of range [0, %d)", p[0], p[1], c.NumEvents)
				}
			}
		}
	}
	return nil
}

// checkKeys rejects a snapshot of state keys (or, with state false, of pc
// signatures) holding a key that no state of a packs to: a pc field beyond
// its process's length, a state key whose discriminator byte is not
// keyExtraComplete, or a bit set past the key's fields. A hashed pass
// would hold such a key as a dead entry, but a cell pass would index past
// its cells.
func (a *Analyzer) checkKeys(snap *statetab.Snapshot, state bool) error {
	what, end := "pc-signature", uint(len(a.procActs))*a.pcBits
	if state {
		what, end = "state", end+uint(a.evBits)
	}
	for i := 0; i < snap.Entries; i++ {
		key := snap.Key(i)
		for p, ids := range a.procActs {
			if pc := readBits(key, uint(p)*a.pcBits, a.pcBits); pc > uint64(len(ids)) {
				return badCheckpoint("%s key %d: process %d at position %d of %d", what, i, p, pc, len(ids))
			}
		}
		rest := end
		if state {
			if x := readBits(key, end, 8); x != keyExtraComplete {
				return badCheckpoint("%s key %d: discriminator byte %#x, want %#x", what, i, x, keyExtraComplete)
			}
			rest += 8
		}
		for w := int(rest >> 6); w < len(key); w++ {
			word := key[w]
			if w == int(rest>>6) {
				word >>= rest & 63
			}
			if word != 0 {
				return badCheckpoint("%s key %d: bits set past its fields", what, i)
			}
		}
	}
	return nil
}

// finishedStates returns the checkpoint's state entries whose bit is
// final, without aux words. Every entry the depth-first pass stored is. A
// level-sweep checkpoint also holds open ones: the forward sweep interned
// each state false, and the backward sweep settles levels from the
// deepest up (a state's level is its executed-action count, Σ pc). There
// a true bit is final in either phase, and in a backward cut so is every
// bit above the level the sweep was processing; the rest re-enter the
// pass as open states. The facts and pc signatures of such a checkpoint
// came from completable states alone, so they import as they are.
func (c *Checkpoint) finishedStates(a *Analyzer) *statetab.Snapshot {
	if c.Phase == ckPhaseSearch {
		states := *c.States
		states.Aux = nil
		return &states
	}
	out := &statetab.Snapshot{Words: c.States.Words}
	for i := 0; i < c.States.Entries; i++ {
		key, v := c.States.Key(i), c.States.Val(i)
		if v || (c.Phase == ckPhaseBackward && a.keyLevel(key) > c.NextLevel) {
			out.Append(key, v)
		}
	}
	return out
}

// keyLevel returns the executed-action count (Σ pc) of a packed key,
// unpacking it into the analyzer's search state.
func (a *Analyzer) keyLevel(key []uint64) int {
	a.unpackKey(key)
	level := 0
	for _, pc := range a.pc {
		level += int(pc)
	}
	return level
}

// fingerprint digests the preprocessed execution structure plus the
// feasibility notion: the full action list (kinds, operations, events,
// processes, objects, data prerequisites), initial semaphore and event-
// variable state, and IgnoreData. Two analyzers with equal fingerprints
// run identical searches, so a checkpoint from one resumes on the other.
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
