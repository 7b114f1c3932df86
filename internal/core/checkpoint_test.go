package core

import (
	"encoding/base64"
	"errors"
	"strings"
	"testing"
)

// The decode path is an attack surface: resume checkpoints arrive over
// HTTP from arbitrary clients. Every malformed shape must come back as
// ErrBadCheckpoint — never a panic, never an unbounded allocation, never
// a non-sentinel error the transport would map to a 500.
func TestDecodeCheckpointAdversarial(t *testing.T) {
	// A small valid checkpoint to mutate.
	valid, err := (&Checkpoint{NumEvents: 4, NextLevel: 1}).Encode()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte("EO")},
		{"no header", []byte("this is not a checkpoint at all")},
		{"wrong magic", append([]byte("XXXX\x01"), valid[5:]...)},
		{"wrong version", append([]byte(ckptMagic+"\x02"), valid[5:]...)},
		{"version zero", append([]byte(ckptMagic+"\x00"), valid[5:]...)},
		{"header only", []byte(ckptMagic + "\x01")},
		{"truncated gob", valid[:len(valid)-3]},
		{"gob garbage", append([]byte(ckptMagic+"\x01"), 0xde, 0xad, 0xbe, 0xef)},
		{"oversized", make([]byte, MaxCheckpointBytes+1)},
		{"bit flip in gob", flipByte(valid, len(valid)/2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := DecodeCheckpoint(tc.data)
			if err == nil {
				// A single flipped byte can in principle still decode; it
				// must then fail validateFor, which is exercised below.
				// Everything else here must be rejected outright.
				if tc.name != "bit flip in gob" {
					t.Fatalf("decoded %+v from %s", c, tc.name)
				}
				return
			}
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("%s: err = %v, want ErrBadCheckpoint", tc.name, err)
			}
		})
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func TestDecodeCheckpointStringAdversarial(t *testing.T) {
	cases := []struct {
		name string
		s    string
	}{
		{"not base64", "!!!not base64!!!"},
		{"base64 of garbage", base64.StdEncoding.EncodeToString([]byte("junk"))},
		{"oversized text", strings.Repeat("A", base64.StdEncoding.EncodedLen(MaxCheckpointBytes)+4)},
		{"empty", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeCheckpointString(tc.s); !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("%s: err = %v, want ErrBadCheckpoint", tc.name, err)
			}
		})
	}
}

// The oversized-text rejection must happen before base64 materializes
// the payload: a string just over the cap is refused by length alone.
func TestDecodeCheckpointStringSizeCapBeforeDecode(t *testing.T) {
	// Invalid base64 over the cap still reports the size error, proving
	// the length check fires first.
	s := strings.Repeat("#", base64.StdEncoding.EncodedLen(MaxCheckpointBytes)+1)
	_, err := DecodeCheckpointString(s)
	if !errors.Is(err, ErrBadCheckpoint) || !strings.Contains(err.Error(), "exceeds max") {
		t.Fatalf("err = %v, want size-cap rejection", err)
	}
}

func TestCheckpointRoundTripVersioned(t *testing.T) {
	c := &Checkpoint{
		Symm:      true,
		Phase:     ckPhaseBackward,
		NextLevel: 7,
		Expanded:  12345,
		NumEvents: 9,
		CanOrder:  []uint64{1, 2, 3},
	}
	s, err := c.EncodeString()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpointString(s)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextLevel != 7 || got.Expanded != 12345 || !got.Symm || got.Phase != ckPhaseBackward {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	// The binary form must carry the version header.
	b, _ := c.Encode()
	if string(b[:4]) != ckptMagic || b[4] != ckptVersion {
		t.Fatalf("header = %x", b[:5])
	}
}

// Pre-header payloads (raw gob, the format before versioning) must be
// rejected cleanly, not misparsed.
func TestDecodeCheckpointRejectsLegacyUnversioned(t *testing.T) {
	valid, _ := (&Checkpoint{NumEvents: 4}).Encode()
	legacy := valid[5:] // strip the header: this is what the old format looked like
	if _, err := DecodeCheckpoint(legacy); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("legacy payload: err = %v, want ErrBadCheckpoint", err)
	}
}

// A structurally-decodable checkpoint for the wrong execution must fail
// validation with the sentinel so transports return 422, not 500.
func TestValidateForWrapsSentinel(t *testing.T) {
	x := semOrdered(t)
	a := mustAnalyzer(t, x, Options{})
	c := &Checkpoint{NumEvents: len(x.Events)} // zero fingerprint: mismatch
	if err := c.validateFor(a); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("validateFor = %v, want ErrBadCheckpoint", err)
	}
}
