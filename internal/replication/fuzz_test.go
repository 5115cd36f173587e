package replication

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/internal/wire"
)

// encodePayload runs one of the frame writers into a buffer and reads the
// frame back through the wire codec, returning its payload.
func encodePayload(write func(fw *wire.Writer) error) ([]byte, error) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := write(wire.NewWriter(bw)); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	_, p, err := wire.ReadFrame(bufio.NewReader(&buf), nil)
	return p, err
}

// payloadSeeds are payloads of real frames: a put record carrying an
// encoded hidden state, a delete record, a bootstrap entry, a sequence
// frame and a heartbeat, each produced by the link's own writers.
func payloadSeeds() (map[string][]byte, error) {
	h := tensor.NewVector(8)
	tensor.NewRNG(3).FillUniform(h, -1, 1)
	state := serving.EncodeHidden(h, 1564642800)
	var scratch []byte
	writers := map[string]func(fw *wire.Writer) error{
		"record-put": func(fw *wire.Writer) error {
			return writeRecord(fw, &scratch, 41, 1, serving.HiddenKey(7), state)
		},
		"record-delete": func(fw *wire.Writer) error {
			return writeRecord(fw, &scratch, 42, 2, serving.HiddenKey(7), nil)
		},
		"boot-entry": func(fw *wire.Writer) error {
			return writeBootEntry(fw, &scratch, serving.HiddenKey(9), state)
		},
		"seq":       func(fw *wire.Writer) error { return writeSeq(fw, fBootEnd, 43) },
		"heartbeat": func(fw *wire.Writer) error { return writeHeartbeat(fw, 43, 1564646400) },
	}
	seeds := make(map[string][]byte, len(writers))
	for name, write := range writers {
		p, err := encodePayload(write)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		seeds[name] = p
	}
	return seeds, nil
}

// FuzzReplicationPayloads feeds arbitrary bytes to every replication
// payload decoder. None may panic, and anything a decoder accepts must
// re-encode through the matching writer to the same payload — the
// decoders reject exactly what the writers cannot produce.
func FuzzReplicationPayloads(f *testing.F) {
	seeds, err := payloadSeeds()
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range seeds {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		reencodes := func(kind string, write func(fw *wire.Writer) error) {
			t.Helper()
			got, err := encodePayload(write)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", kind, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("%s: re-encoded payload %x, want %x", kind, got, p)
			}
		}
		var scratch []byte
		if seq, op, key, val, err := parseRecordFrame(p); err == nil {
			reencodes("record", func(fw *wire.Writer) error { return writeRecord(fw, &scratch, seq, op, key, val) })
		}
		if key, stored, err := parseBootEntry(p); err == nil {
			reencodes("boot entry", func(fw *wire.Writer) error { return writeBootEntry(fw, &scratch, key, stored) })
		}
		if seq, err := parseSeq(p); err == nil {
			reencodes("seq", func(fw *wire.Writer) error { return writeSeq(fw, fAck, seq) })
		}
		if seq, clock, err := parseHeartbeat(p); err == nil {
			reencodes("heartbeat", func(fw *wire.Writer) error { return writeHeartbeat(fw, seq, clock) })
		}
	})
}

// TestGenReplicationCorpus writes the checked-in seed corpus of
// FuzzReplicationPayloads (plain `go test` runs it as regression inputs).
func TestGenReplicationCorpus(t *testing.T) {
	if os.Getenv("REPLICATION_GEN_CORPUS") == "" {
		t.Skip("set REPLICATION_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	seeds, err := payloadSeeds()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReplicationPayloads")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, p := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(p)))
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
