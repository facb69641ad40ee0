package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"testing"
)

// fuzzMaxCells is FuzzSections' cell cap, shared by the cell section and
// the halo sections.
const fuzzMaxCells = 1 << 12

// bandFrame is one decoded band frame: the raw header, the cell section
// and the halo sections in frame order.
type bandFrame struct {
	hdr      []byte
	cells    []int64
	tags     []uint64
	sections [][]int64
}

// decodeBand runs the band-frame read path over frame: Header, Cells,
// then Section until tag 0, then Close, under the fuzz cell cap. It
// returns what it decoded (also on error) and the first error.
func decodeBand(frame []byte) (bandFrame, error) {
	var b bandFrame
	d := NewDecoder(bytes.NewReader(frame))
	defer d.Release()
	d.SetMaxCells(fuzzMaxCells)
	var err error
	if b.hdr, err = d.Header(); err != nil {
		return b, err
	}
	if b.cells, err = d.Cells(nil); err != nil {
		return b, err
	}
	for {
		tag, cells, err := d.Section(nil)
		// A failed section keeps its partial cells for the cap check.
		if len(cells) > 0 || tag != 0 {
			b.tags = append(b.tags, tag)
			b.sections = append(b.sections, cells)
		}
		if err != nil {
			return b, err
		}
		if tag == 0 {
			return b, d.Close()
		}
	}
}

// sectionSeeds are FuzzSections' seed frames: band frames with and
// without a cell section, one cut inside its digest trailer, and one
// repeating a section tag.
func sectionSeeds(tb testing.TB) [][]byte {
	halo := encodeHaloFrame(tb, testHeader{Name: "halo", N: 3}, []int64{10, 20, 30},
		map[uint64][]int64{SectionNorth: {1, -2, 3, 4}, SectionWest: {-9, 8}, SectionEast: {7}},
		[]uint64{SectionNorth, SectionWest, SectionEast})
	return [][]byte{
		halo,
		encodeHaloFrame(tb, testHeader{Name: "req"}, nil,
			map[uint64][]int64{SectionNorth: {5, 6}}, []uint64{SectionNorth}),
		halo[:len(halo)-3], // truncated digest trailer
		encodeHaloFrame(tb, testHeader{Name: "twice"}, []int64{1},
			map[uint64][]int64{SectionWest: {2, 3}}, []uint64{SectionWest, SectionWest}),
	}
}

// FuzzSections feeds arbitrary bytes through the band-frame decode path.
// The decoder must never panic, every error must be one of the typed
// decode failures, and it must never hand back more cells than the cap.
// A frame that passes Close must re-encode (header, cells, then the
// tagged sections in order) into a frame that decodes to the same values.
// The decoder hands the header back raw for the caller to unmarshal, so
// only a JSON header is re-encoded; the encoder writes it compacted.
func FuzzSections(f *testing.F) {
	for _, frame := range sectionSeeds(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		got, err := decodeBand(frame)
		n := len(got.cells)
		for _, s := range got.sections {
			n += len(s)
		}
		if n > fuzzMaxCells {
			t.Fatalf("decoded %d cells past the %d-cell cap", n, fuzzMaxCells)
		}
		if err != nil {
			if !errors.Is(err, ErrVersion) && !errors.Is(err, ErrFrame) && !errors.Is(err, ErrDigest) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if !json.Valid(got.hdr) {
			return
		}
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		if err := e.Header(json.RawMessage(got.hdr)); err != nil {
			t.Fatal(err)
		}
		if err := e.Cells(got.cells); err != nil {
			t.Fatal(err)
		}
		if err := e.BeginSections(); err != nil {
			t.Fatal(err)
		}
		for k, tag := range got.tags {
			if err := e.Section(tag, got.sections[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := decodeBand(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		hdr, err := json.Marshal(json.RawMessage(got.hdr))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.hdr, hdr) || !slices.Equal(again.cells, got.cells) || !slices.Equal(again.tags, got.tags) ||
			!slices.EqualFunc(again.sections, got.sections, slices.Equal) {
			t.Fatalf("re-encoded frame decodes to %+v, want %+v", again, got)
		}
	})
}
