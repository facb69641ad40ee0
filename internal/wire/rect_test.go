package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// guardCell fills every cell of a rectangle test's buffer that the
// decoder must not write, and every rectangle cell no frame cell has
// reached.
const guardCell int64 = 0x7e57_0000_0000_0001

// guardCells is the run of guard cells on each side of the rectangle.
const guardCells = 5

// rectFrame encodes a frame carrying cells, split into one wire chunk
// per part (the parts' lengths sum to len(cells)).
func rectFrame(tb testing.TB, cells []int64, parts ...int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.Header(testHeader{Name: "rect", N: len(cells)}); err != nil {
		tb.Fatal(err)
	}
	for _, n := range parts {
		if err := e.Cells(cells[:n]); err != nil {
			tb.Fatal(err)
		}
		cells = cells[n:]
	}
	if err := e.Cells(cells); err != nil {
		tb.Fatal(err)
	}
	if err := e.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// landRect decodes frame's cell section into a rows x cols rectangle at
// row stride stride, inside a buffer that holds guard cells around it
// and between its rows, then verifies the trailer. It fails the test
// if the decoder wrote any cell outside the rectangle, or any cell of
// the rectangle past the count it reports, and returns the rectangle's
// cells in row-major order (guardCell where none landed), the landed
// count, and the errors of CellsInto and Close (the latter only when
// the cells decoded). A frame whose header fails returns that error as
// cellsErr with nothing landed.
func landRect(t testing.TB, frame []byte, rows, cols, stride int) (rect []int64, landed int, cellsErr, closeErr error) {
	t.Helper()
	span := 0
	if rows > 0 && cols > 0 {
		span = (rows-1)*stride + cols
	}
	buf := make([]int64, guardCells+span+guardCells)
	for i := range buf {
		buf[i] = guardCell
	}
	d := NewDecoder(bytes.NewReader(frame))
	defer d.Release()
	if _, err := d.Header(); err != nil {
		return nil, 0, err, nil
	}
	landed, cellsErr = d.CellsInto(buf[guardCells:], rows, cols, stride)
	if cellsErr == nil {
		closeErr = d.Close()
	}
	if landed < 0 || landed > rows*cols {
		t.Fatalf("CellsInto reports %d cells landed in a %dx%d rectangle", landed, rows, cols)
	}
	inRect := func(at int) bool {
		at -= guardCells
		return at >= 0 && at < span && at%stride < cols
	}
	for at, v := range buf {
		if !inRect(at) {
			if v != guardCell {
				t.Fatalf("%dx%d rectangle at stride %d: guard cell %d changed to %d", rows, cols, stride, at, v)
			}
			continue
		}
		r, c := (at-guardCells)/stride, (at-guardCells)%stride
		rect = append(rect, v)
		if r*cols+c >= landed && v != guardCell {
			t.Fatalf("%dx%d rectangle at stride %d: cell (%d,%d) written past the %d cells landed", rows, cols, stride, r, c, landed)
		}
	}
	return rect, landed, cellsErr, closeErr
}

// checkRectFrame lands a frame of n cells in a rows x cols rectangle at
// row stride stride: the cells must land in row-major order when they
// fit, a frame carrying more must fail with ErrFrame, and — when they
// fit — the same frame with one payload byte flipped must land its
// cells and then fail Close with ErrDigest.
func checkRectFrame(t testing.TB, rows, cols, stride, n int, split bool, flip int) {
	t.Helper()
	cells := make([]int64, n)
	for i := range cells {
		cells[i] = int64(i)*0x9e37_79b9 - 7
	}
	var parts []int
	if split && n > 1 {
		parts = []int{n / 2}
	}
	frame := rectFrame(t, cells, parts...)
	rect, landed, err, closeErr := landRect(t, frame, rows, cols, stride)
	if n > rows*cols {
		if !errors.Is(err, ErrFrame) {
			t.Fatalf("%d cells into a %dx%d rectangle: err = %v, want ErrFrame", n, rows, cols, err)
		}
		return
	}
	if err != nil || closeErr != nil {
		t.Fatalf("%d cells into a %dx%d rectangle at stride %d: %v, close %v", n, rows, cols, stride, err, closeErr)
	}
	if landed != n || !slices.Equal(rect[:n], cells) {
		t.Fatalf("%d cells into a %dx%d rectangle at stride %d: landed %d, rectangle %v", n, rows, cols, stride, landed, rect)
	}
	if n == 0 {
		return
	}
	// The last chunk's payload sits right before the cell terminator
	// and the trailer; its first cell is the first one after the split.
	last := n - n/2
	if !split || n < 2 {
		last = n
	}
	bad := bytes.Clone(frame)
	bad[len(bad)-9-8*last+flip%(8*last)] ^= 0x20
	if _, landed, err, closeErr := landRect(t, bad, rows, cols, stride); err != nil || landed != n || !errors.Is(closeErr, ErrDigest) {
		t.Fatalf("flipped payload byte: landed %d, err %v, close %v; want %d landed and ErrDigest", landed, err, closeErr, n)
	}
}

// TestCellsIntoRectangle draws random rectangles, strides and cell
// counts, some frames split over two chunks, and lands each frame in a
// guarded rectangle (checkRectFrame).
func TestCellsIntoRectangle(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 5))
	for range 500 {
		rows, cols := rng.IntN(12)+1, rng.IntN(12)+1
		stride := cols + rng.IntN(5)
		n := rng.IntN(rows*cols + 3)
		checkRectFrame(t, rows, cols, stride, n, rng.IntN(2) == 0, rng.IntN(1<<16))
	}
	// One row past a whole scratch read (ChunkCells+1 cells), so a
	// chunk lands in several reads.
	checkRectFrame(t, 3, 2*ChunkCells, 2*ChunkCells+7, 5*ChunkCells+3, true, 12345)
}

// TestCellsIntoRejectsBadRectangle: a rectangle that does not fit the
// destination, or a stride shorter than a row, is refused before a
// byte of the frame is read.
func TestCellsIntoRejectsBadRectangle(t *testing.T) {
	frame := rectFrame(t, []int64{1, 2, 3})
	for _, tc := range []struct{ len, rows, cols, stride int }{
		{len: 5, rows: 2, cols: 3, stride: 3},
		{len: 9, rows: 2, cols: 3, stride: 2},
		{len: 9, rows: -1, cols: 3, stride: 3},
	} {
		d := NewDecoder(bytes.NewReader(frame))
		if _, err := d.Header(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CellsInto(make([]int64, tc.len), tc.rows, tc.cols, tc.stride); err == nil || errors.Is(err, ErrFrame) {
			t.Errorf("%dx%d at stride %d into %d cells: err = %v, want a caller error", tc.rows, tc.cols, tc.stride, tc.len, err)
		}
		d.Release()
	}
}

// FuzzCellsInto lands fuzzed frames in guarded rectangles of fuzzed
// extent and stride: a well-formed frame of a fuzzed cell count
// (checkRectFrame), then the fuzzed bytes themselves, which may fail
// only with a typed decode error and may never write outside the
// rectangle.
func FuzzCellsInto(f *testing.F) {
	for i, frame := range sectionSeeds(f) {
		f.Add(uint8(i+1), uint8(3), uint8(i), uint16(3*i+2), uint16(i*77), frame)
	}
	f.Add(uint8(4), uint8(4), uint8(0), uint16(17), uint16(0), rectFrame(f, make([]int64, 17)))
	f.Fuzz(func(t *testing.T, rows, cols, pad uint8, n, flip uint16, frame []byte) {
		r, c := int(rows%9), int(cols%9)
		stride := c + int(pad%4)
		checkRectFrame(t, r, c, stride, int(n)%(r*c+3), n%2 == 0, int(flip))
		_, _, err, closeErr := landRect(t, frame, r, c, stride)
		if err == nil {
			err = closeErr
		}
		if err != nil && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrFrame) && !errors.Is(err, ErrDigest) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}

// cellsSizedRef is CellsSized's contract, read straight off the frame
// bytes after the header: the cell chunks up to the end marker, under a
// cap of min(n, 1<<22) cells, read ChunkCells+1 cells at a time (the
// decoder's scratch); a chunk over the cap, a truncated read or varint
// junk fails with ErrFrame and keeps the cells of the reads before it.
// ok is false when the frame's header does not parse.
func cellsSizedRef(frame []byte, n int) (cells []int64, err error, ok bool) {
	next := func() (uint64, bool) {
		v, k := binary.Uvarint(frame)
		if k <= 0 {
			return 0, false
		}
		frame = frame[k:]
		return v, true
	}
	if len(frame) == 0 || frame[0] != Version {
		return nil, nil, false
	}
	frame = frame[1:]
	hlen, good := next()
	if !good || hlen > 1<<20 || hlen > uint64(len(frame)) {
		return nil, nil, false
	}
	frame = frame[hlen:]
	capCells := uint64(max(min(n, 1<<22), 0))
	total := uint64(0)
	for {
		count, good := next()
		switch {
		case !good:
			return cells, ErrFrame, true
		case count == 0:
			return cells, nil, true
		case count > capCells-total:
			return cells, ErrFrame, true
		}
		total += count
		for count > 0 {
			k := min(count, ChunkCells+1)
			if uint64(len(frame)) < 8*k {
				return cells, ErrFrame, true
			}
			for i := uint64(0); i < k; i++ {
				cells = append(cells, int64(binary.LittleEndian.Uint64(frame[8*i:])))
			}
			frame = frame[8*k:]
			count -= k
		}
	}
}

// TestCellsSizedUnchanged: CellsSized, now the one-row case of the
// rectangle reader, returns what its contract (cellsSizedRef) says on
// the FuzzSections seeds and on plain frames around the scratch read
// size, whole and cut short, for caps below, at and above each frame's
// cell count, and never hands back a buffer larger than its cap.
func TestCellsSizedUnchanged(t *testing.T) {
	frames := sectionSeeds(t)
	for _, n := range []int{0, 1, ChunkCells, ChunkCells + 1, 3*ChunkCells + 5} {
		frame := rectFrame(t, make([]int64, n), n/3)
		frames = append(frames, frame, frame[:len(frame)/2], frame[:len(frame)-9])
	}
	for i, frame := range frames {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 64, ChunkCells + 1, 3*ChunkCells + 5, 1 << 23} {
			want, wantErr, ok := cellsSizedRef(frame, n)
			d := NewDecoder(bytes.NewReader(frame))
			_, err := d.Header()
			if (err == nil) != ok {
				t.Fatalf("frame %d: header error %v, reference parses it: %v", i, err, ok)
			}
			if err != nil {
				d.Release()
				continue
			}
			got, err := d.CellsSized(n)
			d.Release()
			if !slices.Equal(got, want) || (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
				t.Fatalf("frame %d, CellsSized(%d) = %d cells, %v; want %d cells, %v", i, n, len(got), err, len(want), wantErr)
			}
			if cap(got) > max(min(n, 1<<22), 0) {
				t.Fatalf("frame %d, CellsSized(%d) returned a buffer of capacity %d", i, n, cap(got))
			}
		}
	}
}
