// Package wire implements the length-prefixed binary frame format of
// the lddpd solve service — the fast alternative to the HTTP/JSON body,
// negotiated via Accept/Content-Type (internal/server and lddp/client
// are the two sides; DESIGN.md §11 documents the layout and the
// negotiation rules).
//
// A frame is:
//
//	[1]  version byte (Version)
//	[v]  uvarint header length, then that many bytes of JSON header
//	[*]  zero or more cell chunks: uvarint count n > 0, then n cells as
//	     little-endian int64; a uvarint 0 ends the cell section
//	[*]  zero or more halo sections (band frames only): uvarint tag > 0,
//	     uvarint count, then count cells as little-endian int64; a
//	     uvarint 0 ends the section list when any section was written
//	[8]  digest trailer: little-endian FNV-1a-64 folded byte-wise over
//	     the version byte and the header JSON, then word-wise over every
//	     cell value and, for halo sections, the tag word followed by the
//	     section's cell values, in frame order
//
// The header stays JSON — it is tens of bytes and schema evolution is
// free — while the cell payload, which dominates a table response,
// travels as raw little-endian words in bounded chunks, so a receiver
// can stream cells through a fixed-size buffer instead of decoding one
// giant marshal, and a corrupted or truncated frame is caught by the
// trailer before anyone trusts the cells.
//
// Halo sections carry the edge rows/columns of the band-solve peer
// protocol (DESIGN.md §12). A frame without sections is byte-identical
// to the pre-section format — the section list exists on the wire only
// when a writer emits at least one section, and only section-aware
// readers (the /v1/band/solve endpoints) ask for them.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

const (
	// Version is the frame format version carried in the first byte.
	// Decoders refuse other versions with ErrVersion; a JSON body fed to
	// the binary decoder fails the same check ('{' is not a version we
	// will ever use).
	Version = 1

	// MediaType is the Content-Type/Accept token that selects the binary
	// frame codec. JSON remains the debuggable default.
	MediaType = "application/x-lddp-frame"

	// ChunkCells is the cell count of one wire chunk (32 KiB of payload):
	// the streaming granularity of large responses.
	ChunkCells = 4096

	// MaxHeaderBytes is a Decoder's default cap on the JSON header, so
	// the largest header a receiver accepts unless it tightens the cap.
	MaxHeaderBytes = 1 << 20
)

// Halo section tags of the band-solve protocol. Tag 0 is reserved as
// the section-list terminator and is never a valid section tag.
const (
	// SectionNorth: full-table row Row0-1 over the HaloSpec column span.
	SectionNorth uint64 = 1
	// SectionWest: full-table column Col0-1 over rows [Row0, Row1).
	SectionWest uint64 = 2
	// SectionEast: full-table column Col1 over rows [Row0, Row1).
	SectionEast uint64 = 3
)

// Typed decode failures, matched with errors.Is.
var (
	// ErrVersion: the frame leads with a version this decoder does not
	// speak (including non-frame bodies).
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrDigest: the digest trailer does not match the received content.
	ErrDigest = errors.New("wire: frame digest mismatch")
	// ErrFrame: the frame is structurally malformed (truncated, an
	// oversized section, varint junk).
	ErrFrame = errors.New("wire: malformed frame")
)

// FNV-1a 64-bit parameters (the digest family the service already uses
// for result digests).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// DigestInit returns the FNV-1a-64 offset basis.
func DigestInit() uint64 { return fnvOffset64 }

// DigestBytes folds p byte-wise into h.
func DigestBytes(h uint64, p []byte) uint64 {
	for _, b := range p {
		h = (h ^ uint64(b)) * fnvPrime64
	}
	return h
}

// DigestWord folds one 64-bit word into h. Word folding is 8x fewer
// multiplies than byte folding — the difference between digesting a
// 2 MB table in microseconds versus milliseconds — at the cost of being
// the word-wise FNV-1a variant rather than the byte-wise one.
func DigestWord(h, w uint64) uint64 {
	return (h ^ w) * fnvPrime64
}

// CellsDigest is the result digest of a rows x cols table with the
// given row-major cells: dimensions folded as one word, then every cell
// word-wise. internal/server renders it as the hex digest of a solve.
func CellsDigest(rows, cols int, cells []int64) uint64 {
	return FoldCells(DigestWord(fnvOffset64, uint64(rows)<<32|uint64(cols)), cells)
}

// FoldCells folds cells word-wise into h, in order: folding a table's
// rows in row-major order, however they are split, gives CellsDigest.
func FoldCells(h uint64, cells []int64) uint64 {
	for _, v := range cells {
		h = DigestWord(h, uint64(v))
	}
	return h
}

// scratchPool holds the per-encoder/decoder byte scratch (one chunk of
// framing plus payload). Ownership: Get in the constructor, return in
// Close/Release; never retain across frames.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 10+8*ChunkCells)
		return &b
	},
}

// cellsPool holds reusable int64 cell buffers for callers that decode
// or flatten tables with bounded lifetime (see GetCells/PutCells).
var cellsPool = sync.Pool{New: func() any { return new([]int64) }}

// GetCells returns a zero-length cell buffer with capacity >= n from
// the pool. The caller owns it until PutCells; buffers that escape to a
// longer-lived owner (a cache entry, a response returned to user code)
// must simply not be returned.
func GetCells(n int) []int64 {
	p := cellsPool.Get().(*[]int64)
	if cap(*p) < n {
		*p = make([]int64, 0, n)
	}
	return (*p)[:0]
}

// PutCells returns a buffer obtained from GetCells. Oversized buffers
// are dropped instead of pinned in the pool.
func PutCells(buf []int64) {
	if cap(buf) == 0 || cap(buf) > 1<<22 {
		return
	}
	buf = buf[:0]
	p := cellsPool.Get().(*[]int64)
	*p = buf
	cellsPool.Put(p)
}

// Encoder writes one frame. Call Header once, Cells any number of
// times, then Close (which writes the end marker and digest trailer and
// returns the scratch buffer to the pool). Not safe for concurrent use.
type Encoder struct {
	w          io.Writer
	scratch    *[]byte
	h          uint64
	flush      func()
	started    bool
	closed     bool
	cellsEnded bool // the cell-section terminator has been written
	sections   bool // at least one halo section has been written
}

// NewEncoder returns an Encoder writing one frame to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, scratch: scratchPool.Get().(*[]byte), h: fnvOffset64}
}

// SetFlush installs a hook invoked after every written cell chunk —
// the server passes http.Flusher.Flush so cells of a large table flow
// to the client chunk by chunk instead of sitting in the response
// buffer until the handler returns.
func (e *Encoder) SetFlush(f func()) { e.flush = f }

// Header marshals v as the JSON header and writes the frame prologue.
func (e *Encoder) Header(v any) error {
	if e.started {
		return errors.New("wire: Header called twice")
	}
	e.started = true
	hdr, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wire: encoding header: %w", err)
	}
	b := (*e.scratch)[:0]
	b = append(b, Version)
	b = binary.AppendUvarint(b, uint64(len(hdr)))
	b = append(b, hdr...)
	*e.scratch = b
	e.h = DigestBytes(e.h, b[:1])
	e.h = DigestBytes(e.h, hdr)
	return e.writeAll(b)
}

// Cells writes the given cells, split into wire chunks of at most
// ChunkCells. The slice is only read; the caller keeps ownership.
func (e *Encoder) Cells(cells []int64) error {
	if !e.started || e.closed {
		return errors.New("wire: Cells outside Header..Close")
	}
	if e.cellsEnded {
		return errors.New("wire: Cells after a halo section")
	}
	for len(cells) > 0 {
		n := len(cells)
		if n > ChunkCells {
			n = ChunkCells
		}
		b := (*e.scratch)[:0]
		b = binary.AppendUvarint(b, uint64(n))
		for _, v := range cells[:n] {
			w := uint64(v)
			b = binary.LittleEndian.AppendUint64(b, w)
			e.h = DigestWord(e.h, w)
		}
		*e.scratch = b
		if err := e.writeAll(b); err != nil {
			return err
		}
		if e.flush != nil {
			e.flush()
		}
		cells = cells[n:]
	}
	return nil
}

// Section writes one tagged halo section (tag > 0): the section list
// sits between the cell section and the digest trailer, so Section must
// come after any Cells calls. The tag word and the cell values fold
// into the frame digest; the slice is only read.
func (e *Encoder) Section(tag uint64, cells []int64) error {
	if !e.started || e.closed {
		return errors.New("wire: Section outside Header..Close")
	}
	if tag == 0 {
		return errors.New("wire: section tag 0 is the list terminator")
	}
	b := (*e.scratch)[:0]
	if !e.cellsEnded {
		// First section: close the (possibly empty) cell section.
		e.cellsEnded = true
		b = binary.AppendUvarint(b, 0)
	}
	e.sections = true
	b = binary.AppendUvarint(b, tag)
	b = binary.AppendUvarint(b, uint64(len(cells)))
	e.h = DigestWord(e.h, tag)
	for _, v := range cells {
		w := uint64(v)
		b = binary.LittleEndian.AppendUint64(b, w)
		e.h = DigestWord(e.h, w)
	}
	*e.scratch = b
	return e.writeAll(b)
}

// BeginSections closes the (possibly empty) cell section and marks the
// frame as carrying a section list, so Close writes the section
// terminator even when no Section call follows. Writers of band frames
// call it unconditionally: the reader of a band frame always drains the
// section list, and a section list must exist — possibly empty — for
// the frame to parse. Idempotent once any section has been written.
func (e *Encoder) BeginSections() error {
	if !e.started || e.closed {
		return errors.New("wire: BeginSections outside Header..Close")
	}
	if !e.cellsEnded {
		e.cellsEnded = true
		b := binary.AppendUvarint((*e.scratch)[:0], 0)
		*e.scratch = b
		if err := e.writeAll(b); err != nil {
			return err
		}
	}
	e.sections = true
	return nil
}

// Close writes the end-of-cells marker (and, when halo sections were
// written, the end-of-sections marker) and the digest trailer, then
// releases the encoder's scratch. Safe to call once.
func (e *Encoder) Close() error {
	if e.closed {
		return errors.New("wire: Close called twice")
	}
	if !e.started {
		return errors.New("wire: Close before Header")
	}
	e.closed = true
	b := (*e.scratch)[:0]
	if !e.cellsEnded {
		b = binary.AppendUvarint(b, 0)
	}
	if e.sections {
		b = binary.AppendUvarint(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, e.h)
	*e.scratch = b
	err := e.writeAll(b)
	scratchPool.Put(e.scratch)
	e.scratch = nil
	return err
}

// Abort releases the encoder's scratch without writing the end marker
// or digest trailer — for callers whose frame failed mid-write (a
// header marshal error, a broken connection) and must not emit more
// bytes into the stream. Safe to call once; Close after Abort errors.
func (e *Encoder) Abort() {
	if e.closed {
		return
	}
	e.closed = true
	if e.scratch != nil {
		scratchPool.Put(e.scratch)
		e.scratch = nil
	}
}

func (e *Encoder) writeAll(p []byte) error {
	if _, err := e.w.Write(p); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// Decoder reads one frame. Call Header, then Cells, then Close (which
// verifies the digest trailer); Release returns the scratch to the pool
// and must run exactly once, after the decoder is done (error paths
// included). Not safe for concurrent use.
type Decoder struct {
	r         io.Reader
	scratch   *[]byte
	h         uint64
	maxHeader int
	maxCells  int64
	total     int64   // cells consumed so far (cell section + halo sections)
	state     int     // 0 fresh, 1 header read, 2 cells read, 3 closed
	secEnded  bool    // the section-list terminator has been consumed
	one       [1]byte // readByte scratch; a local would escape per call
}

// NewDecoder returns a Decoder reading one frame from r, with default
// caps (MaxHeaderBytes of header, 1<<22 cells) the caller can tighten.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{
		r:         r,
		scratch:   scratchPool.Get().(*[]byte),
		h:         fnvOffset64,
		maxHeader: MaxHeaderBytes,
		maxCells:  1 << 22,
	}
}

// SetMaxHeaderBytes caps the header section; a frame declaring a longer
// header fails with ErrFrame before any allocation.
func (d *Decoder) SetMaxHeaderBytes(n int) { d.maxHeader = n }

// SetMaxCells caps the total cell count across all chunks.
func (d *Decoder) SetMaxCells(n int64) { d.maxCells = n }

// Release returns the decoder's scratch buffer to the pool.
func (d *Decoder) Release() {
	if d.scratch != nil {
		scratchPool.Put(d.scratch)
		d.scratch = nil
	}
}

// byteReader adapts the decoder's reader for binary.ReadUvarint without
// requiring the caller to hand in a bufio.Reader.
func (d *Decoder) readByte() (byte, error) {
	if _, err := io.ReadFull(d.r, d.one[:]); err != nil {
		return 0, err
	}
	return d.one[0], nil
}

func (d *Decoder) readUvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.readByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrFrame)
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrFrame)
}

// Header reads the version byte and the JSON header, returning the raw
// header bytes (a fresh allocation the caller owns) for the caller to
// unmarshal under its own strictness rules.
func (d *Decoder) Header() ([]byte, error) {
	if d.state != 0 {
		return nil, errors.New("wire: Header called twice")
	}
	d.state = 1
	ver, err := d.readByte()
	if err != nil {
		return nil, fmt.Errorf("%w: missing version byte", ErrFrame)
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, ver, Version)
	}
	n, err := d.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: reading header length: %v", ErrFrame, err)
	}
	if n > uint64(d.maxHeader) {
		return nil, fmt.Errorf("%w: header of %d bytes exceeds the %d-byte cap", ErrFrame, n, d.maxHeader)
	}
	hdr := make([]byte, n)
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrFrame, err)
	}
	d.h = DigestBytes(d.h, []byte{ver})
	d.h = DigestBytes(d.h, hdr)
	return hdr, nil
}

// Cells reads every cell chunk up to the end marker, appending onto dst
// (pass a pooled or preallocated buffer to avoid growth) and returning
// the extended slice.
func (d *Decoder) Cells(dst []int64) ([]int64, error) {
	c := cellDst{dst: dst, grow: true}
	err := d.cells(&c)
	return c.dst, err
}

// CellsSized reads the cell section like Cells into one buffer of
// capacity n, allocated when the first chunk arrives, so a frame without
// cells allocates nothing and returns nil. n is the receiver's own bound
// on the cell count, never a value read from the frame: it lowers the
// SetMaxCells cap to n, so a frame carrying more fails with ErrFrame
// instead of growing the buffer (and the buffer never exceeds the cap).
// It is CellsInto's one-row case over a buffer of its own.
func (d *Decoder) CellsSized(n int) ([]int64, error) {
	d.maxCells = max(min(d.maxCells, int64(n)), 0)
	c := cellDst{cols: int(d.maxCells), stride: int(d.maxCells), alloc: true}
	err := d.cells(&c)
	return c.dst[:c.n], err
}

// CellsInto reads the cell section into a rows x cols rectangle of dst,
// row-major: row r of the rectangle is dst[r*stride : r*stride+cols], so
// stride is the row length of the table the rectangle sits in. It
// lowers the SetMaxCells cap to rows*cols, so a frame carrying more
// fails with ErrFrame, and it never writes a cell of dst outside the
// rectangle. It returns how many cells landed, also on error. Cells land
// before the trailer is read: until Close returns nil they are
// unverified, and on any error the rectangle holds an unknown mix of old
// and new cells.
func (d *Decoder) CellsInto(dst []int64, rows, cols, stride int) (int, error) {
	if rows < 0 || cols < 0 || stride < cols || (rows > 0 && cols > 0 && len(dst) < (rows-1)*stride+cols) {
		return 0, fmt.Errorf("wire: a %dx%d rectangle at row stride %d does not fit %d cells", rows, cols, stride, len(dst))
	}
	d.maxCells = max(min(d.maxCells, int64(rows)*int64(cols)), 0)
	c := cellDst{dst: dst, cols: cols, stride: stride}
	err := d.cells(&c)
	return c.n, err
}

// cells reads the cell section into c.
func (d *Decoder) cells(c *cellDst) error {
	if d.state != 1 {
		return errors.New("wire: Cells outside Header..Close")
	}
	d.state = 2
	for {
		n, err := d.readUvarint()
		if err != nil {
			return fmt.Errorf("%w: reading chunk count: %v", ErrFrame, err)
		}
		if n == 0 {
			return nil
		}
		if c.alloc && c.dst == nil {
			c.dst = make([]int64, c.cols)
		}
		if err := d.readCellRun(c, n, "cell chunk"); err != nil {
			return err
		}
	}
}

// cellDst is where decoded cells land: the end of dst, which grows to
// take them (grow), or a rectangle of dst — rows of cols cells, each row
// stride cells after the one before — filled row-major, whose row count
// the decoder's cell cap enforces. alloc makes a one-row rectangle
// allocate dst, cols cells, when the first chunk arrives. n counts the
// cells landed.
type cellDst struct {
	dst             []int64
	cols, stride, n int
	grow, alloc     bool
}

// next returns where the next at most k cells land: k new cells at the
// end of a growing dst, or the rest of the rectangle's current row.
func (c *cellDst) next(k int) []int64 {
	if c.grow {
		l := len(c.dst)
		c.dst = slices.Grow(c.dst, k)[:l+k]
		return c.dst[l:]
	}
	i, j := c.n/c.cols, c.n%c.cols
	at := i*c.stride + j
	return c.dst[at : at+min(k, c.cols-j)]
}

// readCellRun consumes n cells against the shared cell budget, folding
// each into the digest and landing it in c: the decoder's one cell loop.
func (d *Decoder) readCellRun(c *cellDst, n uint64, what string) error {
	// The count is untrusted: compare in unsigned space first, so a
	// count near 2^64 cannot wrap a signed sum past the cap. After the
	// first two checks, n fits in int64 and total <= maxCells holds, so
	// the subtraction cannot overflow.
	if d.maxCells < 0 || n > uint64(d.maxCells) || int64(n) > d.maxCells-d.total {
		return fmt.Errorf("%w: cell payload exceeds the %d-cell cap", ErrFrame, d.maxCells)
	}
	d.total += int64(n)
	buf := (*d.scratch)[:cap(*d.scratch)]
	for n > 0 {
		k := min(n, uint64(len(buf)/8))
		p := buf[:k*8]
		if _, err := io.ReadFull(d.r, p); err != nil {
			return fmt.Errorf("%w: truncated %s: %v", ErrFrame, what, err)
		}
		for len(p) > 0 {
			seg := c.next(len(p) / 8)
			for x := range seg {
				w := binary.LittleEndian.Uint64(p[x*8:])
				d.h = DigestWord(d.h, w)
				seg[x] = int64(w)
			}
			p = p[len(seg)*8:]
			c.n += len(seg)
		}
		n -= k
	}
	return nil
}

// Section reads the next halo section, appending its cells onto dst and
// returning the section tag; tag 0 means the section list has ended
// (the terminator is consumed) and Close may follow. Call only between
// Cells and Close, and only on frames whose writer emits sections — on
// a plain frame the first Section call consumes the digest trailer as
// junk and fails with ErrFrame or a digest mismatch at Close.
func (d *Decoder) Section(dst []int64) (uint64, []int64, error) {
	if d.state != 2 {
		return 0, dst, errors.New("wire: Section outside Cells..Close")
	}
	if d.secEnded {
		return 0, dst, nil
	}
	tag, err := d.readUvarint()
	if err != nil {
		return 0, dst, fmt.Errorf("%w: reading section tag: %v", ErrFrame, err)
	}
	if tag == 0 {
		d.secEnded = true
		return 0, dst, nil
	}
	n, err := d.readUvarint()
	if err != nil {
		return 0, dst, fmt.Errorf("%w: reading section count: %v", ErrFrame, err)
	}
	d.h = DigestWord(d.h, tag)
	c := cellDst{dst: dst, grow: true}
	if err := d.readCellRun(&c, n, "halo section"); err != nil {
		return 0, c.dst, err
	}
	return tag, c.dst, nil
}

// Close reads and verifies the digest trailer.
func (d *Decoder) Close() error {
	if d.state != 2 {
		return errors.New("wire: Close outside Cells..")
	}
	d.state = 3
	var tr [8]byte
	if _, err := io.ReadFull(d.r, tr[:]); err != nil {
		return fmt.Errorf("%w: truncated digest trailer: %v", ErrFrame, err)
	}
	if got := binary.LittleEndian.Uint64(tr[:]); got != d.h {
		return fmt.Errorf("%w: got %016x, computed %016x", ErrDigest, got, d.h)
	}
	return nil
}
