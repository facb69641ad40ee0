package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// Codec selects the solve-request wire encoding.
type Codec int

const (
	// CodecJSON (the default) speaks the HTTP/JSON protocol of DESIGN.md
	// §10: debuggable with curl, accepted by every lddpd.
	CodecJSON Codec = iota
	// CodecBinary speaks the length-prefixed binary frame format of
	// DESIGN.md §11: requests and responses carry cell payloads as raw
	// little-endian words with an FNV-1a digest trailer. The client
	// still advertises JSON as an acceptable fallback, so a server that
	// answers JSON (error bodies always are) is decoded transparently —
	// but the request body itself is a frame, which only a
	// binary-capable lddpd understands.
	CodecBinary
)

// ErrWireVersion: the server answered with a binary frame version this
// client does not speak. Not retryable — the same frame would come back.
var ErrWireVersion = errors.New("lddp client: unsupported binary wire version from server")

// ErrMismatch: a 200 response answers a different table or block than
// the request asked for — a binary header whose rows or cols differ from
// the request's, or a band response for another block. Not retried
// against the same server; the fleet coordinator moves the block to the
// next node.
var ErrMismatch = errors.New("lddp client: response does not match the request")

// WithCodec selects the request/response encoding (default CodecJSON).
func WithCodec(c Codec) Option {
	return func(cl *Client) { cl.codec = c }
}

// WithCacheControl attaches a Cache-Control header to every solve
// request: "no-cache" skips the server's result-cache lookup (the solve
// still runs and is stored), "no-store" skips both — what a load driver
// or benchmark wants, since a cache hit would measure the lookup, not
// the solve.
func WithCacheControl(v string) Option {
	return func(cl *Client) { cl.cacheControl = v }
}

// encodeBufPool holds request-encode scratch: one buffer per in-flight
// Solve, returned when the call (including retries, which re-read the
// same bytes) finishes.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encode renders one request under the client's codec into a pooled
// buffer: doc as JSON, or a frame whose header is hdr() — the document
// minus its payload — followed by rows, flattened into the cell
// section, and, for a band request, a section list of the non-empty
// halos, each under its index as the section tag. Band frames always
// carry a section list, even an empty one: the server drains it
// unconditionally. The caller must hand the buffer back via
// putEncodeBuf once no retry can re-read it.
func (c *Client) encode(doc any, hdr func() any, rows [][]int64, halos *[4][]int64) (*bytes.Buffer, error) {
	buf := encodeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	var err error
	if c.codec != CodecBinary {
		err = json.NewEncoder(buf).Encode(doc)
	} else {
		enc := wire.NewEncoder(buf)
		err = enc.Header(hdr())
		if err == nil && len(rows) > 0 {
			n := 0
			for _, row := range rows {
				n += len(row)
			}
			flat := wire.GetCells(n)
			for _, row := range rows {
				flat = append(flat, row...)
			}
			err = enc.Cells(flat)
			wire.PutCells(flat)
		}
		if err == nil && halos != nil {
			err = enc.BeginSections()
			for tag, halo := range halos {
				if err == nil && len(halo) > 0 {
					err = enc.Section(uint64(tag), halo)
				}
			}
		}
		if err == nil {
			err = enc.Close()
		} else {
			enc.Abort()
		}
	}
	if err != nil {
		encodeBufPool.Put(buf)
		return nil, fmt.Errorf("lddp client: encoding request: %w", err)
	}
	return buf, nil
}

func putEncodeBuf(buf *bytes.Buffer) {
	// Drop outsized buffers instead of pinning megabytes in the pool.
	if buf.Cap() <= 1<<20 {
		encodeBufPool.Put(buf)
	}
}

// pooledBody hands out request-body readers over one pooled encode
// buffer. On context cancellation http.Client.Do can return while the
// transport's write loop is still reading an attempt's body, so the
// buffer is refcounted — one reference held by Solve for the retry
// loop, plus one per reader handed to the transport (which closes
// every request body it is given, even on error paths) — and only the
// final release returns it to the pool. Without this, a reused buffer
// could be overwritten under an in-flight write.
type pooledBody struct {
	buf  *bytes.Buffer
	data []byte
	refs atomic.Int32
}

func newPooledBody(buf *bytes.Buffer) *pooledBody {
	b := &pooledBody{buf: buf, data: buf.Bytes()}
	b.refs.Store(1) // Solve's own reference, dropped by release
	return b
}

func (b *pooledBody) len() int { return len(b.data) }

// release drops one reference; the last one returns the buffer to the
// pool.
func (b *pooledBody) release() {
	if b.refs.Add(-1) == 0 {
		putEncodeBuf(b.buf)
	}
}

// reader hands out a fresh ReadCloser over the body, holding one
// reference until Close (idempotent — the transport and Client.Do can
// both close a body). One allocation: the Reader is embedded by value.
func (b *pooledBody) reader() io.ReadCloser {
	b.refs.Add(1)
	r := &pooledBodyReader{body: b}
	r.Reset(b.data)
	return r
}

type pooledBodyReader struct {
	bytes.Reader
	body   *pooledBody
	closed atomic.Bool
}

func (r *pooledBodyReader) Close() error {
	if r.closed.CompareAndSwap(false, true) {
		r.body.release()
	}
	return nil
}

// contentType returns the request Content-Type for the codec.
func (c *Client) contentType() string {
	if c.codec == CodecBinary {
		return wire.MediaType
	}
	return "application/json"
}

// accept returns the Accept header: a binary client offers the frame
// format first but keeps JSON acceptable, so servers predating the
// binary codec still interoperate on responses.
func (c *Client) accept() string {
	if c.codec == CodecBinary {
		return wire.MediaType + ", application/json"
	}
	return "application/json"
}

// responseIsBinary reports whether a 200 response body is a wire frame,
// by Content-Type media type (parameters and case ignored).
func responseIsBinary(hresp *http.Response) bool {
	ct := hresp.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), wire.MediaType)
}

// decodeResult decodes a 200 response into out by its Content-Type and
// reports whether the body was a frame. A JSON body is the whole
// document. A frame's header is out, refused by check before any cell
// is read; read then takes the decoder through the cell section, and
// the digest trailer is verified after it, so any cells read lands stay
// unverified until decodeResult returns nil. The body is capped at 64MB
// on both codecs: the decoder's own caps bound each frame section, and
// the outer limit bounds total client memory even against a server
// that streams garbage framing.
func decodeResult(hresp *http.Response, out any, check func() error, read func(*wire.Decoder) error) (frame bool, err error) {
	body := io.LimitReader(hresp.Body, 64<<20)
	if !responseIsBinary(hresp) {
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return false, fmt.Errorf("lddp client: decoding response: %w", err)
		}
		return false, nil
	}
	d := wire.NewDecoder(body)
	defer d.Release()
	hdr, err := d.Header()
	if err != nil {
		if errors.Is(err, wire.ErrVersion) {
			return true, fmt.Errorf("%w: %v", ErrWireVersion, err)
		}
		return true, fmt.Errorf("lddp client: decoding response frame: %w", err)
	}
	if err := json.Unmarshal(hdr, out); err != nil {
		return true, fmt.Errorf("lddp client: decoding response header: %w", err)
	}
	if err := check(); err != nil {
		return true, err
	}
	if err := read(d); err != nil {
		return true, fmt.Errorf("lddp client: decoding response cells: %w", err)
	}
	if err := d.Close(); err != nil {
		return true, fmt.Errorf("lddp client: verifying response frame: %w", err)
	}
	return true, nil
}
