// Package trace defines the canonical memory-access record produced by the
// workload generators and consumed by the simulator, together with binary
// trace file I/O and trace-stream utilities (windowing, warm-up splits,
// sampling).
//
// The paper's trace methodology (§4) collects in-order memory access traces
// with a fixed IPC of 1.0 and uses half of each trace for predictor warm-up.
// The same conventions apply here: each Record carries the instruction
// sequence number ("time" at IPC 1.0), the issuing CPU, the program counter
// of the access, the byte address, and whether it is a read or a write.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/mem"
)

// Kind distinguishes reads from writes.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one memory access.
type Record struct {
	// Seq is the global instruction sequence number at which the access
	// occurs (the trace clock; IPC 1.0 in the trace-based methodology).
	Seq uint64
	// PC is the program counter of the load/store instruction.
	PC uint64
	// Addr is the accessed byte address.
	Addr mem.Addr
	// CPU is the issuing processor, in [0, NumCPUs).
	CPU uint8
	// Kind is Read or Write.
	Kind Kind
}

// IsWrite reports whether the record is a store.
func (r Record) IsWrite() bool { return r.Kind == Write }

// String implements fmt.Stringer.
func (r Record) String() string {
	return fmt.Sprintf("seq=%d cpu=%d pc=%#x %s %#x", r.Seq, r.CPU, r.PC, r.Kind, uint64(r.Addr))
}

// Source is a stream of access records. Next returns the next record and
// true, or a zero Record and false when the stream is exhausted.
//
// Sources are single-use iterators; generators in package workload return a
// fresh Source per call so traces are reproducible.
type Source interface {
	Next() (Record, bool)
}

// BatchSource is a Source that can fill whole record batches in one call,
// amortizing interface dispatch over len(dst) records. NextBatch writes up
// to len(dst) records into dst and returns how many were written; it
// returns 0 only when the stream is exhausted (or dst is empty). A
// BatchSource must yield exactly the same record sequence through Next and
// NextBatch, in any interleaving.
type BatchSource interface {
	Source
	NextBatch(dst []Record) int
}

// Batched adapts src to a BatchSource. Sources that already batch
// natively (the workload generators, SliceSource, Reader, Limit) are
// returned unchanged; anything else is wrapped in a Next loop, which
// still hoists the per-record interface dispatch out of consumer inner
// loops.
func Batched(src Source) BatchSource {
	if b, ok := src.(BatchSource); ok {
		return b
	}
	return &batchAdapter{src: src}
}

type batchAdapter struct{ src Source }

// Next implements Source.
func (b *batchAdapter) Next() (Record, bool) { return b.src.Next() }

// NextBatch implements BatchSource.
func (b *batchAdapter) NextBatch(dst []Record) int {
	n := 0
	for n < len(dst) {
		r, ok := b.src.Next()
		if !ok {
			break
		}
		dst[n] = r
		n++
	}
	return n
}

// Err surfaces the wrapped source's latched decode error, if it has one.
func (b *batchAdapter) Err() error { return sourceErr(b.src) }

// sourceErr returns src's latched decode error when src is an erring
// source (trace.Reader, the v2 readers), else nil. Wrappers (Batched,
// Limit) pass it through so consumers can distinguish clean EOF from a
// truncated or corrupt stream without knowing the concrete source type.
func sourceErr(src Source) error {
	if e, ok := src.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

// SliceSource adapts an in-memory record slice to a Source.
type SliceSource struct {
	recs []Record
	i    int
}

// NewSliceSource returns a Source yielding recs in order.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{recs: recs} }

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// NextBatch implements BatchSource with a single copy.
func (s *SliceSource) NextBatch(dst []Record) int {
	n := copy(dst, s.recs[s.i:])
	s.i += n
	return n
}

// NextView implements ViewSource: the returned slice aliases the
// underlying records, so replaying an in-memory trace moves no bytes.
func (s *SliceSource) NextView(max int) []Record {
	rest := s.recs[s.i:]
	if len(rest) > max {
		rest = rest[:max]
	}
	s.i += len(rest)
	return rest
}

// Seek implements Seeker: it repositions the source at record index rec,
// clamped to the end of the slice.
func (s *SliceSource) Seek(rec uint64) error {
	if rec > uint64(len(s.recs)) {
		rec = uint64(len(s.recs))
	}
	s.i = int(rec)
	return nil
}

// Records implements Seeker: the total record count.
func (s *SliceSource) Records() uint64 { return uint64(len(s.recs)) }

// Seeker is a Source that can reposition to an absolute record index in
// O(1) decodes and knows its total length: in-memory slices and mmap'd
// v2 traces. Seeking past the end clamps (subsequent reads report
// exhaustion). The sampled simulation mode uses it to skip the cold gap
// between measurement windows instead of streaming through it.
type Seeker interface {
	Source
	Seek(rec uint64) error
	Records() uint64
}

var _ Seeker = (*SliceSource)(nil)

// ViewSource is an optional refinement of BatchSource for sources whose
// records already live in memory: NextView returns up to max records as a
// slice borrowed from the source (valid until the next call), letting
// consumers iterate without copying into their own batch buffer. An
// empty result means exhaustion.
type ViewSource interface {
	Source
	NextView(max int) []Record
}

// Collect drains a Source into a slice, stopping after max records
// (max <= 0 means no limit).
func Collect(src Source, max int) []Record {
	var out []Record
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Limit wraps a Source so it yields at most n records.
func Limit(src Source, n uint64) Source {
	return &limitSource{src: Batched(src), left: n}
}

type limitSource struct {
	src  BatchSource
	left uint64
}

func (l *limitSource) Next() (Record, bool) {
	if l.left == 0 {
		return Record{}, false
	}
	l.left--
	return l.src.Next()
}

// NextBatch implements BatchSource, clamping the batch to the remaining
// budget and batching from the underlying source.
func (l *limitSource) NextBatch(dst []Record) int {
	if l.left == 0 || len(dst) == 0 {
		return 0
	}
	if uint64(len(dst)) > l.left {
		dst = dst[:l.left]
	}
	n := l.src.NextBatch(dst)
	l.left -= uint64(n)
	return n
}

// Err surfaces the wrapped source's latched decode error, if it has one.
func (l *limitSource) Err() error { return sourceErr(l.src) }

// Skip discards n records from src, returning how many were actually
// discarded (fewer if the stream ended early). It is used to implement the
// paper's use-half-the-trace-for-warm-up convention at the consumer side.
func Skip(src Source, n uint64) uint64 {
	var i uint64
	for i = 0; i < n; i++ {
		if _, ok := src.Next(); !ok {
			return i
		}
	}
	return i
}

// Func adapts a closure to a Source.
type Func func() (Record, bool)

// Next implements Source.
func (f Func) Next() (Record, bool) { return f() }

// ---- Binary trace file format ----
//
// Header: magic "SMST" (4 bytes), version uint16, reserved uint16,
// record count uint64 (0 if unknown at write time and stream is
// length-delimited by EOF).
// Records: fixed 26-byte little-endian encoding:
//   seq uint64 | pc uint64 | addr uint64 | cpu uint8 | kind uint8

const (
	magic   = "SMST"
	version = 1
	recSize = 8 + 8 + 8 + 1 + 1
)

// ErrBadFormat is returned when a trace file fails validation.
var ErrBadFormat = errors.New("trace: bad file format")

// Writer streams records into an io.Writer using the binary trace format.
type Writer struct {
	w     *bufio.Writer
	count uint64
	buf   [recSize]byte
}

// NewWriter writes the trace header and returns a Writer. The header's
// record count is written as zero; readers rely on EOF framing.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint16(hdr[0:2], version)
	// hdr[2:4] reserved, hdr[4:12] record count (0: unknown).
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	b := tw.buf[:]
	binary.LittleEndian.PutUint64(b[0:8], r.Seq)
	binary.LittleEndian.PutUint64(b[8:16], r.PC)
	binary.LittleEndian.PutUint64(b[16:24], uint64(r.Addr))
	b[24] = r.CPU
	b[25] = uint8(r.Kind)
	if _, err := tw.w.Write(b); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *Writer) Count() uint64 { return tw.count }

// Flush flushes buffered records to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes a binary trace stream as a Source. It batches natively:
// NextBatch decodes whole chunks of records per buffered read instead of
// one 26-byte ReadFull per record.
type Reader struct {
	r     *bufio.Reader
	err   error
	buf   [recSize]byte
	chunk []byte // lazily allocated NextBatch read buffer
}

// readerChunkRecords is the number of records NextBatch reads per chunk.
const readerChunkRecords = 512

// NewReader validates the header and returns a streaming Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 4+12)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return &Reader{r: br}, nil
}

// Next implements Source. After the stream ends, Err reports whether it
// ended cleanly or mid-record.
func (tr *Reader) Next() (Record, bool) {
	if tr.err != nil {
		return Record{}, false
	}
	if _, err := io.ReadFull(tr.r, tr.buf[:]); err != nil {
		if err != io.EOF {
			tr.err = fmt.Errorf("trace: reading record: %w", err)
		}
		return Record{}, false
	}
	return decodeRecord(tr.buf[:]), true
}

// decodeRecord decodes one fixed-size record from b (len(b) >= recSize).
func decodeRecord(b []byte) Record {
	return Record{
		Seq:  binary.LittleEndian.Uint64(b[0:8]),
		PC:   binary.LittleEndian.Uint64(b[8:16]),
		Addr: mem.Addr(binary.LittleEndian.Uint64(b[16:24])),
		CPU:  b[24],
		Kind: Kind(b[25]),
	}
}

// NextBatch implements BatchSource: records are decoded from chunked
// buffered reads. A stream that ends at a record boundary is a clean EOF
// exactly as with Next; a trailing partial record sets Err.
func (tr *Reader) NextBatch(dst []Record) int {
	total := 0
	for total < len(dst) && tr.err == nil {
		want := len(dst) - total
		if want > readerChunkRecords {
			want = readerChunkRecords
		}
		if tr.chunk == nil {
			tr.chunk = make([]byte, readerChunkRecords*recSize)
		}
		n, err := io.ReadFull(tr.r, tr.chunk[:want*recSize])
		for i := 0; i+recSize <= n; i += recSize {
			dst[total] = decodeRecord(tr.chunk[i:])
			total++
		}
		if err != nil {
			// EOF before any byte, or ErrUnexpectedEOF exactly at a
			// record boundary, is a clean end of stream; a partial
			// trailing record is a format error (as in Next).
			if !(err == io.EOF || (err == io.ErrUnexpectedEOF && n%recSize == 0)) {
				tr.err = fmt.Errorf("trace: reading record: %w", err)
			}
			break
		}
	}
	return total
}

// Err returns the first decoding error encountered, or nil if the stream
// ended cleanly at a record boundary.
func (tr *Reader) Err() error { return tr.err }
