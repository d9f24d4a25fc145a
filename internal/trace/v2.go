package trace

// Trace format v2: blocked + columnar, seekable, mmap-friendly.
//
// A v2 file is
//
//	header | block* | index | tail
//
// Header (little-endian; fixed 64 bytes + workload name):
//
//	[0:4]   magic "SMST" (shared with v1; the version field disambiguates)
//	[4:6]   version = 2 (uint16)
//	[6:8]   header length in bytes (uint16) — offset of the first block
//	[8:12]  CPU count (uint32)
//	[12:16] geometry block size in bytes (uint32; 0 = unspecified)
//	[16:20] geometry region size in bytes (uint32; 0 = unspecified)
//	[20:24] reserved
//	[24:32] record count (uint64; 0 = unknown — the tail is authoritative)
//	[32:64] source-workload canonical hash (32 bytes; all-zero = unknown)
//	[64:66] workload name length n (uint16)
//	[66:66+n] workload name (UTF-8)
//
// Each block holds up to Header.BlockRecords records as per-column arrays:
//
//	[0:4]   record count (uint32)
//	[4:8]   seq column length (uint32)
//	[8:12]  pc column length (uint32)
//	[12:16] addr column length (uint32)
//	[16:]   seq column  | pc column | addr column
//	        | cpu column (count bytes) | kind bitmap ((count+7)/8 bytes)
//
// The seq column is zigzag-varint deltas against the previous record's
// seq; the pc and addr columns are zigzag-varint deltas against the
// previous record *of the same CPU* — multiprocessor traces interleave
// CPUs round-robin, so same-CPU deltas are the small strides of one
// op's traversal (mostly one byte) while record-to-record deltas jump
// between unrelated structures. Delta state resets at every block
// boundary (the first value per CPU is a delta against zero), so any
// block decodes on its own. The kind bitmap sets bit i when record i is
// a write.
//
// The index is one {block offset uint64, record count uint32} entry per
// block, and the 32-byte tail makes the file self-locating from its end:
//
//	[0:8]   index offset (uint64)
//	[8:12]  block count (uint32)
//	[12:20] total record count (uint64)
//	[20:24] CRC-32 (IEEE) of the index bytes (uint32)
//	[24:28] reserved
//	[28:32] tail magic "2TSM"
//
// The index gives O(1) Seek (binary search over cumulative counts, then
// one block decode) and O(1) stat (header + tail only). Delta+varint
// encoding compresses the generator traces to roughly a third of the
// fixed 26-byte v1 records.

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"repro/internal/mem"
)

const (
	// Version2 identifies the blocked columnar format.
	Version2 = 2

	v2HeaderFixed = 64
	v2HeaderMin   = v2HeaderFixed + 2
	v2BlockHeader = 16
	v2IndexEntry  = 12
	v2TailSize    = 32
	v2TailMagic   = "2TSM"

	// DefaultBlockRecords is the writer's records-per-block default: big
	// enough to amortize per-block costs, small enough that one Seek
	// decodes under a millisecond of data.
	DefaultBlockRecords = 32768

	// maxV2BlockRecords bounds a block's claimed record count during
	// decoding, so a corrupt count cannot drive a giant allocation.
	maxV2BlockRecords = 1 << 22
)

// Header is the self-describing v2 file header.
type Header struct {
	// CPUs is the trace's processor count (0 = unknown). When set,
	// every record's CPU is below it: the writer refuses other records
	// and the reader treats them as malformed.
	CPUs int
	// Geometry records the block/region geometry the capture assumed.
	// The zero Geometry means unspecified.
	Geometry mem.Geometry
	// Workload is the source workload's name ("" = unknown).
	Workload string
	// WorkloadHash is the hex SHA-256 canonical identity of the source
	// workload ("" = unknown) — the content address the engine's disk
	// trace tier stores the file under (store.ForTrace).
	WorkloadHash string
	// Records is the total record count. Writers fill it at Close (when
	// the destination supports io.WriterAt); readers always report it
	// from the tail.
	Records uint64
	// Blocks is the block count (reader-filled).
	Blocks int
	// BlockRecords is a writer-side knob: records per block, 0 selecting
	// DefaultBlockRecords. It is not persisted; readers take block sizes
	// from the index.
	BlockRecords int
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// V2Writer streams records into the v2 blocked columnar format.
type V2Writer struct {
	w   io.Writer
	at  io.WriterAt // non-nil when the header record count can be patched
	hdr Header

	blockRecords int
	pending      []Record

	enc     []byte // assembled block
	colSeq  []byte
	colPC   []byte
	colAddr []byte

	index  []byte
	blocks uint32
	off    uint64
	count  uint64

	err    error
	closed bool
}

// NewV2Writer writes the v2 header and returns a writer. Records are
// buffered into blocks and flushed as each fills; Close writes the final
// partial block, the index, and the tail. When w also implements
// io.WriterAt (an *os.File does), Close patches the header's record
// count in place; otherwise the header leaves it zero and readers use
// the tail.
func NewV2Writer(w io.Writer, hdr Header) (*V2Writer, error) {
	// The header length field is a uint16 counting the 66 fixed bytes
	// plus the name, so the name's bound is 0xffff minus that prefix.
	if len(hdr.Workload) > 0xffff-v2HeaderMin {
		return nil, fmt.Errorf("%w: workload name %d bytes long", ErrBadFormat, len(hdr.Workload))
	}
	var hash [32]byte
	if hdr.WorkloadHash != "" {
		h, err := hex.DecodeString(hdr.WorkloadHash)
		if err != nil || len(h) != 32 {
			return nil, fmt.Errorf("%w: workload hash %q is not 32 hex bytes", ErrBadFormat, hdr.WorkloadHash)
		}
		copy(hash[:], h)
	}
	blockRecords := hdr.BlockRecords
	if blockRecords <= 0 {
		blockRecords = DefaultBlockRecords
	}
	if blockRecords > maxV2BlockRecords {
		blockRecords = maxV2BlockRecords
	}

	buf := make([]byte, v2HeaderFixed+2+len(hdr.Workload))
	copy(buf[0:4], magic)
	binary.LittleEndian.PutUint16(buf[4:6], Version2)
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(buf)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(hdr.CPUs))
	if hdr.Geometry != (mem.Geometry{}) {
		binary.LittleEndian.PutUint32(buf[12:16], uint32(hdr.Geometry.BlockSize()))
		binary.LittleEndian.PutUint32(buf[16:20], uint32(hdr.Geometry.RegionSize()))
	}
	// buf[24:32] record count: patched at Close when possible.
	copy(buf[32:64], hash[:])
	binary.LittleEndian.PutUint16(buf[64:66], uint16(len(hdr.Workload)))
	copy(buf[66:], hdr.Workload)

	if _, err := w.Write(buf); err != nil {
		return nil, fmt.Errorf("trace: writing v2 header: %w", err)
	}
	at, _ := w.(io.WriterAt)
	return &V2Writer{
		w:            w,
		at:           at,
		hdr:          hdr,
		blockRecords: blockRecords,
		pending:      make([]Record, 0, blockRecords),
		off:          uint64(len(buf)),
	}, nil
}

// Write appends one record.
func (tw *V2Writer) Write(r Record) error {
	if tw.err != nil {
		return tw.err
	}
	if tw.closed {
		return fmt.Errorf("trace: write after Close")
	}
	tw.pending = append(tw.pending, r)
	tw.count++
	if len(tw.pending) >= tw.blockRecords {
		return tw.flushBlock()
	}
	return nil
}

// WriteBatch appends a batch of records.
func (tw *V2Writer) WriteBatch(recs []Record) error {
	for len(recs) > 0 {
		if tw.err != nil {
			return tw.err
		}
		if tw.closed {
			return fmt.Errorf("trace: write after Close")
		}
		n := tw.blockRecords - len(tw.pending)
		if n > len(recs) {
			n = len(recs)
		}
		tw.pending = append(tw.pending, recs[:n]...)
		tw.count += uint64(n)
		recs = recs[n:]
		if len(tw.pending) >= tw.blockRecords {
			if err := tw.flushBlock(); err != nil {
				return err
			}
		}
	}
	return tw.err
}

// Count returns the number of records written so far.
func (tw *V2Writer) Count() uint64 { return tw.count }

// flushBlock encodes and writes the pending block.
func (tw *V2Writer) flushBlock() error {
	if len(tw.pending) == 0 {
		return nil
	}
	if tw.hdr.CPUs > 0 {
		for _, r := range tw.pending {
			if int(r.CPU) >= tw.hdr.CPUs {
				tw.err = fmt.Errorf("trace: record names CPU %d of a %d-CPU trace", r.CPU, tw.hdr.CPUs)
				return tw.err
			}
		}
	}
	tw.colSeq, tw.colPC, tw.colAddr = tw.colSeq[:0], tw.colPC[:0], tw.colAddr[:0]
	var prevSeq uint64
	var prevPC, prevAddr [256]uint64
	for i := range tw.pending {
		r := &tw.pending[i]
		tw.colSeq = binary.AppendUvarint(tw.colSeq, zigzag(int64(r.Seq-prevSeq)))
		tw.colPC = binary.AppendUvarint(tw.colPC, zigzag(int64(r.PC-prevPC[r.CPU])))
		tw.colAddr = binary.AppendUvarint(tw.colAddr, zigzag(int64(uint64(r.Addr)-prevAddr[r.CPU])))
		prevSeq, prevPC[r.CPU], prevAddr[r.CPU] = r.Seq, r.PC, uint64(r.Addr)
	}
	count := len(tw.pending)
	bitmapLen := (count + 7) / 8
	total := v2BlockHeader + len(tw.colSeq) + len(tw.colPC) + len(tw.colAddr) + count + bitmapLen
	if cap(tw.enc) < total {
		tw.enc = make([]byte, total)
	}
	b := tw.enc[:total]
	binary.LittleEndian.PutUint32(b[0:4], uint32(count))
	binary.LittleEndian.PutUint32(b[4:8], uint32(len(tw.colSeq)))
	binary.LittleEndian.PutUint32(b[8:12], uint32(len(tw.colPC)))
	binary.LittleEndian.PutUint32(b[12:16], uint32(len(tw.colAddr)))
	p := v2BlockHeader
	p += copy(b[p:], tw.colSeq)
	p += copy(b[p:], tw.colPC)
	p += copy(b[p:], tw.colAddr)
	for i := range tw.pending {
		b[p+i] = tw.pending[i].CPU
	}
	p += count
	bitmap := b[p : p+bitmapLen]
	for i := range bitmap {
		bitmap[i] = 0
	}
	for i := range tw.pending {
		if tw.pending[i].Kind == Write {
			bitmap[i>>3] |= 1 << (uint(i) & 7)
		}
	}

	if _, err := tw.w.Write(b); err != nil {
		tw.err = fmt.Errorf("trace: writing v2 block: %w", err)
		return tw.err
	}
	var ent [v2IndexEntry]byte
	binary.LittleEndian.PutUint64(ent[0:8], tw.off)
	binary.LittleEndian.PutUint32(ent[8:12], uint32(count))
	tw.index = append(tw.index, ent[:]...)
	tw.blocks++
	tw.off += uint64(total)
	tw.pending = tw.pending[:0]
	return nil
}

// Close flushes the final block and writes the index and tail. It does
// not close the underlying writer.
func (tw *V2Writer) Close() error {
	if tw.closed {
		return tw.err
	}
	if tw.err != nil {
		tw.closed = true
		return tw.err
	}
	if err := tw.flushBlock(); err != nil {
		tw.closed = true
		return err
	}
	indexOff := tw.off
	if len(tw.index) > 0 {
		if _, err := tw.w.Write(tw.index); err != nil {
			tw.err = fmt.Errorf("trace: writing v2 index: %w", err)
			tw.closed = true
			return tw.err
		}
	}
	var tail [v2TailSize]byte
	binary.LittleEndian.PutUint64(tail[0:8], indexOff)
	binary.LittleEndian.PutUint32(tail[8:12], tw.blocks)
	binary.LittleEndian.PutUint64(tail[12:20], tw.count)
	binary.LittleEndian.PutUint32(tail[20:24], crc32.ChecksumIEEE(tw.index))
	copy(tail[28:32], v2TailMagic)
	if _, err := tw.w.Write(tail[:]); err != nil {
		tw.err = fmt.Errorf("trace: writing v2 tail: %w", err)
		tw.closed = true
		return tw.err
	}
	if tw.at != nil {
		var cnt [8]byte
		binary.LittleEndian.PutUint64(cnt[:], tw.count)
		if _, err := tw.at.WriteAt(cnt[:], 24); err != nil {
			tw.err = fmt.Errorf("trace: patching v2 header record count: %w", err)
			tw.closed = true
			return tw.err
		}
	}
	tw.closed = true
	return nil
}

// ---- v2 metadata (header + index) ----

// v2meta is the parsed header and block index of one v2 file.
type v2meta struct {
	hdr        Header
	blockOff   []uint64
	blockLen   []uint64
	blockCount []uint32
	cumStart   []uint64 // starting record index of each block
	maxCount   int
	size       int64
}

// readAt fills buf from ra, mapping a short read to io.ErrUnexpectedEOF.
func readAt(ra io.ReaderAt, buf []byte, off int64) error {
	n, err := ra.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// parseV2 validates and loads the header and index of a v2 file.
func parseV2(ra io.ReaderAt, size int64) (*v2meta, error) {
	if size < v2HeaderMin+v2TailSize {
		return nil, fmt.Errorf("trace: v2 file of %d bytes: %w", size, io.ErrUnexpectedEOF)
	}
	fixed := make([]byte, v2HeaderMin)
	if err := readAt(ra, fixed, 0); err != nil {
		return nil, fmt.Errorf("trace: reading v2 header: %w", err)
	}
	if string(fixed[0:4]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, fixed[0:4])
	}
	if v := binary.LittleEndian.Uint16(fixed[4:6]); v != Version2 {
		return nil, fmt.Errorf("%w: version %d is not v2", ErrBadFormat, v)
	}
	headerLen := int64(binary.LittleEndian.Uint16(fixed[6:8]))
	nameLen := int64(binary.LittleEndian.Uint16(fixed[64:66]))
	if headerLen != v2HeaderMin+nameLen || headerLen+v2TailSize > size {
		return nil, fmt.Errorf("%w: header length %d inconsistent (name %d bytes, file %d bytes)",
			ErrBadFormat, headerLen, nameLen, size)
	}

	m := &v2meta{size: size}
	m.hdr.CPUs = int(binary.LittleEndian.Uint32(fixed[8:12]))
	bs := int(binary.LittleEndian.Uint32(fixed[12:16]))
	rs := int(binary.LittleEndian.Uint32(fixed[16:20]))
	if bs != 0 || rs != 0 {
		geo, err := mem.NewGeometry(bs, rs)
		if err != nil {
			return nil, fmt.Errorf("%w: header geometry %dB/%dB: %v", ErrBadFormat, bs, rs, err)
		}
		m.hdr.Geometry = geo
	}
	headerRecords := binary.LittleEndian.Uint64(fixed[24:32])
	var zero [32]byte
	if hash := fixed[32:64]; string(hash) != string(zero[:]) {
		m.hdr.WorkloadHash = hex.EncodeToString(hash)
	}
	if nameLen > 0 {
		name := make([]byte, nameLen)
		if err := readAt(ra, name, v2HeaderMin); err != nil {
			return nil, fmt.Errorf("trace: reading v2 workload name: %w", err)
		}
		m.hdr.Workload = string(name)
	}

	tail := make([]byte, v2TailSize)
	if err := readAt(ra, tail, size-v2TailSize); err != nil {
		return nil, fmt.Errorf("trace: reading v2 tail: %w", err)
	}
	if string(tail[28:32]) != v2TailMagic {
		return nil, fmt.Errorf("%w: bad tail magic %q (truncated file?)", ErrBadFormat, tail[28:32])
	}
	indexOff := binary.LittleEndian.Uint64(tail[0:8])
	blocks := binary.LittleEndian.Uint32(tail[8:12])
	records := binary.LittleEndian.Uint64(tail[12:20])
	indexCRC := binary.LittleEndian.Uint32(tail[20:24])
	if indexOff < uint64(headerLen) || indexOff > uint64(size-v2TailSize) ||
		indexOff+uint64(blocks)*v2IndexEntry+v2TailSize != uint64(size) {
		return nil, fmt.Errorf("%w: index at %d with %d blocks does not fit %d-byte file",
			ErrBadFormat, indexOff, blocks, size)
	}
	if headerRecords != 0 && headerRecords != records {
		return nil, fmt.Errorf("%w: header records %d != tail records %d", ErrBadFormat, headerRecords, records)
	}

	index := make([]byte, int(blocks)*v2IndexEntry)
	if err := readAt(ra, index, int64(indexOff)); err != nil {
		return nil, fmt.Errorf("trace: reading v2 index: %w", err)
	}
	if crc32.ChecksumIEEE(index) != indexCRC {
		return nil, fmt.Errorf("%w: index CRC mismatch", ErrBadFormat)
	}

	m.blockOff = make([]uint64, blocks)
	m.blockLen = make([]uint64, blocks)
	m.blockCount = make([]uint32, blocks)
	m.cumStart = make([]uint64, blocks)
	var sum uint64
	prevEnd := uint64(headerLen)
	for i := 0; i < int(blocks); i++ {
		off := binary.LittleEndian.Uint64(index[i*v2IndexEntry:])
		count := binary.LittleEndian.Uint32(index[i*v2IndexEntry+8:])
		if off != prevEnd {
			return nil, fmt.Errorf("%w: block %d at offset %d, want %d", ErrBadFormat, i, off, prevEnd)
		}
		end := indexOff
		if i+1 < int(blocks) {
			end = binary.LittleEndian.Uint64(index[(i+1)*v2IndexEntry:])
		}
		if end < off+v2BlockHeader || end > indexOff {
			return nil, fmt.Errorf("%w: block %d spans [%d,%d)", ErrBadFormat, i, off, end)
		}
		if count == 0 || count > maxV2BlockRecords || uint64(count) > end-off {
			return nil, fmt.Errorf("%w: block %d claims %d records in %d bytes", ErrBadFormat, i, count, end-off)
		}
		m.blockOff[i] = off
		m.blockLen[i] = end - off
		m.blockCount[i] = count
		m.cumStart[i] = sum
		sum += uint64(count)
		if int(count) > m.maxCount {
			m.maxCount = int(count)
		}
		prevEnd = end
	}
	if blocks > 0 && prevEnd != indexOff {
		return nil, fmt.Errorf("%w: blocks end at %d, index at %d", ErrBadFormat, prevEnd, indexOff)
	}
	if blocks == 0 && indexOff != uint64(headerLen) {
		return nil, fmt.Errorf("%w: empty file with %d stray bytes", ErrBadFormat, indexOff-uint64(headerLen))
	}
	if sum != records {
		return nil, fmt.Errorf("%w: block counts sum to %d, tail says %d", ErrBadFormat, sum, records)
	}
	m.hdr.Records = records
	m.hdr.Blocks = int(blocks)
	return m, nil
}

// decodeV2Block decodes one block's bytes into dst (cap(dst) must cover
// the block's record count, which the caller takes from the index). A
// record naming a CPU outside the header's CPU count (when it has one)
// is malformed: consumers index per-CPU state with it.
func decodeV2Block(b []byte, want uint32, numCPUs int, dst []Record) ([]Record, error) {
	if len(b) < v2BlockHeader {
		return nil, fmt.Errorf("%w: %d-byte block", ErrBadFormat, len(b))
	}
	count := binary.LittleEndian.Uint32(b[0:4])
	lenSeq := int(binary.LittleEndian.Uint32(b[4:8]))
	lenPC := int(binary.LittleEndian.Uint32(b[8:12]))
	lenAddr := int(binary.LittleEndian.Uint32(b[12:16]))
	if count != want {
		return nil, fmt.Errorf("%w: block holds %d records, index says %d", ErrBadFormat, count, want)
	}
	n := int(count)
	bitmapLen := (n + 7) / 8
	if lenSeq < 0 || lenPC < 0 || lenAddr < 0 ||
		v2BlockHeader+lenSeq+lenPC+lenAddr+n+bitmapLen != len(b) {
		return nil, fmt.Errorf("%w: block column lengths %d+%d+%d+%d+%d != %d bytes",
			ErrBadFormat, lenSeq, lenPC, lenAddr, n, bitmapLen, len(b))
	}
	p := v2BlockHeader
	colSeq := b[p : p+lenSeq]
	p += lenSeq
	colPC := b[p : p+lenPC]
	p += lenPC
	colAddr := b[p : p+lenAddr]
	p += lenAddr
	cpus := b[p : p+n]
	bitmap := b[p+n:]
	if numCPUs > 0 {
		for i, cpu := range cpus {
			if int(cpu) >= numCPUs {
				return nil, fmt.Errorf("%w: record %d names CPU %d of a %d-CPU trace", ErrBadFormat, i, cpu, numCPUs)
			}
		}
	}

	dst = dst[:n]
	var seq uint64
	var prevPC, prevAddr [256]uint64
	var offSeq, offPC, offAddr int
	// Each column decode inlines the single-byte case ahead of the
	// general varint decoder: generator traces are dominated by one-byte
	// deltas (seq strides, repeated PCs), and the hot replay loop is
	// what makes the disk tier worth having.
	for i := 0; i < n; i++ {
		var u uint64
		if offSeq < len(colSeq) && colSeq[offSeq] < 0x80 {
			u = uint64(colSeq[offSeq])
			offSeq++
		} else {
			var k int
			if u, k = binary.Uvarint(colSeq[offSeq:]); k <= 0 {
				return nil, fmt.Errorf("%w: seq column truncated at record %d", ErrBadFormat, i)
			}
			offSeq += k
		}
		seq += uint64(unzigzag(u))
		cpu := cpus[i]

		if offPC+1 < len(colPC) && colPC[offPC+1] < 0x80 {
			// One- and two-byte deltas cover almost every same-CPU PC
			// step; decode them without the general varint loop.
			if b := colPC[offPC]; b < 0x80 {
				u = uint64(b)
				offPC++
			} else {
				u = uint64(b&0x7f) | uint64(colPC[offPC+1])<<7
				offPC += 2
			}
		} else {
			var k int
			if u, k = binary.Uvarint(colPC[offPC:]); k <= 0 {
				return nil, fmt.Errorf("%w: pc column truncated at record %d", ErrBadFormat, i)
			}
			offPC += k
		}
		pc := prevPC[cpu] + uint64(unzigzag(u))
		prevPC[cpu] = pc

		if offAddr+1 < len(colAddr) && colAddr[offAddr+1] < 0x80 {
			if b := colAddr[offAddr]; b < 0x80 {
				u = uint64(b)
				offAddr++
			} else {
				u = uint64(b&0x7f) | uint64(colAddr[offAddr+1])<<7
				offAddr += 2
			}
		} else {
			var k int
			if u, k = binary.Uvarint(colAddr[offAddr:]); k <= 0 {
				return nil, fmt.Errorf("%w: addr column truncated at record %d", ErrBadFormat, i)
			}
			offAddr += k
		}
		addr := prevAddr[cpu] + uint64(unzigzag(u))
		prevAddr[cpu] = addr

		kind := Read
		if bitmap[i>>3]&(1<<(uint(i)&7)) != 0 {
			kind = Write
		}
		dst[i] = Record{Seq: seq, PC: pc, Addr: mem.Addr(addr), CPU: cpu, Kind: kind}
	}
	if offSeq != lenSeq || offPC != lenPC || offAddr != lenAddr {
		return nil, fmt.Errorf("%w: block columns carry trailing bytes", ErrBadFormat)
	}
	return dst, nil
}

// ---- v2 cursor (shared by V2Reader and MappedSource) ----

// v2cursor iterates a v2 file's records, decoding one block at a time
// into a reused buffer. blockBytes returns the raw bytes of block i —
// a direct subslice for mapped files, a reused read buffer otherwise —
// valid until the next call.
type v2cursor struct {
	meta       *v2meta
	blockBytes func(i int) ([]byte, error)

	buf   []Record // decoded current block
	pos   int      // next record within buf
	block int      // next block to decode
	err   error
}

func (c *v2cursor) init(meta *v2meta, blockBytes func(i int) ([]byte, error)) {
	c.meta = meta
	c.blockBytes = blockBytes
	c.buf = make([]Record, 0, meta.maxCount)
}

// advance decodes the next block into buf; it reports false at EOF or on
// error (latched in c.err).
func (c *v2cursor) advance() bool {
	if c.err != nil || c.block >= len(c.meta.blockOff) {
		return false
	}
	raw, err := c.blockBytes(c.block)
	if err != nil {
		c.err = fmt.Errorf("trace: reading v2 block %d: %w", c.block, err)
		return false
	}
	buf, err := decodeV2Block(raw, c.meta.blockCount[c.block], c.meta.hdr.CPUs, c.buf[:0])
	if err != nil {
		c.err = fmt.Errorf("trace: decoding v2 block %d: %w", c.block, err)
		return false
	}
	c.buf = buf
	c.pos = 0
	c.block++
	return true
}

// Next implements Source.
func (c *v2cursor) Next() (Record, bool) {
	if c.pos >= len(c.buf) && !c.advance() {
		return Record{}, false
	}
	r := c.buf[c.pos]
	c.pos++
	return r, true
}

// NextBatch implements BatchSource.
func (c *v2cursor) NextBatch(dst []Record) int {
	total := 0
	for total < len(dst) {
		if c.pos >= len(c.buf) && !c.advance() {
			break
		}
		n := copy(dst[total:], c.buf[c.pos:])
		c.pos += n
		total += n
	}
	return total
}

// NextView implements ViewSource: the returned records alias the cursor's
// decode buffer and stay valid until the next call on the cursor.
func (c *v2cursor) NextView(max int) []Record {
	if c.pos >= len(c.buf) && !c.advance() {
		return nil
	}
	rest := c.buf[c.pos:]
	if len(rest) > max {
		rest = rest[:max]
	}
	c.pos += len(rest)
	return rest
}

// Seek positions the cursor at record index rec (clamped to the end of
// the trace), clearing any latched error. Seeking costs one binary
// search plus one block decode.
func (c *v2cursor) Seek(rec uint64) error {
	c.err = nil
	if rec >= c.meta.hdr.Records {
		c.block = len(c.meta.blockOff)
		c.buf = c.buf[:0]
		c.pos = 0
		return nil
	}
	// First block whose records start after rec, minus one.
	i := sort.Search(len(c.meta.cumStart), func(i int) bool { return c.meta.cumStart[i] > rec }) - 1
	c.block = i
	if !c.advance() {
		return c.err
	}
	c.pos = int(rec - c.meta.cumStart[i])
	return nil
}

// Err returns the first decoding error encountered, or nil.
func (c *v2cursor) Err() error { return c.err }

// Records returns the total record count.
func (c *v2cursor) Records() uint64 { return c.meta.hdr.Records }

// Header returns the file's self-describing header.
func (c *v2cursor) Header() Header { return c.meta.hdr }

// V2Reader is an index-aware streaming reader over any io.ReaderAt. It
// implements Source, BatchSource and ViewSource, and seeks in O(1) block
// decodes. For files on disk, prefer OpenFile/MappedSource, which serve
// block bytes straight from the mapping.
type V2Reader struct {
	v2cursor
	ra  io.ReaderAt
	raw []byte // reused block read buffer
}

// NewV2Reader parses the header and index of the v2 stream held by ra.
func NewV2Reader(ra io.ReaderAt, size int64) (*V2Reader, error) {
	meta, err := parseV2(ra, size)
	if err != nil {
		return nil, err
	}
	r := &V2Reader{ra: ra}
	r.init(meta, func(i int) ([]byte, error) {
		n := int(meta.blockLen[i])
		if cap(r.raw) < n {
			r.raw = make([]byte, n)
		}
		raw := r.raw[:n]
		if err := readAt(ra, raw, int64(meta.blockOff[i])); err != nil {
			return nil, err
		}
		return raw, nil
	})
	return r, nil
}
