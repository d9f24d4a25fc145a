package trace

import (
	"math"

	"repro/internal/mem"
)

// Packed is an in-memory trace at 16 bytes a record, half a Record's 32:
// the address, a 32-bit PC, the 16-bit Seq step from the previous
// record, the CPU and the kind. An absolute Seq checkpoint every
// packedCheckpoint records lets a source seek without summing steps from
// the start of the trace. The engine's trace memo holds its traces in
// this form; PackedSource replays them.
//
// A trace packs only when every PC is below 2^32 and every Seq step
// within a checkpoint interval is in [0, 2^16): the generators stamp
// PCs near 0x400000 and advance Seq by a few instructions a record.
type Packed struct {
	recs []packedRecord
	// seqs[j] is the Seq of record j*packedCheckpoint, whose own step
	// is stored as zero.
	seqs []uint64
}

// packedRecord is one record of a Packed trace.
type packedRecord struct {
	addr uint64
	pc   uint32
	step uint16
	cpu  uint8
	kind Kind
}

const (
	// packedCheckpoint is the record interval between Seq checkpoints:
	// a power of two, so a seek sums at most packedCheckpoint-1 steps.
	packedCheckpoint = 4096
	// packedBatch bounds the records Pack reads, and NextView unpacks,
	// in one call: one drain batch of the simulator.
	packedBatch = 4096
)

// PackedBytes is the memory a packed trace of n records occupies, the
// bytes a caller reserves before Pack fills it.
func PackedBytes(n uint64) int64 {
	return int64(n)*16 + int64((n+packedCheckpoint-1)/packedCheckpoint)*8
}

// Pack reads up to n records from src, one batch at a time, into a
// packed trace. It reports false, having consumed part of src, when a
// record does not pack (see Packed).
func Pack(src Source, n uint64) (*Packed, bool) { return PackInto(nil, src, n) }

// PackInto is Pack into p's arrays when they have room for n records,
// else (or when p is nil) into new ones, and returns the trace it
// filled. p's earlier contents are lost, so no source may still replay
// it.
func PackInto(p *Packed, src Source, n uint64) (*Packed, bool) {
	if p == nil || uint64(cap(p.recs)) < n {
		p = &Packed{
			recs: make([]packedRecord, n),
			seqs: make([]uint64, 0, (n+packedCheckpoint-1)/packedCheckpoint),
		}
	}
	p.recs, p.seqs = p.recs[:n], p.seqs[:0]
	bs := Batched(src)
	buf := make([]Record, min(n, packedBatch))
	var i, prev uint64
	for i < n {
		got := bs.NextBatch(buf[:min(uint64(len(buf)), n-i)])
		if got == 0 {
			break
		}
		for k := range buf[:got] {
			r := &buf[k]
			step := r.Seq - prev
			if i%packedCheckpoint == 0 {
				p.seqs = append(p.seqs, r.Seq)
				step = 0
			}
			if r.PC > math.MaxUint32 || step > math.MaxUint16 {
				return nil, false
			}
			pr := &p.recs[i]
			pr.addr, pr.pc, pr.step, pr.cpu, pr.kind = uint64(r.Addr), uint32(r.PC), uint16(step), r.CPU, r.Kind
			prev = r.Seq
			i++
		}
	}
	p.recs = p.recs[:i]
	return p, true
}

// NewSource returns a replay of the trace from its first record.
func (p *Packed) NewSource() *PackedSource { return &PackedSource{p: p} }

// PackedSource replays a Packed trace. It implements Source, BatchSource,
// ViewSource and Seeker; NextView unpacks into a buffer of at most
// packedBatch records owned by the source.
type PackedSource struct {
	p   *Packed
	i   int    // next record
	seq uint64 // Seq of record i-1; unused when i is a checkpoint
	buf []Record
}

var (
	_ BatchSource = (*PackedSource)(nil)
	_ ViewSource  = (*PackedSource)(nil)
	_ Seeker      = (*PackedSource)(nil)
)

// unpack writes the next records into dst and returns how many it wrote.
// Fields are stored in place: building a Record value and copying it
// costs three times as much per record.
func (s *PackedSource) unpack(dst []Record) int {
	n := min(len(dst), len(s.p.recs)-s.i)
	for done := 0; done < n; {
		i := s.i
		if i%packedCheckpoint == 0 {
			// A checkpoint record's step is zero.
			s.seq = s.p.seqs[i/packedCheckpoint]
		}
		m := min(n-done, packedCheckpoint-i%packedCheckpoint)
		seq := s.seq
		out, recs := dst[done:done+m], s.p.recs[i:i+m]
		for k := range recs {
			pr := &recs[k]
			seq += uint64(pr.step)
			d := &out[k]
			d.Seq = seq
			d.PC = uint64(pr.pc)
			d.Addr = mem.Addr(pr.addr)
			d.CPU = pr.cpu
			d.Kind = pr.kind
		}
		s.seq = seq
		s.i += m
		done += m
	}
	return n
}

// Next implements Source.
func (s *PackedSource) Next() (Record, bool) {
	var one [1]Record
	if s.unpack(one[:]) == 0 {
		return Record{}, false
	}
	return one[0], true
}

// NextBatch implements BatchSource, unpacking straight into dst.
func (s *PackedSource) NextBatch(dst []Record) int { return s.unpack(dst) }

// NextView implements ViewSource: up to max records (at most
// packedBatch), unpacked into the source's buffer and valid until the
// next call.
func (s *PackedSource) NextView(max int) []Record {
	if s.buf == nil {
		s.buf = make([]Record, packedBatch)
	}
	return s.buf[:s.unpack(s.buf[:min(max, packedBatch)])]
}

// Seek implements Seeker: it repositions the source at record index
// rec, clamped to the end of the trace, summing at most
// packedCheckpoint-1 steps from the nearest checkpoint.
func (s *PackedSource) Seek(rec uint64) error {
	rec = min(rec, uint64(len(s.p.recs)))
	s.i = int(rec)
	if rec%packedCheckpoint != 0 {
		start := rec / packedCheckpoint * packedCheckpoint
		seq := s.p.seqs[start/packedCheckpoint]
		for _, pr := range s.p.recs[start+1 : rec] {
			seq += uint64(pr.step)
		}
		s.seq = seq
	}
	return nil
}

// Records implements Seeker: the total record count.
func (s *PackedSource) Records() uint64 { return uint64(len(s.p.recs)) }
