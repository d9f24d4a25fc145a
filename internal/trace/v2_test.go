package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mem"
)

// writeV2 encodes recs into a v2 byte slice with the given header.
func writeV2(t *testing.T, hdr Header, recs []Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewV2Writer(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(recs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wildRecords exercises the encoder's corner cases: huge deltas in both
// directions, repeated values, full uint64 range.
func wildRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq:  rng.Uint64(),
			PC:   rng.Uint64() >> uint(rng.Intn(64)),
			Addr: mem.Addr(rng.Uint64() >> uint(rng.Intn(64))),
			CPU:  uint8(rng.Intn(256)),
			Kind: Kind(rng.Intn(2)),
		}
	}
	return recs
}

func TestV2RoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultBlockRecords, DefaultBlockRecords + 1, 3*DefaultBlockRecords + 17} {
		recs := wildRecords(n, int64(n)+1)
		hdr := Header{CPUs: 256, Geometry: mem.DefaultGeometry(), Workload: "oltp-db2",
			WorkloadHash: strings.Repeat("ab", 32)}
		data := writeV2(t, hdr, recs)

		r, err := NewV2Reader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := Collect(r, 0)
		if r.Err() != nil {
			t.Fatalf("n=%d: %v", n, r.Err())
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d records", n, len(got))
		}
		for i := range got {
			if got[i] != recs[i] {
				t.Fatalf("n=%d: record %d = %+v, want %+v", n, i, got[i], recs[i])
			}
		}
		h := r.Header()
		if h.Records != uint64(n) || h.CPUs != 256 || h.Workload != "oltp-db2" ||
			h.WorkloadHash != strings.Repeat("ab", 32) || h.Geometry != mem.DefaultGeometry() {
			t.Fatalf("n=%d: header round trip: %+v", n, h)
		}
	}
}

func TestV2SmallBlocksAndInterleavedReads(t *testing.T) {
	recs := wildRecords(1000, 3)
	data := writeV2(t, Header{BlockRecords: 64}, recs)
	r, err := NewV2Reader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Blocks != (1000+63)/64 {
		t.Fatalf("blocks = %d", r.Header().Blocks)
	}
	var got []Record
	buf := make([]Record, 37)
	for i := 0; ; i++ {
		switch i % 3 {
		case 0:
			rec, ok := r.Next()
			if !ok {
				goto done
			}
			got = append(got, rec)
		case 1:
			n := r.NextBatch(buf[:1+i%len(buf)])
			if n == 0 {
				goto done
			}
			got = append(got, buf[:n]...)
		case 2:
			v := r.NextView(29)
			if len(v) == 0 {
				goto done
			}
			got = append(got, v...)
		}
	}
done:
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestV2Seek(t *testing.T) {
	recs := wildRecords(500, 9)
	data := writeV2(t, Header{BlockRecords: 64}, recs)
	r, err := NewV2Reader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	for _, pos := range []uint64{0, 1, 63, 64, 65, 250, 499, 500, 1000} {
		if err := r.Seek(pos); err != nil {
			t.Fatalf("Seek(%d): %v", pos, err)
		}
		rec, ok := r.Next()
		if pos >= uint64(len(recs)) {
			if ok {
				t.Fatalf("Seek(%d) past end yielded a record", pos)
			}
			continue
		}
		if !ok || rec != recs[pos] {
			t.Fatalf("Seek(%d): got %+v ok=%v, want %+v", pos, rec, ok, recs[pos])
		}
	}
	// Seek back to 0 replays the whole stream.
	if err := r.Seek(0); err != nil {
		t.Fatal(err)
	}
	if got := Collect(r, 0); len(got) != len(recs) {
		t.Fatalf("after Seek(0): %d records", len(got))
	}
}

func TestV2HeaderPatchThroughFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.smst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewV2Writer(f, Header{Workload: "x"})
	if err != nil {
		t.Fatal(err)
	}
	recs := wildRecords(100, 4)
	if err := w.WriteBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// The header's record count was patched in place (os.File is an
	// io.WriterAt), so even the fixed header is self-describing.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := raw[24]; got != 100 {
		t.Fatalf("header record count byte = %d, want 100", got)
	}

	info, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 2 || info.Records != 100 || info.Workload != "x" || info.Bytes != int64(len(raw)) {
		t.Fatalf("Stat = %+v", info)
	}
}

func TestV2FileMappedReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.smst")
	recs := wildRecords(5000, 8)
	raw := writeV2(t, Header{BlockRecords: 512, CPUs: 256}, recs)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Info().Records != 5000 || f.Info().Version != 2 {
		t.Fatalf("Info = %+v", f.Info())
	}

	// Two concurrent sources over one mapping see independent streams.
	a, b := f.NewSource(), f.NewSource()
	ga := Collect(a, 0)
	gb := Collect(b, 0)
	if len(ga) != len(recs) || len(gb) != len(recs) {
		t.Fatalf("sources yielded %d/%d records", len(ga), len(gb))
	}
	for i := range recs {
		if ga[i] != recs[i] || gb[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}

	// OpenMapped owns its mapping; Seek-rewind replays without realloc.
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	n := 0
	for {
		v := m.NextView(600)
		if len(v) == 0 {
			break
		}
		n += len(v)
	}
	m.Reset()
	for {
		v := m.NextView(600)
		if len(v) == 0 {
			break
		}
		n += len(v)
	}
	if n != 2*len(recs) {
		t.Fatalf("two mapped replays yielded %d records, want %d", n, 2*len(recs))
	}
}

func TestV1FileReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t1.smst")
	recs := mkRecords(700, 12)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.Records != 0 {
		t.Fatalf("v1 Stat = %+v", info)
	}

	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Info().Records != 700 {
		t.Fatalf("v1 OpenFile records = %d", f.Info().Records)
	}
	got := Collect(f.NewSource(), 0)
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}

	if _, err := OpenMapped(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("OpenMapped on v1 = %v, want ErrBadFormat", err)
	}
}

func TestV2CorruptionWrapsErrors(t *testing.T) {
	recs := wildRecords(300, 5)
	data := writeV2(t, Header{BlockRecords: 64, Workload: "w"}, recs)

	open := func(b []byte) (*V2Reader, error) {
		return NewV2Reader(bytes.NewReader(b), int64(len(b)))
	}

	// Truncations anywhere must yield wrapped ErrBadFormat or
	// io.ErrUnexpectedEOF from the constructor (the tail goes missing).
	for _, cut := range []int{0, 1, 5, v2HeaderMin - 1, v2HeaderMin + 10, len(data) / 2, len(data) - 1, len(data) - v2TailSize} {
		_, err := open(data[:cut])
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("cut at %d: unwrapped error %v", cut, err)
		}
	}

	// Bad magic / version.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := open(bad); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad magic: %v", err)
	}
	bad = append([]byte(nil), data...)
	bad[4] = 7
	if _, err := open(bad); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad version: %v", err)
	}

	// Corrupt index (CRC catches it).
	bad = append([]byte(nil), data...)
	bad[len(bad)-v2TailSize-3] ^= 0xff
	if _, err := open(bad); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt index: %v", err)
	}

	// Corrupt block body: constructor succeeds (the index is intact),
	// decoding reports a wrapped error and never panics.
	bad = append([]byte(nil), data...)
	bad[v2HeaderMin+len("w")+9] ^= 0xff
	r, err := open(bad)
	if err == nil {
		Collect(r, 0)
		err = r.Err()
	}
	if err == nil {
		// Some column-byte flips decode to different records without
		// tripping validation; corrupt a block's count field instead,
		// which is always caught against the index.
		bad = append([]byte(nil), data...)
		bad[v2HeaderMin+len("w")] ^= 0xff
		r, err = open(bad)
		if err == nil {
			Collect(r, 0)
			err = r.Err()
		}
	}
	if err == nil || (!errors.Is(err, ErrBadFormat) && !errors.Is(err, io.ErrUnexpectedEOF)) {
		t.Fatalf("corrupt block: %v", err)
	}
}

// TestV2RecordCPUsBoundedByHeader: a header CPU count binds every
// record. The writer refuses a record naming a CPU at or past it, and a
// file whose CPU column does anyway (here, a header patched down after
// writing) decodes to a latched ErrBadFormat, never to a record that
// would index past a consumer's per-CPU state.
func TestV2RecordCPUsBoundedByHeader(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Seq: uint64(i), PC: 0x400000, Addr: 1 << 30, CPU: uint8(i % 3)}
	}
	var buf bytes.Buffer
	w, err := NewV2Writer(&buf, Header{CPUs: 2, BlockRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	err = w.WriteBatch(recs)
	if err == nil {
		err = w.Close()
	}
	if err == nil || !strings.Contains(err.Error(), "CPU 2 of a 2-CPU trace") {
		t.Fatalf("writer accepted CPU 2 under a 2-CPU header: %v", err)
	}

	data := writeV2(t, Header{CPUs: 3, BlockRecords: 16}, recs)
	data[8] = 2 // header CPU count, [8:12] little-endian
	r, err := NewV2Reader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 0)
	if err := r.Err(); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("decoding CPU 2 under a 2-CPU header: err = %v, want ErrBadFormat", err)
	}
	for _, rec := range got {
		if rec.CPU >= 2 {
			t.Fatalf("decoder delivered %v", rec)
		}
	}
}

func TestV2WriterRejectsBadHash(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewV2Writer(&buf, Header{WorkloadHash: "zz"}); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad hash accepted: %v", err)
	}
}

func TestV2GeneratorCompression(t *testing.T) {
	// Generator-shaped traces (small monotone seq deltas, repeated PCs,
	// clustered addresses) must compress well below the 26-byte fixed
	// v1 encoding; this pins the format's reason to exist.
	recs := make([]Record, 20000)
	var seq uint64
	for i := range recs {
		seq += 3
		recs[i] = Record{
			Seq:  seq,
			PC:   0x400000 + uint64(i%32)*4,
			Addr: mem.Addr(1<<30 + uint64(i%512)*64),
			CPU:  uint8(i % 4),
			Kind: Kind(i % 7 / 6),
		}
	}
	data := writeV2(t, Header{}, recs)
	perRecord := float64(len(data)) / float64(len(recs))
	if perRecord > 13 {
		t.Fatalf("v2 encodes %0.1f bytes/record, want well under the 26-byte v1 encoding", perRecord)
	}
}
