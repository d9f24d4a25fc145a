package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func mkRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq:  uint64(i * 3),
			PC:   rng.Uint64(),
			Addr: mem.Addr(rng.Uint64()),
			CPU:  uint8(rng.Intn(16)),
			Kind: Kind(rng.Intn(2)),
		}
	}
	return recs
}

func TestKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Seq: 1, PC: 0x40, Addr: 0x1000, CPU: 2, Kind: Write}
	if r.String() == "" || !r.IsWrite() {
		t.Error("Record helpers broken")
	}
	if (Record{Kind: Read}).IsWrite() {
		t.Error("read reported as write")
	}
}

func TestSliceSource(t *testing.T) {
	recs := mkRecords(5, 1)
	src := NewSliceSource(recs)
	got := Collect(src, 0)
	if len(got) != 5 {
		t.Fatalf("Collect = %d records", len(got))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source yielded a record")
	}
}

func TestCollectMax(t *testing.T) {
	got := Collect(NewSliceSource(mkRecords(10, 2)), 4)
	if len(got) != 4 {
		t.Fatalf("Collect(max=4) = %d", len(got))
	}
}

func TestLimit(t *testing.T) {
	src := Limit(NewSliceSource(mkRecords(10, 3)), 3)
	if got := len(Collect(src, 0)); got != 3 {
		t.Fatalf("Limit(3) yielded %d", got)
	}
	src = Limit(NewSliceSource(mkRecords(2, 3)), 5)
	if got := len(Collect(src, 0)); got != 2 {
		t.Fatalf("Limit beyond end yielded %d", got)
	}
}

func TestSkip(t *testing.T) {
	src := NewSliceSource(mkRecords(10, 4))
	if n := Skip(src, 6); n != 6 {
		t.Fatalf("Skip = %d", n)
	}
	if got := len(Collect(src, 0)); got != 4 {
		t.Fatalf("records after skip = %d", got)
	}
	src = NewSliceSource(mkRecords(3, 4))
	if n := Skip(src, 10); n != 3 {
		t.Fatalf("Skip past end = %d", n)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := mkRecords(1000, 7)
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
	if w.Count() != 1000 {
		t.Fatalf("Count = %d", w.Count())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := Collect(r, 0)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], recs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seq, pc, addr uint64, cpu uint8, kind bool) bool {
		rec := Record{Seq: seq, PC: pc, Addr: mem.Addr(addr), CPU: cpu, Kind: Read}
		if kind {
			rec.Kind = Write
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		if err := w.Write(rec); err != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, ok := r.Next()
		return ok && got == rec && r.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("JUNKJUNKJUNKJUNKJUNK"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// Correct magic, wrong version.
	raw := append([]byte("SMST"), make([]byte, 12)...)
	raw[4] = 99
	if _, err := NewReader(bytes.NewReader(raw)); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Record{Seq: 1}); err != nil || w.Flush() != nil {
		t.Fatal("write failed")
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
}

// validTrace returns an encoded trace holding n records.
func validTrace(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mkRecords(n, 11) {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderTruncatedFileWrapsError covers files cut off inside the
// header: the constructor must return a wrapped io error, never panic.
func TestReaderTruncatedFileWrapsError(t *testing.T) {
	full := validTrace(t, 3)
	for _, cut := range []int{1, 3, 4, 10, 15} { // all inside the 16-byte header
		_, err := NewReader(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("cut at %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A completely empty file surfaces as wrapped io.EOF.
	if _, err := NewReader(bytes.NewReader(nil)); !errors.Is(err, io.EOF) {
		t.Errorf("empty file: error %v does not wrap io.EOF", err)
	}
}

// TestReaderBadMagicAndVersionWrapErrBadFormat pins the sentinel: callers
// distinguish "not a trace file" from I/O failures via ErrBadFormat.
func TestReaderBadMagicAndVersionWrapErrBadFormat(t *testing.T) {
	badMagic := append([]byte("JUNK"), make([]byte, 12)...)
	if _, err := NewReader(bytes.NewReader(badMagic)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: error %v does not wrap ErrBadFormat", err)
	}

	badVersion := validTrace(t, 0)
	badVersion[4] = 99
	if _, err := NewReader(bytes.NewReader(badVersion)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad version: error %v does not wrap ErrBadFormat", err)
	}
}

// TestReaderShortRecordWrapsError covers a stream that ends mid-record:
// Next reports exhaustion and Err carries a wrapped io.ErrUnexpectedEOF.
func TestReaderShortRecordWrapsError(t *testing.T) {
	full := validTrace(t, 2)
	for _, drop := range []int{1, recSize / 2, recSize - 1} {
		r, err := NewReader(bytes.NewReader(full[:len(full)-drop]))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Next(); !ok {
			t.Fatalf("drop %d: first full record not decoded", drop)
		}
		if _, ok := r.Next(); ok {
			t.Fatalf("drop %d: partial record decoded", drop)
		}
		if err := r.Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("drop %d: error %v does not wrap io.ErrUnexpectedEOF", drop, err)
		}
		// The error latches: further Next calls stay exhausted.
		if _, ok := r.Next(); ok {
			t.Errorf("drop %d: Next yielded after error", drop)
		}
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := Func(func() (Record, bool) {
		if n >= 2 {
			return Record{}, false
		}
		n++
		return Record{Seq: uint64(n)}, true
	})
	if got := len(Collect(src, 0)); got != 2 {
		t.Fatalf("Func source yielded %d", got)
	}
}

func TestBatchedAdapterAndSources(t *testing.T) {
	recs := make([]Record, 1000)
	for i := range recs {
		recs[i] = Record{Seq: uint64(i + 1), PC: uint64(i) * 4, Addr: mem.Addr(i * 64), CPU: uint8(i % 3)}
	}

	// A Source that batches natively is returned unchanged.
	ss := NewSliceSource(recs)
	if Batched(ss) != BatchSource(ss) {
		t.Fatal("Batched wrapped a native BatchSource")
	}

	// The adapter over a scalar source yields the same stream, across
	// ragged batch sizes and interleaved Next calls.
	b := Batched(Func(NewSliceSource(recs).Next))
	var got []Record
	buf := make([]Record, 7)
	for i := 0; ; i++ {
		if i%5 == 4 {
			r, ok := b.Next()
			if !ok {
				break
			}
			got = append(got, r)
			continue
		}
		n := b.NextBatch(buf[:1+i%len(buf)])
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(recs) {
		t.Fatalf("adapter yielded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	// Limit batches and clamps.
	lim := Batched(Limit(NewSliceSource(recs), 10))
	n := lim.NextBatch(buf)
	n += lim.NextBatch(buf)
	if n != 10 || lim.NextBatch(buf) != 0 {
		t.Fatalf("Limit batch clamp: got %d records", n)
	}

	// SliceSource views alias the backing records and exhaust cleanly.
	vs := NewSliceSource(recs)
	view := vs.NextView(64)
	if len(view) != 64 || &view[0] != &recs[0] {
		t.Fatal("NextView did not alias the source records")
	}
	total := len(view)
	for {
		v := vs.NextView(450)
		if len(v) == 0 {
			break
		}
		total += len(v)
	}
	if total != len(recs) {
		t.Fatalf("views yielded %d records, want %d", total, len(recs))
	}
}

func TestReaderNextBatch(t *testing.T) {
	recs := make([]Record, 1500) // crosses the 512-record chunk boundary
	for i := range recs {
		recs[i] = Record{Seq: uint64(i), PC: uint64(i * 3), Addr: mem.Addr(i * 64), CPU: uint8(i % 4), Kind: Kind(i % 2)}
	}
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Record, 0, len(recs))
	dst := make([]Record, 700)
	// Interleave scalar and batched reads over the same stream.
	if r, ok := tr.Next(); ok {
		got = append(got, r)
	}
	for {
		n := tr.NextBatch(dst)
		if n == 0 {
			break
		}
		got = append(got, dst[:n]...)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("clean stream reported error: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}

	// A stream truncated mid-record decodes the whole records and sets Err.
	tr2, err := NewReader(bytes.NewReader(buf.Bytes()[:buf.Len()-13]))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		k := tr2.NextBatch(dst)
		if k == 0 {
			break
		}
		n += k
	}
	if n != len(recs)-1 {
		t.Fatalf("truncated stream yielded %d complete records, want %d", n, len(recs)-1)
	}
	if !errors.Is(tr2.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("truncated stream error = %v, want io.ErrUnexpectedEOF", tr2.Err())
	}
}
