package trace

// Trace files on disk: format sniffing, O(1) stat, and zero-copy replay.
//
// OpenFile maps a v2 file into memory (falling back to a plain read when
// the platform cannot mmap) and serves any number of independent
// MappedSource streams over the shared mapping; v1 files are decoded into
// memory once and replayed as slice sources. Stat reads only the header
// (and, for v2, the tail), so inspecting a multi-gigabyte trace costs two
// small reads.

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"repro/internal/mem"
)

// FileInfo describes a trace file without decoding its records.
type FileInfo struct {
	// Path is the file's path as opened.
	Path string `json:"path"`
	// Bytes is the file size.
	Bytes int64 `json:"bytes"`
	// Version is the trace format version (1 or 2).
	Version int `json:"version"`
	// Records is the total record count. Version 1 headers do not carry
	// it, so it is 0 for v1 files until the records are decoded.
	Records uint64 `json:"records"`
	// Blocks is the v2 block count (0 for v1).
	Blocks int `json:"blocks,omitempty"`
	// CPUs is the v2 header CPU count (0 for v1/unknown).
	CPUs int `json:"cpus,omitempty"`
	// Geometry is the v2 header geometry (zero for v1/unspecified).
	Geometry mem.Geometry `json:"geometry,omitzero"`
	// Workload is the v2 header source-workload name ("" for v1/unknown).
	Workload string `json:"workload,omitempty"`
	// WorkloadHash is the v2 header canonical workload hash.
	WorkloadHash string `json:"workload_hash,omitempty"`
}

// sniffVersion reads the magic and version of the trace file at ra.
func sniffVersion(ra io.ReaderAt) (int, error) {
	var hdr [6]byte
	if err := readAt(ra, hdr[:], 0); err != nil {
		return 0, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[0:4]) != magic {
		return 0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, hdr[0:4])
	}
	v := int(binary.LittleEndian.Uint16(hdr[4:6]))
	if v != version && v != Version2 {
		return 0, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	return v, nil
}

// Stat describes the trace file at path from its header (and, for v2,
// its tail and index) without decoding any records.
func Stat(path string) (FileInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return FileInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return FileInfo{}, err
	}
	info := FileInfo{Path: path, Bytes: st.Size()}
	info.Version, err = sniffVersion(f)
	if err != nil {
		return FileInfo{}, err
	}
	if info.Version == version {
		return info, nil // v1: records are only countable by scanning
	}
	meta, err := parseV2(f, st.Size())
	if err != nil {
		return FileInfo{}, err
	}
	fillInfo(&info, meta.hdr)
	return info, nil
}

func fillInfo(info *FileInfo, hdr Header) {
	info.Records = hdr.Records
	info.Blocks = hdr.Blocks
	info.CPUs = hdr.CPUs
	info.Geometry = hdr.Geometry
	info.Workload = hdr.Workload
	info.WorkloadHash = hdr.WorkloadHash
}

// File is an opened trace file ready for repeated replay. A v2 file is
// memory-mapped (read-only) and each NewSource decodes blocks from the
// shared mapping into its own reused buffer; a v1 file is decoded into
// memory once at open. Sources must not be used after the File is
// closed.
type File struct {
	info FileInfo
	// v2 state: the raw mapping and its parsed metadata.
	data   []byte
	meta   *v2meta
	unmap  func() error
	closed bool
	// v1 state: the decoded records.
	recs []Record
}

// OpenFile opens the trace file at path, sniffing v1 vs v2.
func OpenFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	v, err := sniffVersion(f)
	if err != nil {
		return nil, err
	}
	out := &File{info: FileInfo{Path: path, Bytes: st.Size(), Version: v}}

	if v == version {
		// v1 is a legacy streaming format with no index: decode it fully
		// so replay still costs no I/O. This holds the whole trace in
		// memory — convert large v1 captures to v2 (smstrace convert)
		// for mmap replay, and use OpenStream for one-shot scans.
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		r, err := NewReader(f)
		if err != nil {
			return nil, err
		}
		out.recs = Collect(r, 0)
		if err := r.Err(); err != nil {
			return nil, err
		}
		out.info.Records = uint64(len(out.recs))
		return out, nil
	}

	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("trace: mapping %s: %w", path, err)
	}
	meta, err := parseV2(sliceReaderAt(data), st.Size())
	if err != nil {
		_ = unmap()
		return nil, err
	}
	out.data, out.meta, out.unmap = data, meta, unmap
	fillInfo(&out.info, meta.hdr)
	return out, nil
}

// Info returns the file's metadata.
func (f *File) Info() FileInfo { return f.info }

// NewSource returns a fresh single-use stream over the file's records.
// Every returned source also implements BatchSource and ViewSource (its
// views alias buffers owned by the source — valid until the next call),
// and v2 sources additionally implement Seek(record) (see MappedSource).
func (f *File) NewSource() BatchSource {
	if f.meta == nil {
		return NewSliceSource(f.recs)
	}
	return newMappedSource(f.meta, f.data, nil)
}

// NewOwnedSource is NewSource for a file opened for a single replay: the
// returned stream takes ownership of f, and closing it (io.Closer, a v2
// *MappedSource) releases the mapping. A v1 file holds no mapping, so
// its stream needs no close.
func (f *File) NewOwnedSource() BatchSource {
	if f.meta == nil {
		return NewSliceSource(f.recs)
	}
	return newMappedSource(f.meta, f.data, f)
}

// Close releases the mapping. Sources created by NewSource must not be
// used afterwards.
func (f *File) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.data, f.meta, f.recs = nil, nil, nil
	if f.unmap != nil {
		return f.unmap()
	}
	return nil
}

// OpenStream opens the trace file at path as one single-use stream: v2
// files are mmap'd (the source is a *MappedSource, so it also seeks),
// v1 files decode incrementally in O(1) memory — unlike OpenFile, which
// materializes v1 records for repeatable replay. It is what the
// streaming tools (smstrace stat/dump/slice/convert) use, so inspecting
// or converting an arbitrarily large legacy file never loads it whole.
// Close the returned closer when done with the source.
func OpenStream(path string) (BatchSource, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	v, err := sniffVersion(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if v == version {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		r, err := NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		return r, f, nil
	}
	f.Close()
	m, err := OpenMapped(path)
	if err != nil {
		return nil, nil, err
	}
	return m, m, nil
}

// sliceReaderAt adapts an in-memory byte slice to io.ReaderAt.
type sliceReaderAt []byte

func (s sliceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off > int64(len(s)) {
		return 0, io.EOF
	}
	n := copy(p, s[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// MappedSource replays a memory-mapped v2 trace file: NextBatch and
// NextView decode blocks straight from the mapping into one reused
// record buffer, so steady-state replay performs no allocations and no
// read syscalls. It implements Source, BatchSource and ViewSource, and
// repositions in O(1) block decodes via Seek.
//
// Ownership: views returned by NextView alias the source's decode buffer
// and are valid only until the next call on the same source; the mapping
// itself belongs to the owning File (or to this source when opened via
// OpenMapped) and must outlive every outstanding view.
type MappedSource struct {
	v2cursor
	owned *File // non-nil when OpenMapped owns the underlying File
}

var _ Seeker = (*MappedSource)(nil)

func newMappedSource(meta *v2meta, data []byte, owned *File) *MappedSource {
	m := &MappedSource{owned: owned}
	m.init(meta, func(i int) ([]byte, error) {
		off := meta.blockOff[i]
		return data[off : off+meta.blockLen[i]], nil
	})
	return m
}

// OpenMapped opens the v2 trace file at path as a self-contained mapped
// source (Close releases the mapping). For several concurrent replays of
// one file, use OpenFile once and NewSource per replay instead.
func OpenMapped(path string) (*MappedSource, error) {
	f, err := OpenFile(path)
	if err != nil {
		return nil, err
	}
	if f.meta == nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: %s is a v1 trace (convert it with smstrace convert)", ErrBadFormat, path)
	}
	return f.NewOwnedSource().(*MappedSource), nil
}

// Reset rewinds the source to the first record.
func (m *MappedSource) Reset() { _ = m.Seek(0) }

// Close releases the mapping when this source owns it (OpenMapped).
func (m *MappedSource) Close() error {
	if m.owned != nil {
		return m.owned.Close()
	}
	return nil
}
