package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Block segments: the content-addressed home of packed boundary blocks.
// Segment files live under <dir>/segments/ as seg-NNNNNN.blk, each a
// fileHeaderBytes header followed by framed records (see record.go). A
// block record's payload is:
//
//	sha256 [32]byte | u32 LE reference count | packed block bytes
//
// where the digest is SHA-256 of the packed block bytes — the block's
// content address. Identical blocks written twice store once (the second
// Put returns the existing location), which is what makes re-profiling the
// same workload tuple idempotent on disk.

const (
	// fileMagic opens every store file.
	fileMagic = "HMST"
	// fileVersion is the current on-disk format version (see FORMATS.md).
	fileVersion = 1
	// fileHeaderBytes is the fixed file-header size: magic, version, kind,
	// and ten reserved zero bytes.
	fileHeaderBytes = 16

	// kindSegment and kindKV distinguish store file roles in their headers.
	kindSegment = 'B'
	kindKV      = 'K'

	// blockRecordOverhead is the payload size of a block record before its
	// packed bytes: the content digest plus the reference count.
	blockRecordOverhead = sha256.Size + 4

	// DefaultMaxSegmentBytes rolls the active segment once it grows past
	// this many bytes. 64 MiB keeps any one mmap modest while holding
	// hundreds of packed 64K-ref blocks per segment.
	DefaultMaxSegmentBytes = 64 << 20
)

// BlockDigest is a packed block's content address: SHA-256 over its encoded
// bytes.
type BlockDigest [sha256.Size]byte

// String returns the digest as lowercase hex.
func (d BlockDigest) String() string { return fmt.Sprintf("%x", d[:]) }

// blockLoc locates one committed block inside a segment.
type blockLoc struct {
	seg  int   // segment number
	off  int64 // record start offset
	size int   // packed byte length
	refs int   // decoded reference count
}

// blockLog is the segment store: an index of committed blocks by digest,
// read-back via mmap (sealed segments) or pread (the active segment), and
// an appender on the active segment.
type blockLog struct {
	dir     string
	maxSeg  int64
	torn    TornWriteFunc
	noMmap  bool
	index   map[BlockDigest]blockLoc
	segs    []int // sorted segment numbers present on disk
	active  *appender
	actSeg  int
	readers map[int]*segReader

	// dedupHits counts Puts answered by an existing identical block.
	dedupHits uint64
	// tornBytes counts bytes truncated from segment tails at open.
	tornBytes int64
}

// segPath returns the path of segment n.
func (bl *blockLog) segPath(n int) string {
	return filepath.Join(bl.dir, fmt.Sprintf("seg-%06d.blk", n))
}

// openBlockLog scans <root>/segments, truncating torn tails and building
// the digest index, then opens the newest segment for appending.
func openBlockLog(root string, maxSeg int64, torn TornWriteFunc, noMmap bool) (*blockLog, error) {
	dir := filepath.Join(root, "segments")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	bl := &blockLog{
		dir:     dir,
		maxSeg:  maxSeg,
		torn:    torn,
		noMmap:  noMmap,
		index:   map[BlockDigest]blockLoc{},
		readers: map[int]*segReader{},
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%06d.blk", &n); err == nil {
			bl.segs = append(bl.segs, n)
		}
	}
	sort.Ints(bl.segs)

	var activeOff int64 = fileHeaderBytes
	bl.actSeg = 1
	for i, n := range bl.segs {
		clean, err := bl.scanSegment(n)
		if err != nil {
			return nil, err
		}
		if i == len(bl.segs)-1 {
			bl.actSeg, activeOff = n, clean
		}
	}
	if len(bl.segs) == 0 {
		bl.segs = []int{bl.actSeg}
		if err := writeFileHeader(bl.segPath(bl.actSeg), kindSegment); err != nil {
			return nil, err
		}
	}
	bl.active, err = newAppender(bl.segPath(bl.actSeg), activeOff, torn)
	if err != nil {
		return nil, err
	}
	return bl, nil
}

// scanSegment validates segment n's header, indexes its committed blocks,
// truncates any torn tail, and returns the clean length.
func (bl *blockLog) scanSegment(n int) (int64, error) {
	path := bl.segPath(n)
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	size, err := checkFileHeader(f, kindSegment)
	if err != nil {
		return 0, fmt.Errorf("store: segment %s: %w", pathBase(path), err)
	}
	if size < fileHeaderBytes {
		// Crash during file creation: no committed data. Rewrite a clean
		// header so the appender resumes from an intact file.
		f.Close()
		if err := writeFileHeader(path, kindSegment); err != nil {
			return 0, err
		}
		bl.tornBytes += size
		return fileHeaderBytes, nil
	}
	clean, err := scanRecords(f, size, fileHeaderBytes, func(off int64, payload []byte) error {
		if len(payload) < blockRecordOverhead {
			return fmt.Errorf("store: segment %s: block record at %d shorter than its fixed fields", pathBase(path), off)
		}
		var d BlockDigest
		copy(d[:], payload[:sha256.Size])
		refs := int(binary.LittleEndian.Uint32(payload[sha256.Size:]))
		data := payload[blockRecordOverhead:]
		if sha256.Sum256(data) != d {
			return fmt.Errorf("store: segment %s: block at %d fails its content digest", pathBase(path), off)
		}
		bl.index[d] = blockLoc{seg: n, off: off, size: len(data), refs: refs}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if clean < size {
		bl.tornBytes += size - clean
		if err := os.Truncate(path, clean); err != nil {
			return 0, err
		}
	}
	return clean, nil
}

// Put stores one packed block, returning its digest. Identical content is
// stored once; the second Put is an index hit, not an append.
func (bl *blockLog) Put(data []byte, refs int) (BlockDigest, error) {
	d := BlockDigest(sha256.Sum256(data))
	if _, ok := bl.index[d]; ok {
		bl.dedupHits++
		return d, nil
	}
	if bl.active.off > bl.maxSeg {
		if err := bl.roll(); err != nil {
			return BlockDigest{}, err
		}
	}
	payload := make([]byte, blockRecordOverhead+len(data))
	copy(payload, d[:])
	binary.LittleEndian.PutUint32(payload[sha256.Size:], uint32(refs))
	copy(payload[blockRecordOverhead:], data)
	off, err := bl.active.append(payload)
	if err != nil {
		return BlockDigest{}, err
	}
	bl.index[d] = blockLoc{seg: bl.actSeg, off: off, size: len(data), refs: refs}
	return d, nil
}

// roll seals the active segment (sync + close its appender) and opens the
// next one.
func (bl *blockLog) roll() error {
	if err := bl.active.close(); err != nil {
		return err
	}
	bl.actSeg++
	bl.segs = append(bl.segs, bl.actSeg)
	if err := writeFileHeader(bl.segPath(bl.actSeg), kindSegment); err != nil {
		return err
	}
	a, err := newAppender(bl.segPath(bl.actSeg), fileHeaderBytes, bl.torn)
	if err != nil {
		return err
	}
	bl.active = a
	return nil
}

// Get returns the packed bytes and reference count of the block addressed
// by d. Sealed segments hand back mmap'd slices (zero-copy; callers must
// treat them as read-only and not use them after Close); the active segment
// is flushed and pread.
func (bl *blockLog) Get(d BlockDigest) (data []byte, refs int, err error) {
	loc, ok := bl.index[d]
	if !ok {
		return nil, 0, fmt.Errorf("store: block %s not present", d)
	}
	if loc.seg == bl.actSeg {
		// Appender-owned segment: make buffered records visible, then copy
		// out via pread on the appender's handle (the file is still
		// growing; mmap would go stale).
		if err := bl.active.flush(); err != nil && err != ErrWounded {
			return nil, 0, err
		}
		buf := make([]byte, loc.size)
		if _, err := bl.active.f.ReadAt(buf, loc.off+recordHeaderBytes+blockRecordOverhead); err != nil {
			return nil, 0, err
		}
		return buf, loc.refs, nil
	}
	r, err := bl.reader(loc.seg)
	if err != nil {
		return nil, 0, err
	}
	data, err = r.slice(loc.off+recordHeaderBytes+blockRecordOverhead, loc.size)
	if err != nil {
		return nil, 0, err
	}
	return data, loc.refs, nil
}

// reader returns (opening lazily) the sealed-segment reader for segment n.
func (bl *blockLog) reader(n int) (*segReader, error) {
	if r, ok := bl.readers[n]; ok {
		return r, nil
	}
	r, err := openSegReader(bl.segPath(n), bl.noMmap)
	if err != nil {
		return nil, err
	}
	bl.readers[n] = r
	return r, nil
}

// Sync commits every buffered block append.
func (bl *blockLog) Sync() error { return bl.active.sync() }

// Close syncs and releases the appender and every mapped segment.
func (bl *blockLog) Close() error {
	err := bl.active.close()
	for _, r := range bl.readers {
		if cerr := r.close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	bl.readers = map[int]*segReader{}
	return err
}

// Blocks returns the number of distinct committed blocks.
func (bl *blockLog) Blocks() int { return len(bl.index) }

// writeFileHeader creates path (which must not hold committed data) with a
// fresh store file header of the given kind, synced to disk.
func writeFileHeader(path string, kind byte) error {
	var hdr [fileHeaderBytes]byte
	copy(hdr[:], fileMagic)
	hdr[4] = fileVersion
	hdr[5] = kind
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkFileHeader validates path's store header against the expected kind
// and returns the file size. A file shorter than a header is treated as
// empty-after-header (clean length fileHeaderBytes) by returning size as
// is; callers scanning from fileHeaderBytes will see no records.
func checkFileHeader(f *os.File, kind byte) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	var hdr [fileHeaderBytes]byte
	if st.Size() < fileHeaderBytes {
		return st.Size(), nil
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, err
	}
	if string(hdr[:4]) != fileMagic {
		return 0, fmt.Errorf("bad magic %q", hdr[:4])
	}
	if hdr[4] != fileVersion {
		return 0, fmt.Errorf("unsupported format version %d (this build reads version %d)", hdr[4], fileVersion)
	}
	if hdr[5] != kind {
		return 0, fmt.Errorf("wrong file kind %q (want %q)", hdr[5], kind)
	}
	return st.Size(), nil
}
