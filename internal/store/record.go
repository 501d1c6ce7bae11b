package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Record framing, shared by every append-only file in the store (block
// segments and the KV index log). Each record is:
//
//	u32 LE payload length | u32 LE CRC-32C (Castagnoli) of payload | payload
//
// A record is committed once it is fully on disk; the torn-tail rule (see
// FORMATS.md) says any scan that hits a header extending past EOF, a length
// above MaxRecordBytes, or a CRC mismatch stops there and truncates the
// file back to the last committed boundary. Committed records are therefore
// never lost to a crash mid-append — only the uncommitted tail is.
const (
	recordHeaderBytes = 8

	// MaxRecordBytes bounds a single record's payload. It is a framing
	// sanity limit, not a tuning knob: a scanned length above it is treated
	// as tail corruption. Packed boundary blocks run a few hundred KiB;
	// evaluation documents are tiny.
	MaxRecordBytes = 1 << 28
)

// castagnoli is the CRC-32C table used for every record checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TornWriteFunc simulates a crash mid-append, for recovery testing: it is
// consulted before each record append with the target file's base name, the
// append offset, and the full framed record (header + payload). Returning
// n >= 0 writes only the first n bytes and fails the append with
// ErrSimulatedCrash; returning a negative value lets the append through
// whole. The hook makes torn-tail recovery drivable from the deterministic
// chaos harness (see fault.ServicePlan).
type TornWriteFunc func(file string, off int64, rec []byte) int

// ErrSimulatedCrash is returned by appends cut short by a TornWriteFunc.
// After it, the owning store is wounded (ErrWounded) until reopened —
// exactly like a real crash, minus the process exit.
var ErrSimulatedCrash = fmt.Errorf("store: simulated crash (torn write injected)")

// ErrWounded is returned by mutating operations after a write error left an
// append-only file in an unknown state. Reads stay available; recovery is
// re-running Open, which truncates the torn tail.
var ErrWounded = fmt.Errorf("store: wounded by an earlier write failure; reopen to recover")

// appender owns one append-only file: buffered writes, explicit sync,
// sticky failure, and the torn-write injection point.
type appender struct {
	f    *os.File
	w    *bufio.Writer
	name string // base name, for TornWriteFunc and errors
	off  int64  // committed + buffered length
	torn TornWriteFunc
	err  error // sticky: any failed append wounds the file
}

// newAppender opens (creating if needed) path for appending at offset off —
// the clean length established by a prior scan; the file is truncated there
// first so a recovered torn tail is physically removed.
func newAppender(path string, off int64, torn TornWriteFunc) (*appender, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &appender{
		f:    f,
		w:    bufio.NewWriterSize(f, 1<<16),
		name: pathBase(path),
		off:  off,
		torn: torn,
	}, nil
}

// pathBase is filepath.Base without the import (paths here are built with
// filepath.Join, so the separator is the OS one).
func pathBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' || path[i] == '\\' {
			return path[i+1:]
		}
	}
	return path
}

// append frames payload and appends the record, returning the record's
// starting offset. The record is buffered; it is committed only after a
// successful sync.
func (a *appender) append(payload []byte) (int64, error) {
	if a.err != nil {
		return 0, ErrWounded
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("store: record payload %d bytes exceeds MaxRecordBytes", len(payload))
	}
	var hdr [recordHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	start := a.off
	if a.torn != nil {
		rec := make([]byte, 0, len(hdr)+len(payload))
		rec = append(rec, hdr[:]...)
		rec = append(rec, payload...)
		if n := a.torn(a.name, start, rec); n >= 0 {
			// Simulated crash: flush the torn prefix to disk so a reopen
			// sees exactly what a real crash would have left behind.
			if n > len(rec) {
				n = len(rec)
			}
			a.w.Write(rec[:n])
			a.w.Flush()
			a.f.Sync()
			a.err = ErrSimulatedCrash
			return 0, ErrSimulatedCrash
		}
	}
	if _, err := a.w.Write(hdr[:]); err != nil {
		a.err = err
		return 0, err
	}
	if _, err := a.w.Write(payload); err != nil {
		a.err = err
		return 0, err
	}
	a.off += int64(recordHeaderBytes + len(payload))
	return start, nil
}

// sync drains the buffer and fsyncs — the commit point for every record
// appended since the last sync.
func (a *appender) sync() error {
	if a.err != nil {
		return ErrWounded
	}
	if err := a.w.Flush(); err != nil {
		a.err = err
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.err = err
		return err
	}
	return nil
}

// flush drains the buffer without fsync, making buffered records visible to
// preads of the same file (not yet crash-durable).
func (a *appender) flush() error {
	if a.err != nil {
		return ErrWounded
	}
	if err := a.w.Flush(); err != nil {
		a.err = err
		return err
	}
	return nil
}

// close syncs (best effort if already wounded) and closes the file.
func (a *appender) close() error {
	syncErr := a.sync()
	if err := a.f.Close(); err != nil && syncErr == nil {
		return err
	}
	if syncErr == ErrWounded || syncErr == ErrSimulatedCrash {
		return nil // wounded files are recovered at next open, not at close
	}
	return syncErr
}

// scanRecords reads records from r starting at byte offset start (the first
// byte after any file header), calling fn with each committed record's
// starting offset and payload. It returns the clean length: the offset of
// the first byte past the last committed record. A torn tail — truncated
// header, impossible length, short payload, or CRC mismatch — ends the scan
// without error; genuine I/O errors are returned.
func scanRecords(r io.ReaderAt, size, start int64, fn func(off int64, payload []byte) error) (int64, error) {
	off := start
	var hdr [recordHeaderBytes]byte
	for {
		if off+recordHeaderBytes > size {
			return off, nil // torn or absent header
		}
		if _, err := r.ReadAt(hdr[:], off); err != nil {
			return off, fmt.Errorf("store: reading record header at %d: %w", off, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n > MaxRecordBytes || off+recordHeaderBytes+n > size {
			return off, nil // impossible length or payload past EOF: torn tail
		}
		payload := make([]byte, n)
		if _, err := r.ReadAt(payload, off+recordHeaderBytes); err != nil {
			return off, fmt.Errorf("store: reading record payload at %d: %w", off, err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			return off, nil // checksum mismatch: torn or corrupt tail
		}
		if err := fn(off, payload); err != nil {
			return off, err
		}
		off += recordHeaderBytes + n
	}
}
