// Package store is the simulator's persistence layer: an on-disk,
// content-addressed, crash-safe store for packed boundary streams and
// evaluation results. It is what makes `memsimd -warm -store <dir>` restart
// in O(index) instead of O(replay): a workload profiled once is written
// through append-only segment files and read back block by block out of
// mmap'd segments, and finished evaluations live in a key-value index: one
// append-only log behind an in-memory key map, so a lookup is one map probe
// and a durable write is one fsync.
//
// Layout (normative spec in FORMATS.md):
//
//	<dir>/segments/seg-NNNNNN.blk   content-addressed packed blocks
//	<dir>/index/index.kv            KV log (manifests, documents)
//
// Every file is a 16-byte header followed by length-prefixed, CRC-32C
// checksummed records. Appends are buffered and committed by fsync; on
// open, each file is scanned and any torn tail — a record cut short by a
// crash mid-append — is truncated back to the last committed boundary, so
// a crash never corrupts committed data. The TornWrite option injects
// deterministic torn writes so that discipline stays testable under the
// fault package's chaos harness.
//
// Two keyspaces share the KV index: streams (packed boundary streams plus
// an opaque metadata document, written content-addressed with block-level
// dedup) and documents (small opaque values — serve's evaluation results).
// Stream writes order blocks before manifest: the manifest that names a
// set of block digests is only committed after those blocks are durable,
// so a readable manifest always resolves.
package store

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"hybridmem/internal/trace"
)

// ErrSealed marks every operation against a store quarantined by Seal: the
// instance was wounded, a reopened instance on the same directory has
// superseded it, and it exists only to keep previously handed-out mapped
// block slices valid.
var ErrSealed = errors.New("store: sealed after a wound; superseded by a reopened instance")

// Keyspace prefixes inside the KV index. Callers never see them; they keep
// stream manifests and documents from colliding on the same user key.
const (
	streamPrefix = "s:"
	docPrefix    = "d:"
)

// Options configures Open. The zero value is production defaults.
type Options struct {
	// MaxSegmentBytes rolls the active block segment past this size
	// (0 = DefaultMaxSegmentBytes).
	MaxSegmentBytes int64
	// NoMmap forces the pread read path even where mmap is available
	// (testing; the bytes served are identical).
	NoMmap bool
	// TornWrite injects simulated crashes mid-append (testing; see
	// TornWriteFunc). Nil writes normally.
	TornWrite TornWriteFunc
}

// Store is an open persistence directory. All methods are safe for
// concurrent use. Mapped block slices returned by GetStream remain valid
// until Close.
type Store struct {
	dir string

	mu     sync.Mutex
	blocks *blockLog
	kv     *kvIndex
	closed bool
	sealed bool
}

// Stats is a point-in-time summary of an open store, exported by memsimd's
// store_open run-log event and its memsimd_store_stats gauges on /metrics
// (one sample per JSON field name).
type Stats struct {
	// Streams and Docs count committed keys per keyspace.
	Streams int `json:"streams"`
	Docs    int `json:"docs"`
	// Blocks is the number of distinct content-addressed blocks; Segments
	// the number of segment files holding them.
	Blocks   int `json:"blocks"`
	Segments int `json:"segments"`
	// DedupBlocks counts block Puts answered by an existing identical
	// block instead of an append.
	DedupBlocks uint64 `json:"dedup_blocks"`
	// TornBytesRecovered counts bytes truncated from torn tails at open.
	TornBytesRecovered int64 `json:"torn_bytes_recovered"`
	// Probes counts KV lookups: every GetStream and GetDoc probes once.
	Probes uint64 `json:"probes"`
}

// streamManifest is the JSON value committed under a stream key: the
// ordered block list that reassembles the packed stream, plus the caller's
// opaque metadata document.
type streamManifest struct {
	Version int             `json:"v"`
	Refs    int             `json:"refs"`
	Blocks  []manifestBlock `json:"blocks"`
	Meta    json.RawMessage `json:"meta,omitempty"`
}

// manifestBlock names one block of a stream by content address.
type manifestBlock struct {
	SHA  string `json:"sha"`
	Refs int    `json:"refs"`
	Size int    `json:"size"`
}

// Open opens (creating if needed) the store rooted at dir, scanning every
// log, truncating torn tails, and rebuilding the block and key indexes —
// the O(index) startup cost warm restart pays instead of O(replay). An
// index left in the retired sharded layout is folded into the single log
// first (FORMATS.md, "Migrating the sharded index").
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blocks, err := openBlockLog(dir, opts.MaxSegmentBytes, opts.TornWrite, opts.NoMmap)
	if err != nil {
		return nil, err
	}
	kv, err := openKVIndex(dir, opts.TornWrite)
	if err != nil {
		blocks.Close()
		return nil, err
	}
	return &Store{dir: dir, blocks: blocks, kv: kv}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Seal permanently quarantines the store: every subsequent operation fails
// with ErrSealed, but — unlike Close — files and mappings stay open, so
// mapped block slices previously handed out by GetStream remain valid.
//
// This is the wounded-store recovery contract: when an append fails and
// the store reports ErrWounded, the serving layer seals the instance
// (guaranteeing it issues no further writes against the directory) and
// opens a fresh Store on the same path, which performs torn-tail recovery
// and becomes the directory's only writer. Restored profiles that still
// reference the sealed instance's mmap'd segments keep working; the sealed
// instance is finally released by Close (typically at process exit).
func (s *Store) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = true
}

// unusableLocked reports why the store can accept no operations (closed or
// sealed), or nil when it is usable. Callers hold s.mu.
func (s *Store) unusableLocked() error {
	if s.closed {
		return fmt.Errorf("store: use after Close")
	}
	if s.sealed {
		return ErrSealed
	}
	return nil
}

// PutStream persists a packed stream under key with an opaque metadata
// document (may be nil; must be valid JSON when present). Blocks are
// written content-addressed — re-putting an identical stream appends
// nothing — and made durable before the manifest commits, so a crash at
// any point leaves either the previous stream value or the new one, never
// a manifest naming missing blocks.
func (s *Store) PutStream(key string, p *trace.Packed, meta []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unusableLocked(); err != nil {
		return err
	}
	m := streamManifest{Version: fileVersion, Refs: p.Len(), Meta: meta}
	for i := 0; i < p.Blocks(); i++ {
		data, refs := p.EncodedBlock(i)
		d, err := s.blocks.Put(data, refs)
		if err != nil {
			return err
		}
		m.Blocks = append(m.Blocks, manifestBlock{SHA: d.String(), Refs: refs, Size: len(data)})
	}
	if err := s.blocks.Sync(); err != nil {
		return err
	}
	val, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if err := s.kv.Put(streamPrefix+key, val); err != nil {
		return err
	}
	return s.kv.Sync()
}

// GetStream reassembles the stream committed under key, or ok=false when
// no such stream exists (one index map probe). The returned
// Packed decodes directly out of mmap'd segment bytes where possible —
// no block is copied or decoded until a replay asks for it — and must be
// treated as read-only. An error (not a miss) is returned when a manifest
// exists but a block it names is unreadable: the caller falls back to
// recomputing and re-putting the stream.
func (s *Store) GetStream(key string) (*trace.Packed, []byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unusableLocked(); err != nil {
		return nil, nil, false, err
	}
	val, ok, err := s.kv.Get(streamPrefix + key)
	if err != nil || !ok {
		return nil, nil, false, err
	}
	var m streamManifest
	if err := json.Unmarshal(val, &m); err != nil {
		return nil, nil, false, fmt.Errorf("store: stream %q manifest: %w", key, err)
	}
	if m.Version != fileVersion {
		return nil, nil, false, fmt.Errorf("store: stream %q manifest version %d (this build reads %d)", key, m.Version, fileVersion)
	}
	p := &trace.Packed{}
	for _, mb := range m.Blocks {
		raw, err := hex.DecodeString(mb.SHA)
		if err != nil || len(raw) != len(BlockDigest{}) {
			return nil, nil, false, fmt.Errorf("store: stream %q manifest names bad digest %q", key, mb.SHA)
		}
		d := BlockDigest(raw)
		data, refs, err := s.blocks.Get(d)
		if err != nil {
			return nil, nil, false, fmt.Errorf("store: stream %q: %w", key, err)
		}
		if refs != mb.Refs || len(data) != mb.Size {
			return nil, nil, false, fmt.Errorf("store: stream %q: block %s shape mismatch", key, mb.SHA)
		}
		p.AppendEncodedBlock(data, refs)
	}
	if p.Len() != m.Refs {
		return nil, nil, false, fmt.Errorf("store: stream %q: reassembled %d refs, manifest says %d", key, p.Len(), m.Refs)
	}
	return p, m.Meta, true, nil
}

// PutDoc persists a small opaque value (e.g. a finished evaluation result)
// under key, committed durably (one fsync of the index log) before
// returning.
func (s *Store) PutDoc(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unusableLocked(); err != nil {
		return err
	}
	if err := s.kv.Put(docPrefix+key, val); err != nil {
		return err
	}
	return s.kv.Sync()
}

// GetDoc returns the committed value under key, or ok=false when the key
// was never written — decided by one index map probe, without touching the
// disk.
func (s *Store) GetDoc(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unusableLocked(); err != nil {
		return nil, false, err
	}
	return s.kv.Get(docPrefix + key)
}

// Stats summarizes the open store in constant time: every count is kept
// as the store changes, so a /metrics scrape never walks the index.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Streams:            s.kv.streams,
		Docs:               s.kv.docs,
		Blocks:             s.blocks.Blocks(),
		Segments:           len(s.blocks.segs),
		DedupBlocks:        s.blocks.dedupHits,
		TornBytesRecovered: s.blocks.tornBytes + s.kv.tornBytes,
		Probes:             s.kv.probes,
	}
}

// Sync commits every buffered append: one fsync of the active segment and
// one of the index log.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.unusableLocked(); err != nil {
		return err
	}
	if err := s.blocks.Sync(); err != nil {
		return err
	}
	return s.kv.Sync()
}

// Close syncs and releases every file and mapping. Mapped block slices
// handed out by GetStream are invalid afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.blocks.Close()
	if kerr := s.kv.Close(); kerr != nil && err == nil {
		err = kerr
	}
	return err
}
