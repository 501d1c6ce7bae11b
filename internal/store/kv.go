package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Key-value index: the home of evaluation results and stream manifests.
// Every key lives in one append-only log, <dir>/index/index.kv, and one
// in-memory map from key to value location answers every lookup; a present
// key's value is read back through the log's own open handle. This is the
// log-plus-in-memory-index layout known as Bitcask. A KV record's payload
// is:
//
//	u16 LE key length | key bytes | value bytes
//
// Rewrites append a fresh record; the open scan keeps the last committed
// record per key (last-writer-wins), so the log needs no in-place updates
// and inherits the torn-tail recovery of the record framing.
const indexFile = "index.kv"

// valLoc locates one committed value inside the index log.
type valLoc struct {
	off  int64 // value start offset (past header and key)
	size int   // value length
}

// kvIndex is the KV store: the log's appender and the key → value map.
type kvIndex struct {
	app   *appender
	index map[string]valLoc

	// streams and docs count distinct keys per keyspace, kept as each key
	// is first inserted so Stats never walks the map.
	streams, docs int
	// probes counts lookups; tornBytes the bytes truncated at open.
	probes    uint64
	tornBytes int64
}

// openKVIndex scans <root>/index/index.kv, truncating a torn tail and
// rebuilding the key map, opens its appender, and folds in any index left
// in the retired sharded layout (see foldShards).
func openKVIndex(root string, torn TornWriteFunc) (*kvIndex, error) {
	dir := filepath.Join(root, "index")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, indexFile)
	kv := &kvIndex{index: map[string]valLoc{}}
	clean, size, err := scanKV(path, func(key string, val []byte, off int64) {
		kv.set(key, valLoc{off: off, size: len(val)})
	})
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	if size < fileHeaderBytes {
		// Absent, or a crash while creating it: no committed data.
		if err := writeFileHeader(path, kindKV); err != nil {
			return nil, err
		}
		kv.tornBytes = size
	} else {
		kv.tornBytes = size - clean
	}
	// The appender truncates the file to its clean length, physically
	// removing a recovered torn tail.
	if kv.app, err = newAppender(path, clean, torn); err != nil {
		return nil, err
	}
	if err := kv.foldShards(dir); err != nil {
		kv.app.close()
		return nil, err
	}
	return kv, nil
}

// scanKV validates a KV log's header and calls fn with the key, value and
// value offset of each committed record in file order. It returns the clean
// length (the end of the last committed record, at least a header) and the
// size on disk; a torn tail ends the scan without error.
func scanKV(path string, fn func(key string, val []byte, off int64)) (clean, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return fileHeaderBytes, 0, err
	}
	defer f.Close()
	if size, err = checkFileHeader(f, kindKV); err != nil {
		return 0, 0, fmt.Errorf("store: %s: %w", pathBase(path), err)
	}
	if size < fileHeaderBytes {
		return fileHeaderBytes, size, nil
	}
	clean, err = scanRecords(f, size, fileHeaderBytes, func(off int64, payload []byte) error {
		if len(payload) < 2 {
			return fmt.Errorf("store: %s: record at %d shorter than its key length", pathBase(path), off)
		}
		klen := int(binary.LittleEndian.Uint16(payload))
		if 2+klen > len(payload) {
			return fmt.Errorf("store: %s: record at %d key overruns payload", pathBase(path), off)
		}
		fn(string(payload[2:2+klen]), payload[2+klen:], off+recordHeaderBytes+2+int64(klen))
		return nil
	})
	return clean, size, err
}

// foldShards migrates an index written in the retired sharded layout:
// index/shard-XX.kv logs (same record format, keys spread by hash) plus
// their .bfl bloom sidecars. Every committed shard key the log does not
// already hold is appended, last writer wins; a key the log already holds
// is newer and keeps its value. Only after the log is fsynced are the shard
// and sidecar files removed and the directory fsynced, so a crash anywhere
// in the fold leaves a directory whose next open yields the same key map.
func (kv *kvIndex) foldShards(dir string) error {
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*.kv"))
	if err != nil {
		return err
	}
	sidecars, err := filepath.Glob(filepath.Join(dir, "*.bfl"))
	if err != nil {
		return err
	}
	if len(shards)+len(sidecars) == 0 {
		return nil
	}
	var keys []string
	vals := map[string][]byte{}
	for _, path := range shards {
		_, _, err := scanKV(path, func(key string, val []byte, _ int64) {
			if _, held := kv.index[key]; held {
				return
			}
			if _, seen := vals[key]; !seen {
				keys = append(keys, key)
			}
			vals[key] = val
		})
		if err != nil {
			return err
		}
	}
	for _, key := range keys {
		if err := kv.Put(key, vals[key]); err != nil {
			return err
		}
	}
	if err := kv.app.sync(); err != nil {
		return err
	}
	for _, path := range append(shards, sidecars...) {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making removals of its entries durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// set records key's value location, counting the key on first insert.
func (kv *kvIndex) set(key string, loc valLoc) {
	if _, ok := kv.index[key]; !ok {
		if strings.HasPrefix(key, streamPrefix) {
			kv.streams++
		} else {
			kv.docs++
		}
	}
	kv.index[key] = loc
}

// Put appends (or rewrites) key with value. The record is buffered until
// the next Sync.
func (kv *kvIndex) Put(key string, value []byte) error {
	if len(key) == 0 || len(key) > 1<<16-1 {
		return fmt.Errorf("store: key length %d out of range [1, 65535]", len(key))
	}
	payload := make([]byte, 2+len(key)+len(value))
	binary.LittleEndian.PutUint16(payload, uint16(len(key)))
	copy(payload[2:], key)
	copy(payload[2+len(key):], value)
	off, err := kv.app.append(payload)
	if err != nil {
		return err
	}
	kv.set(key, valLoc{off: off + recordHeaderBytes + 2 + int64(len(key)), size: len(value)})
	return nil
}

// Get returns the committed value for key: a map probe, and for a present
// key one pread through the log's held handle.
func (kv *kvIndex) Get(key string) ([]byte, bool, error) {
	kv.probes++
	loc, ok := kv.index[key]
	if !ok {
		return nil, false, nil
	}
	if err := kv.app.flush(); err != nil && err != ErrWounded {
		return nil, false, err
	}
	buf := make([]byte, loc.size)
	if _, err := kv.app.f.ReadAt(buf, loc.off); err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// Sync commits every buffered append with one fsync of the log.
func (kv *kvIndex) Sync() error { return kv.app.sync() }

// Close syncs (best effort) and closes the log.
func (kv *kvIndex) Close() error { return kv.app.close() }
