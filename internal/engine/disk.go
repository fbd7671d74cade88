// Disk tier of the artifact store: one file per artifact under a
// store directory, named by a hash of the content key. Writes are
// atomic (temp file + rename), the tier is byte-budgeted with
// LRU eviction, and reads are corruption-tolerant: a truncated,
// scribbled, or stale-format file is treated as a miss and deleted so
// the next Put rewrites it — never a panic, never a fatal error.
//
// Write-through is asynchronous: PutAsync hands the artifact to a
// background writer through a bounded queue, so the encode and file
// write happen off the job-completion path. A full queue blocks the
// producer rather than dropping the write — durability is never
// traded away, so a drained store holds exactly what a synchronous
// one would and cold-start stays byte-identical. Flush waits for the
// queue to drain; Close drains and stops the writer (later writes
// fall back to the synchronous path).
package engine

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/binio"
)

// artMagic leads every artifact file; a version bump means old files
// are deleted on first touch rather than misread.
const artMagic = "SPMTART1"

// artExt is the artifact file extension; tmpPrefix marks in-progress
// writes, cleaned up at Open (a crash mid-write leaves only tmp files,
// never a truncated artifact under its final name).
const (
	artExt    = ".art"
	tmpPrefix = "tmp-"
)

// DiskStats is a point-in-time snapshot of disk-tier effectiveness.
type DiskStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Writes    uint64 `json:"writes"`
	Evictions uint64 `json:"evictions"`
	// Errors counts corrupt or unreadable artifact files dropped
	// (each also counts as a miss) and failed writes.
	Errors  uint64 `json:"errors"`
	Entries int    `json:"entries"`
	// BytesResident is the total size of resident artifact files;
	// BytesCapacity is the byte budget (0 = unbounded).
	BytesResident int64 `json:"bytes_resident"`
	BytesCapacity int64 `json:"bytes_capacity,omitempty"`
	// AsyncWrites counts artifacts accepted onto the background
	// writer's queue; QueueDepth is how many of them have not yet
	// reached disk; Flushes counts explicit queue drains (Flush and
	// Close).
	AsyncWrites uint64 `json:"async_writes"`
	QueueDepth  int    `json:"queue_depth"`
	Flushes     uint64 `json:"flushes"`
}

type diskEntry struct {
	key   string
	path  string
	bytes int64
}

// asyncQueueCap bounds the background writer's queue. Queued artifacts
// are live pointers (the memory tier usually also holds them), so the
// bound caps how much evicted-but-unwritten data the queue can pin; a
// producer hitting the bound blocks until the writer catches up.
const asyncQueueCap = 64

// diskWrite is one unit of background-writer work: an artifact to
// persist, or a flush token (done != nil) that the writer acknowledges
// by closing done.
type diskWrite struct {
	key  string
	val  any
	done chan struct{}
}

// DiskFaults is the disk tier's fault-injection seam (implemented by
// internal/fault.Injector). ReadError/WriteError fail the operation
// as if the file were unreadable/unwritable; MangleImage may corrupt
// the encoded image before it reaches disk (a torn write — the CRC
// catches it on the next read). A nil DiskFaults injects nothing;
// production code never sets one.
type DiskFaults interface {
	ReadError(key string) error
	WriteError(key string) error
	MangleImage(key string, img []byte) []byte
}

// DiskTier is the persistent tier of the artifact store. All methods
// are safe for concurrent use.
type DiskTier struct {
	dir      string
	maxBytes int64 // 0 = unbounded
	codec    Codec

	// sendMu serialises queue sends with Close, so a producer can
	// never send on a closed queue. The writer goroutine only receives
	// and never takes sendMu, so a producer blocked on a full queue
	// always drains.
	sendMu sync.Mutex
	closed bool
	queue  chan diskWrite
	wg     sync.WaitGroup

	mu     sync.Mutex
	faults DiskFaults // nil in production; see SetFaults
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	// pending holds artifacts accepted for the background writer but
	// not yet on disk, keyed to their live value: reads are served from
	// it, so an artifact is never invisible between Add and the write
	// landing (a memory-tier eviction in that window would otherwise
	// force a recompute of data the process still holds).
	pending     map[string]any
	bytes       int64
	hits        uint64
	misses      uint64
	writes      uint64
	evictions   uint64
	errors      uint64
	asyncWrites uint64
	flushes     uint64
}

// OpenDiskTier opens (creating if needed) a disk tier rooted at dir,
// bounded by maxBytes (<= 0 means unbounded), using codec to
// serialise artifacts. Existing artifact files are indexed by reading
// their headers only — payloads are decoded lazily on Get — ordered
// oldest-modified first so eviction drops stale artifacts before warm
// ones. Leftover temp files from an interrupted write are removed;
// unreadable artifact files are deleted and counted, never fatal.
func OpenDiskTier(dir string, maxBytes int64, codec Codec) (*DiskTier, error) {
	if codec == nil {
		return nil, fmt.Errorf("engine: disk tier needs a codec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: disk tier: %w", err)
	}
	if maxBytes < 0 {
		maxBytes = 0
	}
	t := &DiskTier{
		dir:      dir,
		maxBytes: maxBytes,
		codec:    codec,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		pending:  make(map[string]any),
		queue:    make(chan diskWrite, asyncQueueCap),
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: disk tier: %w", err)
	}
	type scanned struct {
		ent   *diskEntry
		mtime int64
	}
	var found []scanned
	for _, de := range entries {
		name := de.Name()
		path := filepath.Join(dir, name)
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(path) //nolint:errcheck // best-effort cleanup
			continue
		}
		if de.IsDir() || !strings.HasSuffix(name, artExt) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key, ok := t.readHeader(path)
		if !ok {
			t.errors++
			os.Remove(path) //nolint:errcheck // corrupt file, drop it
			continue
		}
		found = append(found, scanned{
			ent:   &diskEntry{key: key, path: path, bytes: info.Size()},
			mtime: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	// Push oldest first so the list front ends up most recent.
	for _, s := range found {
		if _, dup := t.items[s.ent.key]; dup {
			continue
		}
		t.items[s.ent.key] = t.ll.PushFront(s.ent)
		t.bytes += s.ent.bytes
	}
	t.mu.Lock()
	t.evict()
	t.mu.Unlock()
	t.wg.Add(1)
	go t.writer()
	return t, nil
}

// writer is the background goroutine draining the async-write queue.
func (t *DiskTier) writer() {
	defer t.wg.Done()
	for req := range t.queue {
		if req.done != nil {
			t.mu.Lock()
			t.flushes++
			t.mu.Unlock()
			close(req.done)
			continue
		}
		t.Put(req.key, req.val)
		t.mu.Lock()
		delete(t.pending, req.key)
		t.mu.Unlock()
	}
}

// PutAsync queues the artifact for the background writer and returns
// immediately — the completion-path form of Put. A full queue blocks
// until the writer catches up (writes are never dropped); after Close
// the write happens synchronously instead.
func (t *DiskTier) PutAsync(key string, val any) {
	if key == "" {
		return
	}
	t.mu.Lock()
	_, resident := t.items[key]
	_, queued := t.pending[key]
	if resident || queued {
		t.mu.Unlock()
		return
	}
	t.pending[key] = val
	t.asyncWrites++
	t.mu.Unlock()

	t.sendMu.Lock()
	if t.closed {
		t.sendMu.Unlock()
		t.Put(key, val)
		t.mu.Lock()
		delete(t.pending, key)
		t.mu.Unlock()
		return
	}
	t.queue <- diskWrite{key: key, val: val}
	t.sendMu.Unlock()
}

// Flush blocks until every write queued before the call has reached
// disk. After Close it is a no-op (Close already drained).
func (t *DiskTier) Flush() {
	t.sendMu.Lock()
	if t.closed {
		t.sendMu.Unlock()
		return
	}
	done := make(chan struct{})
	t.queue <- diskWrite{done: done}
	t.sendMu.Unlock()
	<-done
}

// Close drains the async-write queue and stops the background writer.
// The tier remains readable and writable — subsequent PutAsync calls
// degrade to synchronous writes. Close is idempotent and safe to call
// concurrently: EVERY caller blocks until the queue has drained, so
// whichever of two racing shutdown paths (ops handler, signal handler)
// returns first still observes a fully-flushed store.
func (t *DiskTier) Close() {
	t.sendMu.Lock()
	first := !t.closed
	if first {
		t.closed = true
		close(t.queue)
	}
	t.sendMu.Unlock()
	t.wg.Wait()
	if first {
		t.mu.Lock()
		t.flushes++
		t.mu.Unlock()
	}
}

// Dir returns the store directory.
func (t *DiskTier) Dir() string { return t.dir }

// SetFaults installs a fault injector behind the read/write paths
// (nil clears it). Injected failures flow through the SAME
// corruption-tolerance paths real ones do — a read error drops the
// file and reports a miss, a failed or torn write is a counted
// error — which is exactly what the degradation suite exercises.
func (t *DiskTier) SetFaults(f DiskFaults) {
	t.mu.Lock()
	t.faults = f
	t.mu.Unlock()
}

// faultHook returns the current injector (nil almost always).
func (t *DiskTier) faultHook() DiskFaults {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.faults
}

// artPath maps a content key to its file path: keys contain slashes
// and arbitrary config hashes, so the name is a digest of the key
// (the key itself is stored in the file header and verified on read).
func (t *DiskTier) artPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(t.dir, hex.EncodeToString(sum[:20])+artExt)
}

// encodeFile renders the on-disk artifact image: header, payload, and
// a trailing CRC over everything before it.
func encodeFile(kind, key string, data []byte) []byte {
	w := binio.NewWriter(len(artMagic) + len(kind) + len(key) + len(data) + 24)
	w.Raw([]byte(artMagic))
	w.String(kind)
	w.String(key)
	w.Blob(data)
	w.U32(crc32.ChecksumIEEE(w.Bytes()))
	return w.Bytes()
}

// decodeFile parses an artifact image, verifying magic and CRC.
func decodeFile(img []byte) (kind, key string, data []byte, err error) {
	if len(img) < len(artMagic)+4 {
		return "", "", nil, fmt.Errorf("artifact file too short (%d bytes)", len(img))
	}
	body, sum := img[:len(img)-4], img[len(img)-4:]
	r := binio.NewReader(body)
	if string(r.Raw(len(artMagic))) != artMagic {
		return "", "", nil, fmt.Errorf("bad artifact magic")
	}
	kind = r.String()
	key = r.String()
	data = r.Blob()
	if err := r.Close(); err != nil {
		return "", "", nil, err
	}
	r2 := binio.NewReader(sum)
	if got := crc32.ChecksumIEEE(body); got != r2.U32() {
		return "", "", nil, fmt.Errorf("artifact checksum mismatch")
	}
	return kind, key, data, nil
}

// readHeader parses only magic/kind/key from the start of a file —
// enough to index it at Open without decoding the payload.
func (t *DiskTier) readHeader(path string) (key string, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	// Kind and key are short; 4KB covers any header this repo writes.
	buf := make([]byte, 4096)
	n, _ := f.Read(buf)
	r := binio.NewReader(buf[:n])
	if string(r.Raw(len(artMagic))) != artMagic {
		return "", false
	}
	_ = r.String() // kind
	key = r.String()
	if r.Err() != nil || key == "" {
		return "", false
	}
	return key, true
}

// Has reports whether key is resident on disk (no recency update).
func (t *DiskTier) Has(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.items[key]
	return ok
}

// HasOrPending is Has extended to artifacts accepted for the
// background writer but not yet on disk — the "held here" notion the
// replication receive path needs, where a queued write must count or a
// double-push lands twice.
func (t *DiskTier) HasOrPending(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.items[key]; ok {
		return true
	}
	_, queued := t.pending[key]
	return queued
}

// Keys returns every key the tier holds: the resident keys least
// recently used first (the order a memory warm-up should replay them so
// the hottest end up freshest), then the keys still queued for the
// background writer, sorted. A re-replication sweep must see a queued
// artifact too, or a key whose write-through push was shed before its
// write landed would stay under-replicated.
func (t *DiskTier) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, t.ll.Len()+len(t.pending))
	for e := t.ll.Back(); e != nil; e = e.Prev() {
		keys = append(keys, e.Value.(*diskEntry).key)
	}
	n := len(keys)
	for k := range t.pending {
		if _, resident := t.items[k]; !resident {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys[n:])
	return keys
}

// EntryInfo describes one resident artifact for warm-up planning: the
// file size approximates the decoded artifact's resident cost.
type EntryInfo struct {
	Key   string
	Bytes int64
}

// Entries returns the resident artifacts, least recently used first.
func (t *DiskTier) Entries() []EntryInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]EntryInfo, 0, t.ll.Len())
	for e := t.ll.Back(); e != nil; e = e.Prev() {
		ent := e.Value.(*diskEntry)
		out = append(out, EntryInfo{Key: ent.key, Bytes: ent.bytes})
	}
	return out
}

// Get reads, verifies, and decodes the artifact stored under key. Any
// corruption — truncation, checksum mismatch, key collision, codec
// failure — deletes the file and reports a miss, so the artifact is
// simply recomputed and rewritten.
func (t *DiskTier) Get(key string) (any, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.items[key]
	if !ok {
		// Queued for the background writer: the artifact is as good as
		// resident — serve the live value instead of recomputing it.
		if v, queued := t.pending[key]; queued {
			t.hits++
			return v, true
		}
		t.misses++
		return nil, false
	}
	ent := el.Value.(*diskEntry)
	v, err := t.load(ent, key)
	if err != nil {
		t.dropLocked(el)
		t.errors++
		t.misses++
		log.Printf("engine: disk tier: dropping %s: %v", ent.path, err)
		return nil, false
	}
	t.hits++
	t.ll.MoveToFront(el)
	return v, true
}

// Image returns the stored encoded image (kind tag + payload) under
// key without decoding it — the cheap path behind a shard's artifact
// exchange, where the bytes are about to cross the wire anyway and a
// decode would only pollute the memory tier. Magic/CRC/key are still
// verified (corrupt files are dropped and reported as a miss, exactly
// like Get). Pending (queued-but-unwritten) artifacts are not served
// here; callers fall back to the decoded-value path for those.
func (t *DiskTier) Image(key string) (kind string, data []byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, found := t.items[key]
	if !found {
		return "", nil, false
	}
	ent := el.Value.(*diskEntry)
	var img []byte
	var err error
	if t.faults != nil {
		err = t.faults.ReadError(key)
	}
	if err == nil {
		img, err = os.ReadFile(ent.path)
	}
	if err == nil {
		var fileKey string
		kind, fileKey, data, err = decodeFile(img)
		if err == nil && fileKey != key {
			err = fmt.Errorf("key collision: file holds %q", fileKey)
		}
	}
	if err != nil {
		t.dropLocked(el)
		t.errors++
		log.Printf("engine: disk tier: dropping %s: %v", ent.path, err)
		return "", nil, false
	}
	t.ll.MoveToFront(el)
	return kind, data, true
}

// load reads and decodes one artifact file. Callers must hold t.mu.
func (t *DiskTier) load(ent *diskEntry, key string) (any, error) {
	if t.faults != nil {
		if err := t.faults.ReadError(key); err != nil {
			return nil, err
		}
	}
	img, err := os.ReadFile(ent.path)
	if err != nil {
		return nil, err
	}
	kind, fileKey, data, err := decodeFile(img)
	if err != nil {
		return nil, err
	}
	if fileKey != key {
		return nil, fmt.Errorf("key collision: file holds %q", fileKey)
	}
	v, err := t.codec.Decode(kind, data)
	if err != nil {
		return nil, fmt.Errorf("decode %q: %w", kind, err)
	}
	return v, nil
}

// Put synchronously persists the artifact under key if its type has a
// codec and it is not already resident (PutAsync is the completion-
// path form). The write is atomic: a temp file in the store directory
// renamed into place, so readers never observe a partial artifact
// under a final name.
func (t *DiskTier) Put(key string, val any) {
	if key == "" || t.Has(key) {
		return
	}
	kind, data, ok, err := t.codec.Encode(val)
	if err != nil {
		t.fail("encode %T: %v", val, err)
		return
	}
	if !ok {
		return // memory-only artifact type
	}
	if len(data) == 0 {
		// A zero-byte artifact would index as resident yet decode to
		// nothing; refuse it loudly instead of corrupting hit math.
		log.Printf("engine: disk tier: refusing zero-byte artifact %q (%T)", key, val)
		return
	}
	img := encodeFile(kind, key, data)
	path := t.artPath(key)
	if f := t.faultHook(); f != nil {
		if err := f.WriteError(key); err != nil {
			t.fail("write %s: %v", path, err)
			return
		}
		img = f.MangleImage(key, img)
	}

	// Write the temp file outside the tier lock: trace-sized images
	// are tens of megabytes, and holding t.mu across the write would
	// stall every concurrent Get/Put on the completion path. Only the
	// dup-check, rename, and index insert are serialised.
	tmp, err := os.CreateTemp(t.dir, tmpPrefix+"*")
	if err != nil {
		t.fail("create temp: %v", err)
		return
	}
	_, werr := tmp.Write(img)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		t.fail("write %s: %v", path, firstErr(werr, cerr))
		return
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.items[key]; dup {
		// Lost a write race; identical content either way.
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //nolint:errcheck // best-effort cleanup
		t.failLocked("rename %s: %v", path, err)
		return
	}
	t.items[key] = t.ll.PushFront(&diskEntry{key: key, path: path, bytes: int64(len(img))})
	t.bytes += int64(len(img))
	t.writes++
	t.evict()
}

// Demote queues a memory-tier eviction for the background writer
// unless it is already resident or queued (the write-through path
// usually got there first). Asynchronous: eviction happens on an Add's
// completion path, which must not absorb an encode of a trace-sized
// artifact.
func (t *DiskTier) Demote(key string, val any) { t.PutAsync(key, val) }

// Remove discards the artifact stored (or pending) under key and
// reports whether anything was dropped. A write already handed to the
// background writer may still land afterwards; callers that need the
// key gone for certain should Flush first (Engine.Drop does).
func (t *DiskTier) Remove(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, pending := t.pending[key]
	delete(t.pending, key)
	el, resident := t.items[key]
	if resident {
		t.dropLocked(el)
	}
	return pending || resident
}

// evict removes least recently used artifact files until the byte
// budget holds, always keeping the most recently used artifact.
// Callers must hold t.mu.
func (t *DiskTier) evict() {
	for t.maxBytes > 0 && t.bytes > t.maxBytes && t.ll.Len() > 1 {
		oldest := t.ll.Back()
		if oldest == nil {
			return
		}
		t.dropLocked(oldest)
		t.evictions++
	}
}

// dropLocked removes an entry and its file. Callers must hold t.mu.
func (t *DiskTier) dropLocked(el *list.Element) {
	ent := el.Value.(*diskEntry)
	os.Remove(ent.path) //nolint:errcheck // already dropping it
	t.ll.Remove(el)
	delete(t.items, ent.key)
	t.bytes -= ent.bytes
}

func (t *DiskTier) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(format, args...)
}

// failLocked logs a non-fatal disk-tier failure. Callers must hold
// t.mu.
func (t *DiskTier) failLocked(format string, args ...any) {
	t.errors++
	log.Printf("engine: disk tier: "+format, args...)
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of resident artifacts.
func (t *DiskTier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}

// Bytes returns the total size of resident artifact files.
func (t *DiskTier) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// Stats snapshots the disk-tier counters.
func (t *DiskTier) Stats() DiskStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return DiskStats{
		Hits:          t.hits,
		Misses:        t.misses,
		Writes:        t.writes,
		Evictions:     t.evictions,
		Errors:        t.errors,
		Entries:       t.ll.Len(),
		BytesResident: t.bytes,
		BytesCapacity: t.maxBytes,
		AsyncWrites:   t.asyncWrites,
		QueueDepth:    len(t.pending),
		Flushes:       t.flushes,
	}
}
