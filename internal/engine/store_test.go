package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// blob is the test artifact: a string payload with a controllable
// reported size.
type blob struct {
	S     string
	Bytes int64
}

func (b *blob) ApproxBytes() int64 { return b.Bytes }

// blobCodec serialises *blob and nothing else.
type blobCodec struct{}

func (blobCodec) Encode(v any) (string, []byte, bool, error) {
	b, ok := v.(*blob)
	if !ok {
		return "", nil, false, nil
	}
	return "blob", []byte(fmt.Sprintf("%d|%s", b.Bytes, b.S)), true, nil
}

func (blobCodec) Decode(kind string, data []byte) (any, error) {
	if kind != "blob" {
		return nil, fmt.Errorf("unknown kind %q", kind)
	}
	var b blob
	s := string(data)
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return nil, fmt.Errorf("bad blob payload")
	}
	if _, err := fmt.Sscanf(s[:i], "%d", &b.Bytes); err != nil {
		return nil, err
	}
	b.S = s[i+1:]
	return &b, nil
}

func openTestTier(t *testing.T, dir string, maxBytes int64) *DiskTier {
	t.Helper()
	dt, err := OpenDiskTier(dir, maxBytes, blobCodec{})
	if err != nil {
		t.Fatal(err)
	}
	// Drain the async writer before TempDir's RemoveAll runs (cleanups
	// are last-in first-out), or its late writes race the removal.
	t.Cleanup(dt.Close)
	return dt
}

func TestTieredStoreWriteThroughAndPromotion(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	ts := NewTieredStore(NewCacheSized(8, 0), dt)

	ts.Add("k1", &blob{S: "hello", Bytes: 64})
	dt.Flush()
	if !dt.Has("k1") {
		t.Fatal("Add must write through to disk")
	}

	// A fresh tier over the same directory simulates a restart: the
	// memory tier is cold, the disk tier warm.
	dt2 := openTestTier(t, dir, 0)
	ts2 := NewTieredStore(NewCacheSized(8, 0), dt2)
	v, ok := ts2.Get("k1")
	if !ok || v.(*blob).S != "hello" {
		t.Fatalf("disk read-through = %v, %v", v, ok)
	}
	// Promotion: the second lookup must be a memory hit returning the
	// identical pointer.
	v2, ok := ts2.Get("k1")
	if !ok || v2 != v {
		t.Fatal("disk hit was not promoted into memory")
	}
	if st := ts2.Memory().Stats(); st.Hits != 1 {
		t.Errorf("memory hits = %d, want 1", st.Hits)
	}
	if st := dt2.Stats(); st.Hits != 1 {
		t.Errorf("disk hits = %d, want 1", st.Hits)
	}
}

func TestMemoryEvictionDemotesToDisk(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	// Tiny memory budget: adding the second artifact evicts the first.
	ts := NewTieredStore(NewCacheSized(8, 100), dt)
	ts.Add("a", &blob{S: "first", Bytes: 80})
	dt.Flush()
	// Delete the write-through copy so only demotion can restore it.
	dt.mu.Lock()
	if el, ok := dt.items["a"]; ok {
		dt.dropLocked(el)
	}
	dt.mu.Unlock()
	ts.Add("b", &blob{S: "second", Bytes: 80})
	dt.Flush()
	if ts.Memory().Len() != 1 {
		t.Fatalf("memory entries = %d, want 1", ts.Memory().Len())
	}
	if !dt.Has("a") {
		t.Fatal("evicted entry was not demoted to disk")
	}
	if v, ok := ts.Get("a"); !ok || v.(*blob).S != "first" {
		t.Fatalf("demoted entry unreadable: %v, %v", v, ok)
	}
}

func TestDiskTierCorruptionIsAMissNotAFatal(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	dt.Put("k", &blob{S: strings.Repeat("x", 100), Bytes: 100})
	path := dt.artPath("k")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// Truncate the artifact mid-payload.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, img[:len(img)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dt.Get("k"); ok {
		t.Fatal("truncated artifact must be a miss")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt artifact file must be deleted")
	}
	if st := dt.Stats(); st.Errors == 0 || st.Misses == 0 {
		t.Errorf("stats = %+v, want errors and misses recorded", st)
	}

	// The slot is rewritable: the next Put restores it.
	dt.Put("k", &blob{S: "fresh", Bytes: 5})
	if v, ok := dt.Get("k"); !ok || v.(*blob).S != "fresh" {
		t.Fatal("rewrite after corruption failed")
	}

	// Scribbled checksum: flip a payload byte.
	img, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-6] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := dt.Get("k"); ok {
		t.Fatal("checksum mismatch must be a miss")
	}
}

func TestDiskTierOpenScansAndCleans(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	dt.Put("alpha", &blob{S: "a", Bytes: 1})
	dt.Put("beta", &blob{S: "b", Bytes: 1})

	// Crash debris: an in-progress temp file and a corrupt artifact.
	if err := os.WriteFile(filepath.Join(dir, "tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "junk.art"), []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	dt2 := openTestTier(t, dir, 0)
	if dt2.Len() != 2 {
		t.Fatalf("reopened tier has %d entries, want 2", dt2.Len())
	}
	if _, err := os.Stat(filepath.Join(dir, "tmp-123")); !os.IsNotExist(err) {
		t.Error("temp debris must be removed at open")
	}
	if _, err := os.Stat(filepath.Join(dir, "junk.art")); !os.IsNotExist(err) {
		t.Error("unparseable artifact must be removed at open")
	}
	for _, key := range []string{"alpha", "beta"} {
		if v, ok := dt2.Get(key); !ok || v.(*blob).S == "" {
			t.Errorf("key %q unreadable after reopen: %v, %v", key, v, ok)
		}
	}
}

func TestDiskTierByteBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 200)
	for i := 0; i < 6; i++ {
		dt.Put(fmt.Sprintf("k%d", i), &blob{S: strings.Repeat("x", 80), Bytes: 80})
	}
	st := dt.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions under a 200-byte budget", st)
	}
	if st.BytesResident > 200 && st.Entries > 1 {
		t.Errorf("resident %d bytes exceeds budget with %d entries", st.BytesResident, st.Entries)
	}
	// Files for evicted keys are gone.
	files, err := filepath.Glob(filepath.Join(dir, "*"+artExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Entries {
		t.Errorf("%d files on disk for %d index entries", len(files), st.Entries)
	}
}

// negSizer reports a nonsense negative size; Add must log and charge
// the default, not panic or corrupt the ledger.
type negSizer struct{}

func (negSizer) ApproxBytes() int64 { return -42 }

func TestCacheRejectsNegativeSizer(t *testing.T) {
	c := NewCacheSized(4, 1<<20)
	c.Add("neg", negSizer{})
	if c.Bytes() != defaultEntryBytes {
		t.Errorf("negative Sizer charged %d bytes, want default %d", c.Bytes(), defaultEntryBytes)
	}
	if v, ok := c.Get("neg"); !ok || v == nil {
		t.Error("entry with negative size must still be stored")
	}
}

// emptyCodec encodes everything to zero bytes — the disk tier must
// refuse the write rather than index an undecodable artifact.
type emptyCodec struct{}

func (emptyCodec) Encode(v any) (string, []byte, bool, error) { return "empty", nil, true, nil }
func (emptyCodec) Decode(kind string, data []byte) (any, error) {
	return nil, fmt.Errorf("nothing to decode")
}

func TestDiskTierRefusesZeroByteArtifacts(t *testing.T) {
	dt, err := OpenDiskTier(t.TempDir(), 0, emptyCodec{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dt.Close)
	dt.Put("zero", struct{}{})
	if dt.Len() != 0 {
		t.Fatal("zero-byte artifact must not be indexed")
	}
	if _, ok := dt.Get("zero"); ok {
		t.Fatal("zero-byte artifact must be a miss")
	}
}

func TestTieredStoreUnsupportedTypeStaysMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	ts := NewTieredStore(NewCacheSized(8, 0), dt)
	ts.Add("mem-only", 42) // int has no codec
	if dt.Len() != 0 {
		t.Fatal("unsupported type must not reach disk")
	}
	if v, ok := ts.Get("mem-only"); !ok || v != 42 {
		t.Fatal("unsupported type must still be served from memory")
	}
}

// slowCodec widens the write-through and promote windows so the
// identity race below has room to fire without the fixes in
// TieredStore.Get / Engine.Exec.
type slowCodec struct{ blobCodec }

func (c slowCodec) Encode(v any) (string, []byte, bool, error) {
	time.Sleep(200 * time.Microsecond)
	return c.blobCodec.Encode(v)
}

func (c slowCodec) Decode(kind string, data []byte) (any, error) {
	time.Sleep(200 * time.Microsecond)
	return c.blobCodec.Decode(kind, data)
}

// TestTieredExecPointerIdentity: every consumer of a key must observe
// the same pointer within one process life, even when the key's
// write-through lands on disk while another dependent is mid-lookup.
// This is the bench/cfg/reach diamond that core.Select's identity
// check guards: without the promote-path memory recheck and the
// leader double-check, a dependent could receive a freshly-decoded
// duplicate of an artifact its sibling already holds.
func TestTieredExecPointerIdentity(t *testing.T) {
	dir := t.TempDir()
	dt, err := OpenDiskTier(dir, 0, slowCodec{})
	if err != nil {
		t.Fatal(err)
	}
	eng := New(Options{Workers: 4, Disk: dt})
	// slowCodec keeps the write-through queue busy past the last Exec;
	// Close drains it before the store directory is removed.
	t.Cleanup(eng.Close)
	ctx := context.Background()
	for iter := 0; iter < 200; iter++ {
		var mu sync.Mutex
		var seen []any
		record := func(v any) {
			mu.Lock()
			seen = append(seen, v)
			mu.Unlock()
		}
		cJob := Job{
			Key: fmt.Sprintf("c/%d", iter),
			Run: func(ctx context.Context, deps []any) (any, error) {
				return &blob{S: "c", Bytes: 16}, nil
			},
		}
		rJob := Job{
			Key:  fmt.Sprintf("r/%d", iter),
			Deps: []Job{cJob},
			Run: func(ctx context.Context, deps []any) (any, error) {
				record(deps[0])
				return &blob{S: "r", Bytes: 16}, nil
			},
		}
		bJob := Job{
			Key:  fmt.Sprintf("b/%d", iter),
			Deps: []Job{cJob, rJob},
			Run: func(ctx context.Context, deps []any) (any, error) {
				record(deps[0])
				return &blob{S: "b", Bytes: 16}, nil
			},
		}
		if _, err := eng.Exec(ctx, bJob); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		for i := 1; i < len(seen); i++ {
			if seen[i] != seen[0] {
				t.Fatalf("iter %d: dependents observed distinct pointers for one key", iter)
			}
		}
		mu.Unlock()
	}
}

func TestEngineWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	eng := New(Options{Workers: 1, Disk: dt})
	ts := eng.local.(*TieredStore)
	ts.Add("w1", &blob{S: "one", Bytes: 8})
	ts.Add("w2", &blob{S: "two", Bytes: 8})
	eng.Close()

	dt2 := openTestTier(t, dir, 0)
	eng2 := New(Options{Workers: 1, Disk: dt2})
	if n := eng2.WarmFromDisk(); n != 2 {
		t.Fatalf("warmed %d artifacts, want 2", n)
	}
	if eng2.mem.Len() != 2 {
		t.Fatalf("memory tier holds %d entries after warm, want 2", eng2.mem.Len())
	}
	st := eng2.Stats()
	if st.Disk == nil || st.Disk.Hits != 2 {
		t.Errorf("disk stats after warm = %+v", st.Disk)
	}
}

// TestWarmFromDiskRespectsMemoryBudget: boot-time warm-up must not
// decode a whole store the memory tier cannot hold — only the
// most-recently-used artifacts that fit are promoted.
func TestWarmFromDiskRespectsMemoryBudget(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	eng := New(Options{Workers: 1, Disk: dt})
	ts := eng.local.(*TieredStore)
	now := time.Now()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("w%d", i)
		ts.Add(key, &blob{S: fmt.Sprintf("v%d", i), Bytes: 16})
		dt.Flush()
		// Reopening orders by mtime; the writes above land within one
		// timestamp tick, so spread them explicitly.
		if err := os.Chtimes(dt.artPath(key), now, now.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	dt2 := openTestTier(t, dir, 0)
	eng2 := New(Options{Workers: 1, CacheEntries: 2, Disk: dt2})
	if n := eng2.WarmFromDisk(); n != 2 {
		t.Fatalf("warmed %d artifacts into a 2-entry memory tier, want 2", n)
	}
	if st := dt2.Stats(); st.Hits != 2 {
		t.Errorf("disk decodes = %d, want 2 (cold artifacts must stay undecoded)", st.Hits)
	}
	// The two most recently used artifacts won.
	for _, key := range []string{"w3", "w4"} {
		if _, ok := eng2.mem.lookup(key, false); !ok {
			t.Errorf("hot artifact %q missing after budgeted warm", key)
		}
	}
	if _, ok := eng2.mem.lookup("w0", false); ok {
		t.Error("cold artifact w0 must not occupy the budgeted memory tier")
	}
}
