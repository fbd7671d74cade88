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
	eng := New(Options{Workers: 1, CacheEntries: 8, Disk: dt})
	t.Cleanup(eng.Close)

	eng.store("k1", &blob{S: "hello", Bytes: 64})
	dt.Flush()
	if !dt.Has("k1") {
		t.Fatal("Add must write through to disk")
	}

	// A fresh tier over the same directory simulates a restart: the
	// memory tier is cold, the disk tier warm.
	dt2 := openTestTier(t, dir, 0)
	eng2 := New(Options{Workers: 1, CacheEntries: 8, Disk: dt2})
	t.Cleanup(eng2.Close)
	v, ok := eng2.Peek("k1")
	if !ok || v.(*blob).S != "hello" {
		t.Fatalf("disk read-through = %v, %v", v, ok)
	}
	// Promotion: the second lookup must be a memory hit returning the
	// identical pointer.
	v2, ok := eng2.Peek("k1")
	if !ok || v2 != v {
		t.Fatal("disk hit was not promoted into memory")
	}
	if st := eng2.mem.Stats(); st.Hits != 1 {
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
	eng := New(Options{Workers: 1, CacheEntries: 8, CacheBytes: 100, Disk: dt})
	t.Cleanup(eng.Close)
	eng.store("a", &blob{S: "first", Bytes: 80})
	dt.Flush()
	// Delete the write-through copy so only demotion can restore it.
	dt.mu.Lock()
	if el, ok := dt.items["a"]; ok {
		dt.dropLocked(el)
	}
	dt.mu.Unlock()
	eng.store("b", &blob{S: "second", Bytes: 80})
	dt.Flush()
	if eng.mem.Len() != 1 {
		t.Fatalf("memory entries = %d, want 1", eng.mem.Len())
	}
	if !dt.Has("a") {
		t.Fatal("evicted entry was not demoted to disk")
	}
	if v, ok := eng.Peek("a"); !ok || v.(*blob).S != "first" {
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
	eng := New(Options{Workers: 1, CacheEntries: 8, Disk: dt})
	t.Cleanup(eng.Close)
	eng.store("mem-only", 42) // int has no codec
	dt.Flush()
	if dt.Len() != 0 {
		t.Fatal("unsupported type must not reach disk")
	}
	if v, ok := eng.Peek("mem-only"); !ok || v != 42 {
		t.Fatal("unsupported type must still be served from memory")
	}
}

// slowCodec widens the write-through and promote windows so the
// identity race below has room to fire if a key could be resolved by
// two walks at once.
type slowCodec struct{ blobCodec }

func (c slowCodec) Encode(v any) (string, []byte, bool, error) {
	time.Sleep(200 * time.Microsecond)
	return c.blobCodec.Encode(v)
}

func (c slowCodec) Decode(kind string, data []byte) (any, error) {
	time.Sleep(200 * time.Microsecond)
	return c.blobCodec.Decode(kind, data)
}

// slowFetcher is a peer that serves every "c/" key after a delay,
// decoding a fresh pointer per call, and counts its calls per key.
type slowFetcher struct {
	mu    sync.Mutex
	calls map[string]int
}

func (f *slowFetcher) Fetch(ctx context.Context, key string) (any, bool) {
	f.mu.Lock()
	f.calls[key]++
	f.mu.Unlock()
	if !strings.HasPrefix(key, "c/") {
		return nil, false
	}
	time.Sleep(200 * time.Microsecond)
	return &blob{S: "c", Bytes: 16}, true
}

// TestTieredExecPointerIdentity: every consumer of a key must observe
// the same pointer within one process life, whichever tier answers —
// even when the key's write-through lands on disk while another
// dependent is mid-lookup, when a slow peer serves it, or when a peer
// pushes a copy while it is being computed. This is the bench/cfg/reach
// diamond that core.Select's identity check guards: a dependent must
// never receive a freshly-decoded, fetched or pushed duplicate of an
// artifact its sibling already holds.
func TestTieredExecPointerIdentity(t *testing.T) {
	cases := []struct {
		name string
		// remote, when non-nil, serves the shared dependency c.
		remote *slowFetcher
		// inject pushes a peer copy of c from inside c's own run.
		inject bool
	}{
		{name: "disk"},
		{name: "remote", remote: &slowFetcher{calls: map[string]int{}}},
		{name: "inject", inject: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dt, err := OpenDiskTier(t.TempDir(), 0, slowCodec{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Workers: 4, Disk: dt}
			if tc.remote != nil {
				opts.Remote = tc.remote
			}
			eng := New(opts)
			// slowCodec keeps the write-through queue busy past the
			// last Exec; Close drains it before the store directory is
			// removed.
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
				cKey := fmt.Sprintf("c/%d", iter)
				cJob := Job{
					Key: cKey,
					Run: func(ctx context.Context, deps []any) (any, error) {
						if tc.inject && eng.Inject(cKey, &blob{S: "pushed", Bytes: 16}) {
							t.Errorf("iter %d: Inject stored a key that is being computed", iter)
						}
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
				if v, ok := eng.Peek(cKey); !ok || v != seen[0] {
					t.Fatalf("iter %d: the store holds a different pointer than the consumers saw", iter)
				}
			}
			if tc.remote != nil {
				for key, n := range tc.remote.calls {
					if n > 1 {
						t.Errorf("fetcher called %d times for %q, want at most 1", n, key)
					}
				}
			}
		})
	}
}

func TestEngineWarmFromDisk(t *testing.T) {
	dir := t.TempDir()
	dt := openTestTier(t, dir, 0)
	eng := New(Options{Workers: 1, Disk: dt})
	eng.store("w1", &blob{S: "one", Bytes: 8})
	eng.store("w2", &blob{S: "two", Bytes: 8})
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
	t.Cleanup(eng.Close)
	now := time.Now()
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("w%d", i)
		eng.store(key, &blob{S: fmt.Sprintf("v%d", i), Bytes: 16})
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
