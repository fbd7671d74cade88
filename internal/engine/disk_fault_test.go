package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/codec"
	"repro/internal/fault"
	"repro/internal/linalg"
)

// faultArtifact builds a small encodable artifact for disk-tier tests.
func faultArtifact() *linalg.Matrix {
	m := linalg.NewMatrix(3, 3)
	for i := 0; i < 3; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestDiskFaultReadError(t *testing.T) {
	d, err := engine.OpenDiskTier(t.TempDir(), 0, codec.New())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.Put("k", faultArtifact())
	if _, ok := d.Get("k"); !ok {
		t.Fatal("artifact not readable before injection")
	}

	inj := fault.New(9)
	inj.Enable(fault.DiskRead, 1, 0)
	d.SetFaults(inj)
	if _, ok := d.Get("k"); ok {
		t.Fatal("read succeeded under 100% disk.read faults")
	}
	// The injected error flows the corruption-tolerance path: the file
	// is dropped, counted, and the next write repairs it.
	st := d.Stats()
	if st.Errors == 0 || d.Has("k") {
		t.Fatalf("stats = %+v, has = %v; want dropped + counted", st, d.Has("k"))
	}
	d.SetFaults(nil)
	d.Put("k", faultArtifact())
	if _, ok := d.Get("k"); !ok {
		t.Fatal("artifact not rewritable after clearing faults")
	}
}

func TestDiskFaultWriteErrorAndTorn(t *testing.T) {
	d, err := engine.OpenDiskTier(t.TempDir(), 0, codec.New())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Write errors: the artifact never lands.
	inj := fault.New(9)
	inj.Enable(fault.DiskWrite, 1, 0)
	d.SetFaults(inj)
	d.Put("w", faultArtifact())
	if d.Has("w") {
		t.Fatal("write landed under 100% disk.write faults")
	}
	if d.Stats().Errors == 0 {
		t.Fatal("failed write not counted")
	}

	// Torn writes: the file lands but its CRC is broken, so the next
	// read detects the tear, drops it, and reports a miss.
	torn := fault.New(9)
	torn.Enable(fault.DiskTorn, 1, 0)
	d.SetFaults(torn)
	d.Put("t", faultArtifact())
	if !d.Has("t") {
		t.Fatal("torn write should still land on disk")
	}
	if _, ok := d.Get("t"); ok {
		t.Fatal("torn artifact decoded successfully")
	}
	if d.Has("t") {
		t.Fatal("torn artifact not dropped on read")
	}
}
