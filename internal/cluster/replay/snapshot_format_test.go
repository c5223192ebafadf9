package replay

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/obs/journal"
)

var update = flag.Bool("update", false, "rewrite testdata/world-snapshot.json and testdata/world-snapshot.slot from the current encoding")

// TestSnapshotFormatPinned restores a committed snapshot into a fresh
// controller, master and provider, snapshots that world into both slots
// and restores it again: the encoding must come back byte-identical, so
// state directories written by older builds keep restoring.
// testdata/world-snapshot.json holds a finished job and an elastic spot
// job caught at its second recovery barrier under a fault plan with a
// consumed master kill, so every SegmentState and FaultState field is
// set. It is read from the one-file snapshot older builds wrote. After
// an intentional format change, regenerate it and the slot fixture with:
//
//	go test ./internal/cluster/replay -run FormatPinned -update
func TestSnapshotFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	ws := openLegacy(t, want)
	if len(ws.Controller.Segments) == 0 || ws.Provider.Fault == nil {
		t.Fatal("fixture holds no segment or fault state")
	}
	requireAllFieldsSet(t, ws.Controller.Segments[0])
	requireAllFieldsSet(t, *ws.Provider.Fault)

	got, _ := reencode(t, ws)
	if *update {
		if err := os.WriteFile("testdata/world-snapshot.json", got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-encoded snapshot differs from the committed one\n got %s\nwant %s", got, want)
	}
}

// TestSlotFormatPinned pins the slot file: the fixture world of
// TestSnapshotFormatPinned, snapshotted into an empty directory, must
// write testdata/world-snapshot.slot byte for byte, and a directory
// holding that file as its slot must restore the fixture world.
func TestSlotFormatPinned(t *testing.T) {
	world, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var ws WorldSnapshot
	if err := json.Unmarshal(world, &ws); err != nil {
		t.Fatal(err)
	}
	_, slot := reencode(t, &ws)
	if *update {
		if err := os.WriteFile("testdata/world-snapshot.slot", slot, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("testdata/world-snapshot.slot")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slot, want) {
		t.Errorf("the slot written differs from the committed one\n got %q\nwant %q", slot, want)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "slot-0.snap"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Snapshot() == nil {
		t.Fatal("the committed slot was not recovered")
	}
	if got, err := json.Marshal(m.Snapshot()); err != nil || !bytes.Equal(got, world) {
		t.Errorf("the committed slot restores a different world (err %v)\n got %s\nwant %s", err, got, world)
	}
}

// TestSnapshotWithRankedStillRestores: older builds persisted two fields
// the format has since dropped, each segment state's ranked candidate
// list and the provider's per-type capacity limits.
// testdata/world-snapshot-ranked.json is the world of
// TestSnapshotFormatPinned as those builds wrote it. A state directory
// holding it must still open — the snapshot decoder ignores the fields
// it no longer knows — and restore to exactly the world the current
// format pins.
func TestSnapshotWithRankedStillRestores(t *testing.T) {
	old, err := os.ReadFile("testdata/world-snapshot-ranked.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"ranked":`, `"limits":`} {
		if !bytes.Contains(old, []byte(field)) {
			t.Fatalf("fixture holds no retired %s field", field)
		}
	}
	want, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := reencode(t, openLegacy(t, old)); !bytes.Equal(got, want) {
		t.Errorf("restored world differs from the pinned format\n got %s\nwant %s", got, want)
	}
}

// openLegacy opens a state directory holding payload as the one-file
// snapshot older builds wrote, snap-<seq>.snap framed by its length and
// CRC32-C, and returns the world it recovers.
func openLegacy(t *testing.T, payload []byte) *WorldSnapshot {
	t.Helper()
	dir := t.TempDir()
	framed := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	framed = binary.LittleEndian.AppendUint32(framed, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000001.snap"), append(framed, payload...), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("opening a state directory an older build wrote: %v", err)
	}
	defer m.Close()
	if m.Snapshot() == nil {
		t.Fatal("the snapshot was not recovered")
	}
	return m.Snapshot()
}

// reencode restores ws into a fresh controller, master and provider
// under a strict-mode Manager, snapshots that world into both slots,
// and reopens the directory. It returns json.Marshal of the world the
// reopened Manager recovered and the first slot file as written.
func reencode(t *testing.T, ws *WorldSnapshot) (world, slot []byte) {
	t.Helper()
	dir := t.TempDir()
	m, err := Open(dir, Options{Mode: ModeStrict})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return ws.Provider.ClockSec })
	ctl := cluster.NewController(master, provider, nil, "")
	jrnl := journal.New(128, journal.Deterministic(), journal.WithSink(m))
	m.Attach(ctl, master, provider, jrnl)
	provider.RestoreState(ws.Provider)
	master.RestoreState(ws.Master)
	ctl.RestoreState(ws.Controller)
	jrnl.Restore(nil, ws.TakenAtSeq, ws.SrcSeqs)
	for i := 0; i < 2; i++ {
		if err := m.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if slot, err = os.ReadFile(filepath.Join(dir, "slot-0.snap")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.VerifyError(); err != nil {
		t.Fatal(err)
	}
	m2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if world, err = json.Marshal(m2.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return world, slot
}

// requireAllFieldsSet fails for every zero-valued field of a struct, so
// the fixture keeps exercising each persisted field.
func requireAllFieldsSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("fixture leaves %s.%s zero", rv.Type().Name(), rv.Type().Field(i).Name)
		}
	}
}
