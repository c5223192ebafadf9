package replay

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/obs/journal/wal"
)

var update = flag.Bool("update", false, "rewrite testdata/world-snapshot.json from the current encoding")

// TestSnapshotFormatPinned restores a committed snapshot into a fresh
// controller, master and provider and exports it again: the encoding
// must come back byte-identical, so state directories written by older
// builds keep restoring. testdata/world-snapshot.json holds a finished
// job and an elastic spot job caught at its second recovery barrier
// under a fault plan with a consumed master kill, so every SegmentState
// and FaultState field is set. After an intentional format change,
// regenerate it with:
//
//	go test ./internal/cluster/replay -run SnapshotFormatPinned -update
func TestSnapshotFormatPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var ws WorldSnapshot
	if err := json.Unmarshal(want, &ws); err != nil {
		t.Fatal(err)
	}
	if len(ws.Controller.Segments) == 0 || ws.Provider.Fault == nil {
		t.Fatal("fixture holds no segment or fault state")
	}
	requireAllFieldsSet(t, ws.Controller.Segments[0])
	requireAllFieldsSet(t, *ws.Provider.Fault)

	got := reencode(t, &ws)
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

// TestSnapshotWithRankedStillRestores: segment states used to persist
// their plan's ranked candidate list. testdata/world-snapshot-ranked.json
// is the world of TestSnapshotFormatPinned as those builds wrote it. A
// state directory holding it must still open — the snapshot decoder
// ignores the field it no longer knows — and restore to exactly the
// world the current format pins.
func TestSnapshotWithRankedStillRestores(t *testing.T) {
	old, err := os.ReadFile("testdata/world-snapshot-ranked.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(old, []byte(`"ranked":`)) {
		t.Fatal("fixture holds no ranked candidate list")
	}
	want, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 1, old); err != nil {
		t.Fatal(err)
	}
	m, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("opening a state directory with ranked lists: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	if m.Snapshot() == nil {
		t.Fatal("the snapshot was not recovered")
	}
	if got := reencode(t, m.Snapshot()); !bytes.Equal(got, want) {
		t.Errorf("restored world differs from the pinned format\n got %s\nwant %s", got, want)
	}
}

// reencode restores ws into a fresh controller, master and provider and
// encodes the world they export through the production encoder, twice:
// once with every frozen record encoded afresh and once spliced from its
// cache. Both must agree.
func reencode(t *testing.T, ws *WorldSnapshot) []byte {
	t.Helper()
	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return ws.Provider.ClockSec })
	ctl := cluster.NewController(master, provider, nil, "")
	provider.RestoreState(ws.Provider)
	master.RestoreState(ws.Master)
	ctl.RestoreState(ws.Controller)
	world := &WorldSnapshot{
		TakenAtSeq: ws.TakenAtSeq,
		SrcSeqs:    ws.SrcSeqs,
		Controller: ctl.ExportState(),
		Master:     master.ExportState(),
		Provider:   provider.ExportState(),
	}
	e := newSnapshotEncoder()
	cold, err := e.encode(world)
	if err != nil {
		t.Fatal(err)
	}
	cold = bytes.Clone(cold)
	warm, err := e.encode(world)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("spliced encoding differs from the fresh one\n got %s\nwant %s", warm, cold)
	}
	return cold
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
