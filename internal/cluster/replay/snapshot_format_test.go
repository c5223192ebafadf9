package replay

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
)

// TestSnapshotFormatPinned restores a committed snapshot into a fresh
// controller, master and provider and exports it again: the encoding
// must come back byte-identical, so state directories written by older
// builds keep restoring. testdata/world-snapshot.json was written by
// the code that still copied every persisted field by hand. It holds a
// finished job and an elastic spot job caught at its second recovery
// barrier under a fault plan with a consumed master kill, so every
// SegmentState and FaultState field is set.
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

	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return ws.Provider.ClockSec })
	ctl := cluster.NewController(master, provider, nil, "")
	provider.RestoreState(ws.Provider)
	master.RestoreState(ws.Master)
	ctl.RestoreState(ws.Controller)
	got, err := json.Marshal(&WorldSnapshot{
		TakenAtSeq: ws.TakenAtSeq,
		SrcSeqs:    ws.SrcSeqs,
		Controller: ctl.ExportState(),
		Master:     master.ExportState(),
		Provider:   provider.ExportState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-encoded snapshot differs from the committed one\n got %s\nwant %s", got, want)
	}
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
