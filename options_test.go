package cynthia_test

import (
	"reflect"
	"slices"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/ddnnsim"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

// TestOptionSurfacePinned pins the exported fields of the repo's option
// structs. Every field is a knob someone can set, and a knob stays only
// if a caller sets it, so adding or removing one means editing this
// list, in plain sight in the diff.
func TestOptionSurfacePinned(t *testing.T) {
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[ddnnsim.Options](), []string{
			"Iterations", "StartIteration", "CheckpointEvery", "Faults", "TraceBin", "Seed",
			"NoOverlap", "LossEvery", "RecordIterations", "Trace"}},
		{reflect.TypeFor[cluster.RecoveryConfig](), []string{
			"Disabled", "CheckpointEvery", "RestartOverheadSec", "Sleep"}},
		{reflect.TypeFor[replay.Options](), []string{"Mode", "SnapshotEvery"}},
		{reflect.TypeFor[service.Config](), []string{
			"Provisioner", "Catalog", "QueueDepth", "Registry"}},
		{reflect.TypeFor[plan.Request](), []string{
			"Profile", "Goal", "Predictor", "Catalog", "Journal"}},
		{reflect.TypeFor[cloud.FaultPlan](), []string{
			"Seed", "TransientRate", "MaxConsecutiveTransient", "LaunchDelayMaxSec", "PreemptRate",
			"PreemptMinSec", "PreemptMaxSec", "PreemptAtSec", "PreemptNth", "KillMasterAtSec"}},
		{reflect.TypeFor[cluster.Controller](), []string{
			"Recovery", "AdvanceClock", "SimSeed", "QueueWorkers", "QueueDepth", "SLO", "Durability", "SpotStrategy"}},
	} {
		var got []string
		for i := range tc.typ.NumField() {
			if f := tc.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s exported fields = %q, want %q", tc.typ, got, tc.want)
		}
	}
}
