package faultinject_test

import (
	"testing"

	"outofssa/internal/ir"
	"outofssa/internal/pipeline"
	"outofssa/internal/testprog"
)

// TestCheckedModeRunsCOWProbe: checked pipeline runs execute the probe
// on the entry function — visible as snapshot-counter movement that a
// plain run of the same function does not produce.
func TestCheckedModeRunsCOWProbe(t *testing.T) {
	conf := pipeline.Configs[pipeline.ExpLphiABIC]

	plain := testprog.Diamond()
	before := ir.Stats()
	if _, err := pipeline.Run(plain, conf); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	plainSnaps := ir.Stats().Snapshots - before.Snapshots

	checked := testprog.Diamond()
	conf.Verify = true
	before = ir.Stats()
	if _, err := pipeline.Run(checked, conf); err != nil {
		t.Fatalf("checked run: %v", err)
	}
	checkedSnaps := ir.Stats().Snapshots - before.Snapshots

	// The probe takes exactly two snapshots (parent + child).
	if checkedSnaps-plainSnaps != 2 {
		t.Fatalf("checked run took %d snapshots vs %d plain, want a delta of exactly 2 (the probe pair)", checkedSnaps, plainSnaps)
	}
}
