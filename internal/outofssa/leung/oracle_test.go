package leung

import (
	"outofssa/internal/bitset"
	"outofssa/internal/interference"
	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// resourceGraphMarks is the mark phase's reference: Resource_killed
// asked of a ResourceGraph one value at a time, one class's members
// against each other (TestTablesUnderKillOracle).
func resourceGraphMarks(an *interference.Analysis, res *pin.Resources) *bitset.Set {
	f := res.Func()
	rg := interference.NewResourceGraph(an, res)
	killed := bitset.New(f.NumValues())
	for id := 0; id < f.NumValues(); id++ {
		if v := ir.ValueID(id); !f.IsPhys(v) && rg.IsKilled(v) {
			killed.Add(id)
		}
	}
	return killed
}
