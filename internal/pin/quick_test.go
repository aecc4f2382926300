package pin_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"outofssa/internal/ir"
	"outofssa/internal/pin"
)

// TestResourcesQuick checks the union-find against a naive map-based
// model under random operation sequences, including the physical-root
// invariants and exact, sorted membership. It also holds on to a
// Members slice taken before each Union: the union must not write into
// it. Changed must move only for the root of a class a Union grew, to
// that Union's generation.
func TestResourcesQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := ir.NewFunc("q")
		var vals []ir.ValueID
		for i := 0; i < 12; i++ {
			vals = append(vals, f.NewValue(""))
		}
		vals = append(vals, f.Target.R[0], f.Target.R[1], f.Target.SP)

		res, err := pin.NewResources(f)
		if err != nil {
			return false
		}
		// Model: class id per value.
		model := make(map[ir.ValueID]int)
		for i, v := range vals {
			model[v] = i
		}
		classPhys := func(c int) ir.ValueID {
			for v, cv := range model {
				if cv == c && f.IsPhys(v) {
					return v
				}
			}
			return ir.NoValue
		}
		for op := 0; op < 60; op++ {
			a := vals[rng.Intn(len(vals))]
			b := vals[rng.Intn(len(vals))]
			pa, pb := classPhys(model[a]), classPhys(model[b])
			before := res.Members(a)
			kept := slices.Clone(before)
			changed := make(map[ir.ValueID]uint64) // root -> Changed before the op
			for _, v := range vals {
				r := res.Find(v)
				changed[r] = res.Changed(r)
			}
			_, err := res.Union(a, b)
			if !slices.Equal(before, kept) {
				return false // Union wrote into a slice Members returned
			}
			wantErr := pa != ir.NoValue && pb != ir.NoValue && pa != pb
			if wantErr != (err != nil) {
				return false
			}
			grown := ir.NoValue // the root of the class this op grew, if any
			if err == nil && model[a] != model[b] {
				grown = res.Find(a)
				// Merge in the model.
				ca, cb := model[a], model[b]
				for v, c := range model {
					if c == cb {
						model[v] = ca
					}
				}
			}
			for _, v := range vals {
				r := res.Find(v)
				want := changed[r]
				if r == grown {
					want = res.Gen()
				}
				if res.Changed(r) != want {
					return false // Changed moved for a class no Union grew
				}
			}
			// Invariants after every op.
			for _, x := range vals {
				for _, y := range vals {
					if (model[x] == model[y]) != (res.Find(x) == res.Find(y)) {
						return false
					}
				}
				root := res.Find(x)
				if p := classPhys(model[x]); p != ir.NoValue {
					if root != p {
						return false // physical register must be the representative
					}
				} else if f.IsPhys(root) {
					return false
				}
				// Members must be exactly the model class, in ID order.
				var want []ir.ValueID
				for _, v := range vals {
					if model[v] == model[x] {
						want = append(want, v)
					}
				}
				slices.Sort(want)
				if !slices.Equal(res.Members(x), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
