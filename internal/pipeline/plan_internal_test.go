package pipeline

import (
	"reflect"
	"slices"
	"testing"
)

// codegenNeutral lists the Config fields that change no pass: a Plan
// may share a pass run between columns that differ in them. NewPlan
// refuses Fallback and FaultHook in a plan of several columns, and a
// disagreement on Verify.
var codegenNeutral = map[string]bool{"Verify": true, "Fallback": true, "FaultHook": true}

// optionKeyed lists the Config fields that reach passes through their
// options, not through which passes run, with the passes whose keys
// must carry them.
var optionKeyed = map[string][]string{
	"Coalesce.Mode":            {"pinning-phi", "pre-pin"},
	"Coalesce.DepthConstraint": {"pinning-phi"},
}

// TestPassKeysCoverConfig: a Plan shares a pass run between columns
// whose pass keys agree, so a Config field that changes what a pass
// does without changing its key would make columns share a wrong
// prefix. Every field of Config, and of coalesce.Options under
// Coalesce, is flipped by reflection on every preset and on a base
// that runs every pass. A field listed as codegen-neutral must change
// no key; a field in optionKeyed must keep the pass list and change
// the key of each pass it lists; any other field must change which
// passes run on some base.
func TestPassKeysCoverConfig(t *testing.T) {
	bases := []Config{{Optimize: true, Psi: true, Sreedhar: true, ABI: true, PrePin: true,
		PhiCoalesce: true, NaiveABI: true, Chaitin: true}}
	for _, name := range Presets() {
		conf, _ := Preset(name)
		bases = append(bases, conf)
	}
	keys := func(c Config) []passKey {
		var ks []passKey
		for _, p := range c.passes() {
			ks = append(ks, p.passKey)
		}
		return ks
	}
	names := func(ks []passKey) []string {
		var ns []string
		for _, k := range ks {
			ns = append(ns, k.name)
		}
		return ns
	}

	for _, field := range leafFields(reflect.TypeOf(Config{}), "") {
		keysMoved, listMoved := false, false
		// seen and unkeyed hold, per pass in optionKeyed[field.path],
		// whether some base runs it and whether a flip left its key as is.
		seen, unkeyed := map[string]bool{}, map[string]bool{}
		for _, base := range bases {
			flipped := base
			flip(t, field, reflect.ValueOf(&flipped).Elem().FieldByIndex(field.index))
			before, after := keys(base), keys(flipped)
			sameList := slices.Equal(names(before), names(after))
			keysMoved = keysMoved || !slices.Equal(before, after)
			listMoved = listMoved || !sameList
			if !sameList || optionKeyed[field.path] == nil {
				continue
			}
			for i, k := range before {
				if slices.Contains(optionKeyed[field.path], k.name) {
					seen[k.name] = true
					unkeyed[k.name] = unkeyed[k.name] || k == after[i]
				}
			}
		}
		switch {
		case codegenNeutral[field.path]:
			if keysMoved {
				t.Errorf("%s is listed as codegen-neutral but changes pass keys", field.path)
			}
		case optionKeyed[field.path] != nil:
			if listMoved {
				t.Errorf("%s changes which passes run; it belongs out of optionKeyed", field.path)
			}
			for _, name := range optionKeyed[field.path] {
				switch {
				case !seen[name]:
					t.Errorf("%s: no base runs %s, so its key went unchecked", field.path, name)
				case unkeyed[name]:
					t.Errorf("%s changes what %s does but not its key", field.path, name)
				}
			}
		case !listMoved:
			t.Errorf("Config field %s is in no pass key, changes no pass list and is not listed as codegen-neutral", field.path)
		}
	}
}

// leafField is a non-struct field of Config, nested fields under their
// dotted path.
type leafField struct {
	path  string
	index []int
	kind  reflect.Kind
}

// leafFields returns the leaf fields of the struct type typ.
func leafFields(typ reflect.Type, prefix string) []leafField {
	var out []leafField
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() == reflect.Struct {
			for _, sub := range leafFields(f.Type, prefix+f.Name+".") {
				sub.index = append([]int{i}, sub.index...)
				out = append(out, sub)
			}
			continue
		}
		out = append(out, leafField{path: prefix + f.Name, index: []int{i}, kind: f.Type.Kind()})
	}
	return out
}

// flip sets v, the field's value in a copy of a base, to a value other
// than the one it has.
func flip(t *testing.T, field leafField, v reflect.Value) {
	t.Helper()
	switch field.kind {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.Int() == 0 {
			v.SetInt(1)
		} else {
			v.SetInt(0)
		}
	case reflect.Func:
		if v.IsNil() {
			v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value { return nil }))
		} else {
			v.Set(reflect.Zero(v.Type()))
		}
	default:
		t.Fatalf("Config field %s has kind %s, which this test cannot flip", field.path, field.kind)
	}
}
