package lai_test

import (
	"os"
	"path/filepath"
	"testing"

	"outofssa/internal/lai"
)

// FuzzLAIParse feeds arbitrary text to ParseFile, the parser laocd runs
// on every "lai" request body. It must never panic, and every function
// it accepts must pass ir.Verify: the pipeline builds on that
// structure without checking it again.
func FuzzLAIParse(f *testing.F) {
	files, err := filepath.Glob("testdata/*.lai")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add(fig1)
	f.Add(".func f\n.input A:R0\nentry:\n    add X^R1, A^R1, A\n    ret X\n.endfunc\n")
	f.Fuzz(func(t *testing.T, src string) {
		fs, err := lai.ParseFile(src)
		if err != nil {
			return
		}
		for _, fn := range fs {
			if err := fn.Verify(); err != nil {
				t.Fatalf("ParseFile accepted %s, which fails ir.Verify: %v\n%s", fn.Name, err, src)
			}
		}
	})
}
