package core

import (
	"errors"
	"testing"
)

// parseSeeds is FuzzParseProductions' seed corpus; TestCheckFileMatchesInstall
// also runs the CheckFile oracle over every seed.
var parseSeeds = []string{
	"",
	mfiSrc,
	"prod p { match op == addq\n replace { addqi %rd, 1, %rd } }",
	"prod p { match class == store }",
	"prod { }",
	"prod p { replace { bogus $dr9, 1 } }",
	"# comment only\n",
	"prod p { match op == nosuchop\n replace { } }",
	"\x00{{}}",
}

// FuzzParseProductions asserts the production parser never panics on arbitrary
// input, that every rejection wraps ErrParse, and that CheckFile agrees with
// an install onto a fresh controller.
func FuzzParseProductions(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkAgreesWithInstall(t, src, nil)
		ps, err := ParseProductions(src)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("error %v does not wrap ErrParse", err)
			}
			return
		}
		for _, p := range ps {
			if p == nil {
				t.Fatal("nil production without error")
			}
		}
	})
}
