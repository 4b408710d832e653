package main

import (
	"fmt"
	"testing"
)

// Every value of each enum flag parses back from its String() name, and
// an unknown name is rejected.
func TestEnumFlagsRoundTrip(t *testing.T) {
	roundTrip(t, "technique", techniques)
	roundTrip(t, "model", models)
	roundTrip(t, "recovery", recoveries)
	roundTrip(t, "transport", transports)
}

func roundTrip[T interface {
	comparable
	fmt.Stringer
}](t *testing.T, name string, vals []T) {
	t.Helper()
	f := &enumFlag[T]{vals: vals}
	for _, v := range vals {
		if err := f.Set(v.String()); err != nil {
			t.Errorf("-%s %s: %v", name, v, err)
		} else if f.val != v {
			t.Errorf("-%s %s parsed as %s", name, v, f.val)
		}
	}
	if err := f.Set("bogus"); err == nil {
		t.Errorf("-%s accepted %q", name, "bogus")
	}
}
