package callgraph

import (
	"reflect"
	"testing"

	"repro/gmac"
)

// nonAccess lists the gmac.Context methods that take a gmac.Ptr without
// reading or writing the shared bytes behind it.
var nonAccess = map[string]bool{
	"Free": true, "Safe": true, "IsShared": true, "Degraded": true,
	"Region": true, "Float32s": true, "Uint32s": true,
}

// TestHostAccessTableCoversContext walks the method set of *gmac.Context:
// every method with a gmac.Ptr parameter must be classified, either in
// hostAccess or in nonAccess, and every hostAccess entry must name a Ptr
// parameter of a real method. A new session method then fails here until
// someone decides whether it is a host access.
func TestHostAccessTableCoversContext(t *testing.T) {
	ptr := reflect.TypeOf(gmac.Ptr(0))
	ctx := reflect.TypeOf(&gmac.Context{})
	isPtr := func(p reflect.Type) bool {
		return p == ptr || p.Kind() == reflect.Slice && p.Elem() == ptr
	}
	for i := 0; i < ctx.NumMethod(); i++ {
		m := ctx.Method(i)
		takesPtr := false
		for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
			takesPtr = takesPtr || isPtr(m.Type.In(j))
		}
		_, access := hostAccess[m.Name]
		switch {
		case access && nonAccess[m.Name]:
			t.Errorf("%s is both a host access and a non-access", m.Name)
		case takesPtr && !access && !nonAccess[m.Name]:
			t.Errorf("(*gmac.Context).%s takes a gmac.Ptr but is unclassified: add it to hostAccess (mode.go) or nonAccess", m.Name)
		case !takesPtr && (access || nonAccess[m.Name]):
			t.Errorf("(*gmac.Context).%s takes no gmac.Ptr but is classified", m.Name)
		}
	}
	for name, accesses := range hostAccess {
		m, ok := ctx.MethodByName(name)
		if !ok {
			t.Errorf("hostAccess names %s, which *gmac.Context does not have", name)
			continue
		}
		for _, a := range accesses {
			if j := a.arg + 1; j >= m.Type.NumIn() || m.Type.In(j) != ptr {
				t.Errorf("hostAccess[%s]: argument %d is not a gmac.Ptr", name, a.arg)
			}
		}
	}
	for name := range nonAccess {
		if _, ok := ctx.MethodByName(name); !ok {
			t.Errorf("nonAccess names %s, which *gmac.Context does not have", name)
		}
	}
}
