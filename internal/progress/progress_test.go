package progress

import (
	"context"
	"testing"
)

func TestEmitOnNilFuncIsANoOp(t *testing.T) {
	var f Func
	f.Emit(RewriteCycle{Function: "f", Cycle: 1}) // must not panic
}

func TestEmitDelivers(t *testing.T) {
	var got []Event
	f := Func(func(ev Event) { got = append(got, ev) })
	f.Emit(CompileStart{Function: "f", Config: "full"})
	if len(got) != 1 || got[0] != (CompileStart{Function: "f", Config: "full"}) {
		t.Fatalf("delivered %v", got)
	}
}

func TestContextRoundTrip(t *testing.T) {
	calls := 0
	f := Func(func(Event) { calls++ })
	ctx := NewContext(context.Background(), f)
	got := FromContext(ctx)
	if got == nil {
		t.Fatal("observer lost in the context")
	}
	got.Emit(BenchmarkStart{})
	if calls != 1 {
		t.Fatalf("extracted observer called %d times, want 1", calls)
	}

	// A nested observer replaces the outer one for the derived context.
	inner := 0
	nested := NewContext(ctx, func(Event) { inner++ })
	FromContext(nested).Emit(BenchmarkStart{})
	if inner != 1 || calls != 1 {
		t.Fatalf("nested observer: inner %d outer %d calls, want 1 and 1", inner, calls)
	}
}

func TestFromBareContextIsNil(t *testing.T) {
	if f := FromContext(context.Background()); f != nil {
		t.Fatal("bare context carries an observer")
	}
	// NewContext with a nil observer leaves the context bare.
	ctx := context.Background()
	if NewContext(ctx, nil) != ctx {
		t.Fatal("NewContext(ctx, nil) derived a new context")
	}
}
