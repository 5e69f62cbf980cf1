package mig

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// freezeTestMIG is a random graph large enough to exercise the strash
// rebuild, including complemented and constant children.
func freezeTestMIG(seed int64) *MIG {
	rng := rand.New(rand.NewSource(seed))
	m := New("frz")
	sigs := []Signal{Const0, Const1}
	for i := 0; i < 8; i++ {
		sigs = append(sigs, m.AddPI(""))
	}
	pick := func() Signal { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0) }
	for i := 0; i < 300; i++ {
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	for i := 0; i < 6; i++ {
		m.AddPO(sigs[len(sigs)-1-i], "")
	}
	return m
}

func TestFreezeKeepsFingerprint(t *testing.T) {
	m := freezeTestMIG(1)
	want := m.Fingerprint()
	m.Freeze()
	if !m.Frozen() {
		t.Fatal("Frozen() = false after Freeze")
	}
	if got := m.Fingerprint(); got != want {
		t.Fatalf("frozen fingerprint %016x, want %016x", got, want)
	}
	m.Freeze() // idempotent
	if got := m.Fingerprint(); got != want {
		t.Fatalf("refrozen fingerprint %016x, want %016x", got, want)
	}
}

// TestFreezeShrinksMemSize: the frozen graph drops its strash, which the
// byte-budgeted caches see as a smaller entry.
func TestFreezeShrinksMemSize(t *testing.T) {
	m := freezeTestMIG(2)
	before := m.MemSize()
	m.Freeze()
	if after := m.MemSize(); after >= before {
		t.Fatalf("MemSize %d after Freeze, want < %d", after, before)
	}
}

// TestCloneOfFrozenMatchesCloneOfUnfrozen: the rebuilt strash of a frozen
// graph's clone is the one the graph had before freezing, so the clone is
// a fully working mutable graph.
func TestCloneOfFrozenMatchesCloneOfUnfrozen(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := freezeTestMIG(seed)
		plain := m.Clone()
		m.Freeze()
		thawed := m.Clone()
		if thawed.Frozen() {
			t.Fatal("clone of a frozen graph is frozen")
		}
		if thawed.Fingerprint() != plain.Fingerprint() || thawed.Fingerprint() != m.Fingerprint() {
			t.Fatalf("seed %d: clone fingerprints differ", seed)
		}
		if !reflect.DeepEqual(thawed.SortedStrashKeys(), plain.SortedStrashKeys()) {
			t.Fatalf("seed %d: rebuilt strash keys differ", seed)
		}
		if !reflect.DeepEqual(thawed.strash, plain.strash) {
			t.Fatalf("seed %d: rebuilt strash maps keys to different nodes", seed)
		}
		// Structural sharing works on the clone: re-adding an existing node
		// returns it, a new node grows the graph, and the source stays put.
		n := thawed.NumNodes()
		id := NodeID(n - 1)
		c := thawed.Children(id)
		if got := thawed.RawMaj(c[2], c[0], c[1]); got != MakeSignal(id, false) {
			t.Fatalf("seed %d: RawMaj of an existing node = %v, want %v", seed, got, MakeSignal(id, false))
		}
		if s, ok := thawed.LookupMaj(c[0], c[1], c[2]); !ok || s != MakeSignal(id, false) {
			t.Fatalf("seed %d: LookupMaj missed an existing node", seed)
		}
		thawed.AddPO(thawed.Maj(thawed.PO(0), thawed.PO(1).Not(), MakeSignal(thawed.PINode(0), false)), "new")
		if m.NumPOs() == thawed.NumPOs() || m.Fingerprint() != plain.Fingerprint() {
			t.Fatalf("seed %d: mutating the clone touched the frozen source", seed)
		}
	}
}

func TestFrozenGraphRejectsMutation(t *testing.T) {
	m := freezeTestMIG(3)
	a, b := MakeSignal(m.PINode(0), false), MakeSignal(m.PINode(1), true)
	c := MakeSignal(m.PINode(2), false)
	m.Freeze()
	for name, mutate := range map[string]func(){
		"Maj":       func() { m.Maj(a, b, c) },
		"RawMaj":    func() { m.RawMaj(a, b, c) },
		"LookupMaj": func() { m.LookupMaj(a, b, c) },
		"AddPI":     func() { m.AddPI("x") },
		"AddPO":     func() { m.AddPO(a, "y") },
		"SetPO":     func() { m.SetPO(0, a) },
		"Reset":     func() { m.Reset("z") },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s on a frozen graph did not panic", name)
				}
				if msg, _ := r.(string); !strings.Contains(msg, name) || !strings.Contains(msg, "frozen") {
					t.Fatalf("%s panicked with %v", name, r)
				}
			}()
			mutate()
		}()
	}
}

// TestFrozenGraphReads: every read a shared graph serves keeps working.
func TestFrozenGraphReads(t *testing.T) {
	m := freezeTestMIG(4)
	in := make([]uint64, m.NumPIs())
	for i := range in {
		in[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	want, wantStats, wantText := m.Eval(in), m.Statistics(), writeString(t, m)
	m.Freeze()
	if got := m.Eval(in); !reflect.DeepEqual(got, want) {
		t.Fatal("Eval changed after Freeze")
	}
	if m.Statistics() != wantStats {
		t.Fatal("Statistics changed after Freeze")
	}
	if writeString(t, m) != wantText {
		t.Fatal("serialization changed after Freeze")
	}
	if got := m.Cleanup(); got.Frozen() || got.Fingerprint() != m.Clone().Cleanup().Fingerprint() {
		t.Fatal("Cleanup of a frozen graph differs")
	}
}

func writeString(t *testing.T, m *MIG) string {
	t.Helper()
	var b strings.Builder
	if err := m.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
