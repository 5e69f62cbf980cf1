package mig

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// dupMaj repeats a .maj line: structural hashing merges file node 5 into
// file node 4, and the .po must still mean file node 5 = ⟨x y z⟩, not the
// in-memory node that follows the merge (file node 6 = ⟨x y ¬z⟩).
const dupMaj = ".pi x\n.pi y\n.pi z\n.maj 1 2 3\n.maj 1 2 3\n.maj 1 2 !3\n.po 5\n.end\n"

// TestReadDuplicateMajAliasesFirst: a duplicate .maj line aliases the
// first node, and later references keep the file's numbering.
func TestReadDuplicateMajAliasesFirst(t *testing.T) {
	m, err := Read(strings.NewReader(dupMaj))
	if err != nil {
		t.Fatal(err)
	}
	if m.NumMaj() != 2 {
		t.Fatalf("NumMaj = %d, want 2 (the duplicate merges)", m.NumMaj())
	}
	// Bit j of the three input words is assignment j of (x, y, z).
	x, y, z := uint64(0b10101010), uint64(0b11001100), uint64(0b11110000)
	want := (x & y) | (x & z) | (y & z)
	if got := m.Eval([]uint64{x, y, z})[0] & 0xff; got != want {
		t.Fatalf("output = %08b, want maj(x,y,z) = %08b", got, want)
	}
}

// FuzzMIGRead feeds arbitrary text to Read: it must return an error, never
// panic, and any graph it accepts must be valid and survive a Write/Read
// round trip with its fingerprint and its function (Eval on random words)
// unchanged.
func FuzzMIGRead(f *testing.F) {
	f.Add(dupMaj)
	f.Add(".model m\n.end\n")
	f.Add(".model raw\n.pi p\n.pi q\n.maj 1 1 2\n.po 3 o\n.po !0\n.end\n")
	var buf bytes.Buffer
	if err := buildFpMIG("seed").Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Read(strings.NewReader(src))
		if err != nil {
			return // rejected inputs are fine; acceptance is what's checked
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid graph: %v", err)
		}
		var out bytes.Buffer
		if err := m.Write(&out); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected %q: %v", out.String(), err)
		}
		if got.Fingerprint() != m.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint:\n%s", out.String())
		}
		rng := rand.New(rand.NewSource(int64(len(src))))
		in := make([]uint64, m.NumPIs())
		for i := range in {
			in[i] = rng.Uint64()
		}
		if !slices.Equal(m.Eval(in), got.Eval(in)) {
			t.Fatalf("round trip changed the function:\n%s", out.String())
		}
	})
}
