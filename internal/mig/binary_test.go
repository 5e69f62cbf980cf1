package mig_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"plim/internal/mig"
	"plim/internal/suite"
)

// randomMIG builds a canonically numbered graph with complemented and
// constant children, trivially foldable RawMaj nodes and awkward names
// (empty, spaces, newlines, non-ASCII) — everything the binary codec must
// carry that the text format cannot.
func randomMIG(seed int64) *mig.MIG {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"", "a", "with space", "line\nbreak", "tab\there", "ü", ".po 3 evil"}
	m := mig.New(names[rng.Intn(len(names))])
	sigs := []mig.Signal{mig.Const0, mig.Const1}
	for i := 0; i < 1+rng.Intn(9); i++ {
		sigs = append(sigs, m.AddPI(names[rng.Intn(len(names))]))
	}
	pick := func() mig.Signal { return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 0) }
	for i := 0; i < rng.Intn(400); i++ {
		if rng.Intn(8) == 0 {
			sigs = append(sigs, m.RawMaj(pick(), pick(), pick()))
		} else {
			sigs = append(sigs, m.Maj(pick(), pick(), pick()))
		}
	}
	for i := 0; i < rng.Intn(6); i++ {
		m.AddPO(pick(), names[rng.Intn(len(names))])
	}
	return m
}

// codecSeeds are the graphs the round-trip test checks and the fuzzer
// starts from: random graphs, a few benchmark generators, and degenerate
// shapes.
func codecSeeds(tb testing.TB) []*mig.MIG {
	tb.Helper()
	var seeds []*mig.MIG
	for seed := int64(1); seed <= 8; seed++ {
		seeds = append(seeds, randomMIG(seed))
	}
	for _, name := range []string{"ctrl", "int2float", "router", "sin"} {
		m, err := suite.BuildScaled(name, 8)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, m)
	}
	empty := mig.New("")
	constPO := mig.New("const")
	constPO.AddPO(mig.Const1, "one")
	return append(seeds, empty, constPO)
}

// sameGraph reports the first way got differs from want in fingerprint,
// PI/PO names or function (Eval on random words), or "".
func sameGraph(want, got *mig.MIG, rng *rand.Rand) string {
	if got.Fingerprint() != want.Fingerprint() {
		return "fingerprint"
	}
	if got.Name != want.Name || got.NumPIs() != want.NumPIs() || got.NumPOs() != want.NumPOs() {
		return "shape or model name"
	}
	for i := 0; i < want.NumPIs(); i++ {
		if got.PIName(i) != want.PIName(i) {
			return "PI name"
		}
	}
	for i := 0; i < want.NumPOs(); i++ {
		if got.POName(i) != want.POName(i) {
			return "PO name"
		}
	}
	in := make([]uint64, want.NumPIs())
	for round := 0; round < 4; round++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		if !slices.Equal(got.Eval(in), want.Eval(in)) {
			return "function"
		}
	}
	return ""
}

// TestBinaryRoundTrip: DecodeBinary(AppendBinary(m)) reproduces every seed
// graph fingerprint-, name- and function-identically, frozen and valid,
// and the encoding is canonical (re-encoding gives the same bytes).
func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, m := range codecSeeds(t) {
		enc := m.AppendBinary(nil)
		got, err := mig.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("seed %d (%q): %v", i, m.Name, err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("seed %d: decoded graph invalid: %v", i, err)
		}
		if !got.Frozen() {
			t.Fatalf("seed %d: decoded graph not frozen", i)
		}
		if diff := sameGraph(m, got, rng); diff != "" {
			t.Fatalf("seed %d (%q): round trip changed the %s", i, m.Name, diff)
		}
		if !bytes.Equal(got.AppendBinary(nil), enc) {
			t.Fatalf("seed %d: re-encoding differs", i)
		}
		// Appending keeps the prefix.
		if pre := m.AppendBinary([]byte("hdr")); !bytes.Equal(pre[:3], []byte("hdr")) || !bytes.Equal(pre[3:], enc) {
			t.Fatalf("seed %d: AppendBinary clobbered its prefix", i)
		}
	}
}

// TestBinaryMatchesTextFormat: for generator output the binary codec and
// the .mig text format describe the same graph, and the binary form is
// several times smaller.
func TestBinaryMatchesTextFormat(t *testing.T) {
	m, err := suite.BuildScaled("sin", 4)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := m.Write(&text); err != nil {
		t.Fatal(err)
	}
	textLen := text.Len()
	fromText, err := mig.Read(&text)
	if err != nil {
		t.Fatal(err)
	}
	enc := m.AppendBinary(nil)
	fromBinary, err := mig.DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fromBinary.Fingerprint() != fromText.Fingerprint() {
		t.Fatal("binary and text decodes disagree")
	}
	if 3*len(enc) > textLen {
		t.Fatalf("binary %d bytes vs text %d: want at least 3× smaller", len(enc), textLen)
	}
}

// TestBinaryRenumbersInterleavedPIs: like Write, AppendBinary renumbers a
// graph that created a PI after a majority node; the decoded graph is the
// same function and stable under a further round trip.
func TestBinaryRenumbersInterleavedPIs(t *testing.T) {
	m := mig.New("interleave")
	p := m.AddPI("p")
	q := m.AddPI("q")
	g := m.And(p, q.Not())
	r := m.AddPI("r")
	m.AddPO(m.Or(g, r).Not(), "o")
	got, err := mig.DecodeBinary(m.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	mig.MustBeEquivalent(m, got, 2, 7)
	again, err := mig.DecodeBinary(got.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	if again.Fingerprint() != got.Fingerprint() {
		t.Fatal("second round trip changed the fingerprint")
	}
}

func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeBinaryRejects covers each hardening rule with a hand-made
// input: truncation, varint overflow, counts beyond the remaining bytes,
// children that do not precede their node, out-of-range POs and trailing
// bytes are all errors.
func TestDecodeBinaryRejects(t *testing.T) {
	// "m", 1 PI "x", 1 node ⟨0 1 !1⟩ as id 2 (deltas 4−3, 3−2, 2−0), 1 PO.
	valid := append(append(uv(1), 'm'), append(uv(1, 1), 'x')...)
	valid = append(valid, uv(1, 1, 1, 2, 1, 4, 0)...)
	if _, err := mig.DecodeBinary(valid); err != nil {
		t.Fatalf("hand-made valid input rejected: %v", err)
	}
	for n := 0; n < len(valid); n++ {
		if _, err := mig.DecodeBinary(valid[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", n, len(valid))
		}
	}
	cases := map[string][]byte{
		"trailing byte":      append(slices.Clone(valid), 0),
		"varint overflow":    append(uv(0), bytes.Repeat([]byte{0xff}, 10)...),
		"huge name":          uv(1 << 40),
		"huge PI count":      uv(0, 1<<40),
		"huge node count":    uv(0, 0, 1<<40),
		"node count vs tail": uv(0, 0, 2, 1, 0, 0),
		"huge PO count":      uv(0, 0, 0, 1<<40),
		"child is the node":  uv(0, 0, 1, 0, 0, 0, 0),
		"child above node":   uv(0, 0, 1, 3, 0, 0, 0),
		"negative delta":     uv(0, 0, 1, 1, 2, 0, 0),
		"PO out of range":    uv(0, 0, 0, 1, 2, 0),
	}
	for why, in := range cases {
		if m, err := mig.DecodeBinary(in); err == nil {
			t.Errorf("%s: accepted as %d nodes", why, m.NumNodes())
		}
	}
}

// FuzzMIGBinaryRoundTrip feeds arbitrary bytes to DecodeBinary: it must
// return an error or a valid frozen graph — never panic, never allocate
// more than the input's length allows — and an accepted graph must survive
// a re-encode with its fingerprint, names and function unchanged.
func FuzzMIGBinaryRoundTrip(f *testing.F) {
	for _, m := range codecSeeds(f) {
		f.Add(m.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := mig.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		// Every count is checked against the bytes that remain, so the
		// decoder's memory is linear in the input: at most a PI's node,
		// table and name slots (~60 bytes) per input byte, plus a constant.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+4096); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return // rejected inputs are fine; acceptance is what's checked
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid graph: %v", err)
		}
		if !m.Frozen() {
			t.Fatal("decoded graph not frozen")
		}
		got, err := mig.DecodeBinary(m.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-encoded graph rejected: %v", err)
		}
		if diff := sameGraph(m, got, rand.New(rand.NewSource(int64(len(data))))); diff != "" {
			t.Fatalf("round trip changed the %s", diff)
		}
	})
}
