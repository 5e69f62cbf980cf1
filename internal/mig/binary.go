package mig

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary MIG encoding is the compact, machine-facing counterpart of the
// .mig text format (which stays the user-facing interchange format). Every
// integer is an unsigned varint (encoding/binary.AppendUvarint) and every
// string is a varint length followed by its bytes:
//
//	name                     string
//	#PIs, PI names           uvarint, one string per PI
//	#majority nodes          uvarint
//	per node (file id i)     uvarints i<<1 − c2, c2 − c1, c1 − c0
//	#POs, POs                uvarint, (uvarint signal, string name) per PO
//
// Node numbering is the text format's: the constant is node 0, PI k is node
// k+1 and majority nodes follow in order, so c0 ≤ c1 ≤ c2 are the node's
// sorted child signals in that numbering. Children precede their node, so
// c2 < i<<1 and all three deltas are small non-negative numbers — one or
// two bytes each for the local fanin of a generated or rewritten graph.

// minNodeBytes is the least encoding of one majority node (three one-byte
// varints); a node count is checked against it before anything is sized.
const minNodeBytes = 3

// AppendBinary appends the binary encoding of m to b and returns the
// extended slice. A graph that interleaves PI and majority creation is
// renumbered into file order, exactly like Write; for a canonically
// numbered graph DecodeBinary(AppendBinary(m)) reproduces m
// fingerprint-identically, names included.
func (m *MIG) AppendBinary(b []byte) []byte {
	b = appendString(b, m.Name)
	b = binary.AppendUvarint(b, uint64(len(m.piNodes)))
	for _, name := range m.piNames {
		b = appendString(b, name)
	}
	b = binary.AppendUvarint(b, uint64(m.NumMaj()))
	fileID := m.fileIDs()
	id := uint64(len(m.piNodes))
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		id++
		c := n.children
		if fileID != nil {
			c = sort3(fileSignal(fileID, c[0]), fileSignal(fileID, c[1]), fileSignal(fileID, c[2]))
		}
		b = binary.AppendUvarint(b, id<<1-uint64(c[2]))
		b = binary.AppendUvarint(b, uint64(c[2]-c[1]))
		b = binary.AppendUvarint(b, uint64(c[1]-c[0]))
	}
	b = binary.AppendUvarint(b, uint64(len(m.pos)))
	for i, po := range m.pos {
		if fileID != nil {
			po = fileSignal(fileID, po)
		}
		b = binary.AppendUvarint(b, uint64(po))
		b = appendString(b, m.poNames[i])
	}
	return b
}

// fileIDs maps in-memory node ids to file numbering (const, then PIs, then
// majority nodes), or returns nil when the two coincide — the canonical
// numbering of every generator, Cleanup and rewrite output.
func (m *MIG) fileIDs() []uint32 {
	canonical := true
	for i, pi := range m.piNodes {
		if pi != NodeID(i+1) {
			canonical = false
			break
		}
	}
	if canonical {
		return nil
	}
	fileID := make([]uint32, len(m.nodes))
	for i, pi := range m.piNodes {
		fileID[pi] = uint32(i + 1)
	}
	next := uint32(len(m.piNodes) + 1)
	for i := range m.nodes {
		if m.nodes[i].kind == KindMaj {
			fileID[i] = next
			next++
		}
	}
	return fileID
}

func fileSignal(fileID []uint32, s Signal) Signal {
	return MakeSignal(NodeID(fileID[s.Node()]), s.Complemented())
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeBinary decodes a graph written by AppendBinary. The input is
// untrusted (the persistent cache reads it from disk): every count is
// checked against the bytes that remain before anything is allocated,
// varint overflow is rejected, every child must precede its node, every PO
// must reference an existing node, and trailing bytes are an error — so a
// decoded graph always passes Validate.
//
// The node slice is sized once and no structural-hash map is built: the
// result is frozen (see Freeze) with its fingerprint recorded, ready to be
// shared as a cache entry. Clone it for a mutable copy.
func DecodeBinary(b []byte) (*MIG, error) {
	d := decoder{b: b}
	// Names are substrings of two string copies — one of the header
	// through the PI names, one of the PO section — rather than one
	// allocation per name.
	nameOff, nameLen := d.str()
	npi := d.count(1)              // a PI is at least its name's length byte
	piNames := make([][2]int, npi) // offset and length of each name in b
	for i := range piNames {
		piNames[i][0], piNames[i][1] = d.str()
	}
	head := string(b[:d.off])
	nmaj := d.count(minNodeBytes)
	if d.err == nil && npi+nmaj >= 1<<31 {
		d.fail("%d nodes overflow the signal range", npi+nmaj)
	}
	if d.err != nil {
		return nil, d.err
	}
	m := &MIG{
		Name:    head[nameOff : nameOff+nameLen],
		nodes:   make([]node, 1+npi+nmaj),
		piNodes: make([]NodeID, npi),
		piNames: make([]string, npi),
	}
	for i, nm := range piNames {
		m.nodes[i+1] = node{kind: KindPI, piIndex: int32(i)}
		m.piNodes[i] = NodeID(i + 1)
		m.piNames[i] = head[nm[0] : nm[0]+nm[1]]
	}
	for i := 1 + npi; i < len(m.nodes) && d.err == nil; i++ {
		top := uint64(i) << 1
		c2 := top - d.delta(1, top)
		c1 := c2 - d.delta(0, c2)
		c0 := c1 - d.delta(0, c1)
		m.nodes[i] = node{kind: KindMaj, children: [3]Signal{Signal(c0), Signal(c1), Signal(c2)}}
	}
	start := d.off
	npo := d.count(2) // a PO is at least its signal and name-length bytes
	poNames := make([][2]int, npo)
	m.pos = make([]Signal, npo)
	for i := 0; i < npo && d.err == nil; i++ {
		s := d.uvarint()
		if d.err == nil && s >= uint64(len(m.nodes))<<1 {
			d.fail("PO %d references node %d of %d", i, s>>1, len(m.nodes))
		}
		m.pos[i] = Signal(s)
		poNames[i][0], poNames[i][1] = d.str()
	}
	if d.err == nil && d.off != len(b) {
		d.fail("%d trailing bytes", len(b)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	tail := string(b[start:])
	m.poNames = make([]string, npo)
	for i, nm := range poNames {
		m.poNames[i] = tail[nm[0]-start : nm[0]-start+nm[1]]
	}
	m.Freeze()
	return m, nil
}

// decoder reads varints and length-prefixed strings from an untrusted
// buffer. The first failure sticks: later reads return zero values, so
// callers check err once per section rather than after every read.
type decoder struct {
	b   []byte
	off int
	err error
}

var errTruncated = errors.New("mig: binary graph truncated")

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("mig: binary graph: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.err = errTruncated
		return 0
	case n < 0:
		d.fail("varint overflows 64 bits at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads an element count and rejects it unless the remaining bytes
// can hold that many elements of at least minBytes each, which bounds
// every allocation sized from it by the input's length.
func (d *decoder) count(minBytes int) int {
	v := d.uvarint()
	if d.err == nil && v > uint64((len(d.b)-d.off)/minBytes) {
		d.fail("count %d exceeds the %d bytes that remain", v, len(d.b)-d.off)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// delta reads one child delta, which must lie in [lo, hi].
func (d *decoder) delta(lo, hi uint64) uint64 {
	v := d.uvarint()
	if d.err == nil && (v < lo || v > hi) {
		d.fail("child delta %d out of range [%d, %d] at offset %d", v, lo, hi, d.off)
	}
	if d.err != nil {
		return 0
	}
	return v
}

// str reads a length-prefixed string and returns its offset and length.
func (d *decoder) str() (off, n int) {
	v := d.uvarint()
	if d.err == nil && v > uint64(len(d.b)-d.off) {
		d.err = errTruncated
	}
	if d.err != nil {
		return d.off, 0
	}
	off = d.off
	d.off += int(v)
	return off, int(v)
}
