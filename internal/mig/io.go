package mig

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The .mig text format is a minimal line-oriented netlist:
//
//	.model <name>
//	.pi <name>            one line per primary input, in order
//	.maj <a> <b> <c>      one line per majority node, children as signals
//	.po <signal> [name]   one line per primary output, in order
//	.end
//
// Signals are written as a node index with an optional '!' prefix for
// complementation; "0" is the constant-0 node, so the constants are "0" and
// "!0". Node indices follow the file: the constant is node 0, the i-th .pi
// line is node i+1, and .maj lines continue the numbering.

// Write serializes the MIG in .mig format.
//
// The file format numbers nodes const-first, then all PIs, then all majority
// nodes, while in-memory graphs may interleave PI and majority creation
// freely. Signals are therefore renumbered into file order on the way out —
// writing an interleaved graph with raw in-memory ids would silently rebind
// its edges on Read. Names are written exactly as stored (a nameless PI or
// PO stays nameless), so a Write/Read round-trip of a canonically numbered
// graph preserves Fingerprint() — the property the fingerprint-keyed
// persistent cache depends on.
func (m *MIG) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", m.Name)
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
	tok := func(s Signal) string {
		if s.Complemented() {
			return fmt.Sprintf("!%d", fileID[s.Node()])
		}
		return fmt.Sprintf("%d", fileID[s.Node()])
	}
	for i := 0; i < m.NumPIs(); i++ {
		if name := m.piNames[i]; name != "" {
			fmt.Fprintf(bw, ".pi %s\n", name)
		} else {
			fmt.Fprintln(bw, ".pi")
		}
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		if n.kind != KindMaj {
			continue
		}
		fmt.Fprintf(bw, ".maj %s %s %s\n", tok(n.children[0]), tok(n.children[1]), tok(n.children[2]))
	}
	for i, po := range m.pos {
		name := m.poNames[i]
		if name == "" {
			fmt.Fprintf(bw, ".po %s\n", tok(po))
		} else {
			fmt.Fprintf(bw, ".po %s %s\n", tok(po), name)
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// Read parses a .mig file produced by Write. Majority nodes are inserted
// through RawMaj, which re-canonicalizes on load — children are sorted and
// structurally hashed — but never applies the trivial folding rules, so the
// file's exact node structure is preserved. Signals resolve through the
// file's own node numbering, so a duplicate .maj line (which structural
// hashing merges into the first) still occupies its file number and
// aliases the first node. For a graph in canonical numbering (PIs before
// majority nodes, as produced by Cleanup, the rewrite passes and the
// benchmark generators), Read(Write(m)) reproduces m
// fingerprint-identically; interleaved graphs are renumbered by Write and
// stabilize after one round trip.
func Read(r io.Reader) (*MIG, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 64*1024*1024)
	m := New("")
	// nodes maps file node numbers (0 = const, then PIs, then majority
	// nodes in order of appearance) to in-memory nodes; they differ once
	// strash merges a duplicate .maj line.
	nodes := []NodeID{0}
	lineNo := 0
	seenEnd := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case ".model":
			if len(fields) > 1 {
				m.Name = fields[1]
			}
		case ".pi":
			name := ""
			if len(fields) > 1 {
				name = fields[1]
			}
			if m.NumMaj() > 0 {
				return nil, fmt.Errorf("mig: line %d: .pi after .maj", lineNo)
			}
			nodes = append(nodes, m.AddPI(name).Node())
		case ".maj":
			if len(fields) != 4 {
				return nil, fmt.Errorf("mig: line %d: .maj needs 3 operands", lineNo)
			}
			var sig [3]Signal
			for i := 0; i < 3; i++ {
				s, err := parseSignal(fields[i+1], nodes)
				if err != nil {
					return nil, fmt.Errorf("mig: line %d: %v", lineNo, err)
				}
				sig[i] = s
			}
			nodes = append(nodes, m.RawMaj(sig[0], sig[1], sig[2]).Node())
		case ".po":
			if len(fields) < 2 {
				return nil, fmt.Errorf("mig: line %d: .po needs a signal", lineNo)
			}
			s, err := parseSignal(fields[1], nodes)
			if err != nil {
				return nil, fmt.Errorf("mig: line %d: %v", lineNo, err)
			}
			name := ""
			if len(fields) > 2 {
				name = fields[2]
			}
			m.AddPO(s, name)
		case ".end":
			seenEnd = true
		default:
			return nil, fmt.Errorf("mig: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seenEnd {
		return nil, fmt.Errorf("mig: missing .end")
	}
	return m, nil
}

// parseSignal parses a file signal token, resolving its file node number
// through nodes.
func parseSignal(tok string, nodes []NodeID) (Signal, error) {
	comp := false
	if strings.HasPrefix(tok, "!") {
		comp = true
		tok = tok[1:]
	}
	id, err := strconv.ParseUint(tok, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad signal %q: %v", tok, err)
	}
	if id >= uint64(len(nodes)) {
		return 0, fmt.Errorf("signal %q references node %d before its definition", tok, id)
	}
	return MakeSignal(nodes[id], comp), nil
}

// WriteDOT emits a Graphviz rendering of the MIG: majority nodes as circles,
// complemented edges dashed, PIs as boxes.
func (m *MIG) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "digraph %q {\n  rankdir=BT;\n", m.Name)
	fmt.Fprintln(bw, `  n0 [label="0",shape=box];`)
	for i := range m.nodes {
		n := &m.nodes[i]
		switch n.kind {
		case KindPI:
			name := m.piNames[n.piIndex]
			if name == "" {
				name = fmt.Sprintf("x%d", n.piIndex)
			}
			fmt.Fprintf(bw, "  n%d [label=%q,shape=box];\n", i, name)
		case KindMaj:
			fmt.Fprintf(bw, "  n%d [label=\"M%d\",shape=circle];\n", i, i)
			for _, c := range n.children {
				style := "solid"
				if c.Complemented() {
					style = "dashed"
				}
				fmt.Fprintf(bw, "  n%d -> n%d [style=%s];\n", c.Node(), i, style)
			}
		}
	}
	for i, po := range m.pos {
		name := m.poNames[i]
		if name == "" {
			name = fmt.Sprintf("y%d", i)
		}
		style := "solid"
		if po.Complemented() {
			style = "dashed"
		}
		fmt.Fprintf(bw, "  po%d [label=%q,shape=invtriangle];\n", i, name)
		fmt.Fprintf(bw, "  n%d -> po%d [style=%s];\n", po.Node(), i, style)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
