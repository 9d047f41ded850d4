package decomp

import (
	"fmt"

	"hypertree/internal/hypergraph"
)

// BagMaximalize applies the transformation of Lemma 4.6 in place: as long
// as some vertex v ∈ B(γu) \ Bu can be added to Bu without violating the
// connectedness condition, add it. The result is a bag-maximal
// decomposition of the same width (covers are unchanged).
func (d *Decomp) BagMaximalize() {
	for changed := true; changed; {
		changed = false
		for u := range d.Nodes {
			candidates := d.CoveredSet(u).Diff(d.Nodes[u].Bag)
			candidates.ForEach(func(v int) bool {
				if d.canAddToBag(u, v) {
					d.Nodes[u].Bag.Add(v)
					changed = true
				}
				return true
			})
		}
	}
}

// ToFNF transforms d into fractional normal form (Definition 5.20)
// following the proof of Theorem A.3. The width never increases. Returns
// an error only if the transformation fails to converge, which would
// indicate an invalid input decomposition.
func (d *Decomp) ToFNF() error {
	const maxRounds = 10000
	for round := 0; round < maxRounds; round++ {
		if !d.fnfStep() {
			return nil
		}
	}
	return fmt.Errorf("decomp: FNF transformation did not converge")
}

// fnfStep performs one normalization pass; it reports whether anything
// changed. Processing is top-down from the root, restarting after each
// structural change (the tree is rebuilt).
func (d *Decomp) fnfStep() bool {
	// Walk nodes in BFS order so parents are normalized before children.
	// One scratch and one components buffer serve every node of the pass
	// (and every restarted pass would reuse them too if it could; fnfStep
	// returns on the first structural change, so per-pass reuse is what
	// matters).
	var sc hypergraph.CompScratch
	var comps []hypergraph.VertexSet
	queue := []int{d.Root}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		br := d.Nodes[r].Bag
		comps = d.H.ComponentsOfWith(&sc, br, nil, comps[:0])
		for _, s := range d.Nodes[r].Children {
			bs := d.Nodes[s].Bag
			// Condition 2 violation: child bag inside parent bag.
			if bs.IsSubsetOf(br) {
				d.removeNode(s)
				return true
			}
			// Condition 3 violation: extend the bag. This cannot break
			// connectedness: the vertices added occur in Br (hence at r),
			// and s is adjacent to r.
			missing := d.CoveredSet(s).Intersect(br).Diff(bs)
			if !missing.IsEmpty() {
				d.Nodes[s].Bag = bs.Union(missing)
				return true
			}
			// Condition 1: the subtree must span exactly one
			// [Br]-component plus Br ∩ Bs.
			vts := d.SubtreeVertices(s)
			var touched []hypergraph.VertexSet
			for _, c := range comps {
				if c.Intersects(vts) {
					touched = append(touched, c)
				}
			}
			ok := len(touched) == 1 && vts.Equal(touched[0].Union(br.Intersect(bs)))
			if ok {
				continue
			}
			d.splitChild(r, s, touched)
			return true
		}
		queue = append(queue, d.Nodes[r].Children...)
	}
	return false
}

// splitChild replaces the subtree rooted at s (a child of r) by one
// subtree per [Br]-component in comps, as in the proof of Theorem A.3:
// the new subtree for component C consists of copies of the nodes n of Ts
// with Bn ∩ C ≠ ∅, with bags Bn ∩ (C ∪ Br) and unchanged covers.
func (d *Decomp) splitChild(r, s int, comps []hypergraph.VertexSet) {
	// Collect the subtree nodes of s in DFS order.
	var subtree []int
	var rec func(int)
	rec = func(u int) {
		subtree = append(subtree, u)
		for _, c := range d.Nodes[u].Children {
			rec(c)
		}
	}
	rec(s)

	br := d.Nodes[r].Bag

	// Detach s from r; the old subtree becomes unreachable and is dropped
	// by the compact call below.
	d.detach(s)

	for _, c := range comps {
		// Nodes of Ts whose bag intersects C; they induce a subtree of
		// Ts (Lemma A.2).
		members := map[int]bool{}
		for _, n := range subtree {
			if d.Nodes[n].Bag.Intersects(c) {
				members[n] = true
			}
		}
		if len(members) == 0 {
			continue
		}
		// The topmost member: the one whose parent chain reaches s first.
		copies := map[int]int{}
		cu := c.Union(br)
		var copyRec func(orig, parent int) int
		copyRec = func(orig, parent int) int {
			id := d.AddNode(parent, d.Nodes[orig].Bag.Intersect(cu), d.Nodes[orig].Cover)
			copies[orig] = id
			for _, ch := range d.Nodes[orig].Children {
				if members[ch] {
					copyRec(ch, id)
				} else {
					// A child outside the member set cannot have member
					// descendants: nodes(C) induces a connected subtree.
					// (Descend defensively to catch violations.)
					var probe func(int) bool
					probe = func(u int) bool {
						if members[u] {
							return true
						}
						for _, g := range d.Nodes[u].Children {
							if probe(g) {
								return true
							}
						}
						return false
					}
					if probe(ch) {
						// Splice the intermediate non-member chain out by
						// attaching the member descendants here.
						var attach func(int)
						attach = func(u int) {
							if members[u] {
								copyRec(u, id)
								return
							}
							for _, g := range d.Nodes[u].Children {
								attach(g)
							}
						}
						attach(ch)
					}
				}
			}
			return id
		}
		// Topmost member: first in DFS order.
		top := -1
		for _, n := range subtree {
			if members[n] {
				top = n
				break
			}
		}
		copyRec(top, r)
	}
	d.compact()
}

// detach removes the edge between u and its parent, leaving u's subtree
// dangling (used internally before re-attachment or deletion).
func (d *Decomp) detach(u int) {
	p := d.Nodes[u].Parent
	if p < 0 {
		return
	}
	ch := d.Nodes[p].Children
	for i, c := range ch {
		if c == u {
			d.Nodes[p].Children = append(ch[:i], ch[i+1:]...)
			break
		}
	}
	d.Nodes[u].Parent = -1
}

// removeNode deletes node u, attaching its children to its parent. The
// root cannot be removed unless it has exactly one child.
func (d *Decomp) removeNode(u int) {
	p := d.Nodes[u].Parent
	children := append([]int(nil), d.Nodes[u].Children...)
	if p < 0 {
		if len(children) != 1 {
			return
		}
		d.detachAll(u)
		d.Root = children[0]
		d.Nodes[children[0]].Parent = -1
		d.compact()
		return
	}
	d.detach(u)
	for _, c := range children {
		d.Nodes[c].Parent = p
		d.Nodes[p].Children = append(d.Nodes[p].Children, c)
	}
	d.Nodes[u].Children = nil
	d.compact()
}

func (d *Decomp) detachAll(u int) {
	d.Nodes[u].Children = nil
}

// compact rebuilds the node slice retaining only nodes reachable from the
// root, remapping indices.
func (d *Decomp) compact() {
	remap := map[int]int{}
	var order []int
	var rec func(int)
	rec = func(u int) {
		remap[u] = len(order)
		order = append(order, u)
		for _, c := range d.Nodes[u].Children {
			rec(c)
		}
	}
	rec(d.Root)
	nodes := make([]Node, len(order))
	for newID, oldID := range order {
		n := d.Nodes[oldID]
		var children []int
		for _, c := range n.Children {
			children = append(children, remap[c])
		}
		parent := -1
		if n.Parent >= 0 {
			parent = remap[n.Parent]
		}
		nodes[newID] = Node{Bag: n.Bag, Cover: n.Cover, Parent: parent, Children: children}
	}
	d.Nodes = nodes
	d.Root = 0
}
