package topology

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/crypto"
)

// Without returns a copy of g with all edges incident to excluded nodes
// removed. It is the reference definition of depths "excluding all
// malicious sensors": HonestDepth and ConnectedExcluding walk g in place
// and must agree with it.
func (g *Graph) Without(excluded map[NodeID]bool) *Graph {
	return g.Subgraph(func(a, b NodeID) bool {
		return !excluded[a] && !excluded[b]
	})
}

// randomGraph returns a graph over n nodes with each pair an edge with
// probability p, built with AddEdge.
func randomGraph(n int, p float64, rng *crypto.Stream) *Graph {
	g := New(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(a), NodeID(b))
			}
		}
	}
	return g
}

// TestDepthsExcludingMatchesWithout checks the in-place walk against the
// copy it replaces, on sparse and dense random graphs with random
// exclusion sets, some of which hold the root: depths, HonestDepth and
// ConnectedExcluding must agree with Without(ex).Depths(root) and the
// definitions built on it.
func TestDepthsExcludingMatchesWithout(t *testing.T) {
	rng := crypto.NewStreamFromSeed(21)
	rootExcluded := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + int(rng.Uint64()%40)
		g := randomGraph(n, []float64{0.05, 0.15, 0.4}[trial%3], rng)
		root := NodeID(rng.Uint64() % uint64(n))
		ex := map[NodeID]bool{}
		for k := int(rng.Uint64() % 6); k > 0; k-- {
			ex[NodeID(rng.Uint64()%uint64(n))] = true
		}
		if trial%7 == 0 {
			ex[root] = true
		}
		if ex[root] {
			rootExcluded++
		}
		name := fmt.Sprintf("trial %d (n=%d, root %d, excluded %v)", trial, n, root, ex)

		want := g.Without(ex).Depths(root)
		if got := g.depthsExcluding(root, ex); !slices.Equal(got, want) {
			t.Fatalf("%s: depths %v, want %v", name, got, want)
		}
		if got, want := g.HonestDepth(root, ex), g.Without(ex).Depth(root); got != want {
			t.Fatalf("%s: HonestDepth %d, want %d", name, got, want)
		}
		connected := true
		for id, d := range want {
			if !ex[NodeID(id)] && NodeID(id) != root && d == -1 {
				connected = false
			}
		}
		if got := g.ConnectedExcluding(root, ex); got != connected {
			t.Fatalf("%s: ConnectedExcluding %v, want %v", name, got, connected)
		}
		if got := g.Depths(root); !slices.Equal(got, g.Without(nil).Depths(root)) {
			t.Fatalf("%s: Depths %v differs from the copy's", name, got)
		}
	}
	if rootExcluded == 0 {
		t.Fatal("no trial excluded its root")
	}
}

// TestFromEdgesMatchesAddEdge builds random graphs both ways, from the
// same (a, b)-ordered edges, and requires the same neighbour lists and
// edge count, before and after further AddEdge calls (as
// stitchComponents makes), which must not write into another node's
// list.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := crypto.NewStreamFromSeed(22)
	same := func(name string, got, want *Graph) {
		t.Helper()
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: %d edges, want %d", name, got.NumEdges(), want.NumEdges())
		}
		for id := 0; id < want.NumNodes(); id++ {
			if g, w := got.Neighbors(NodeID(id)), want.Neighbors(NodeID(id)); !slices.Equal(g, w) {
				t.Fatalf("%s: node %d neighbours %v, want %v", name, id, g, w)
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + int(rng.Uint64()%50)
		want := randomGraph(n, []float64{0.02, 0.1, 0.5}[trial%3], rng)
		got := fromEdges(n, want.Edges())
		name := fmt.Sprintf("trial %d (n=%d)", trial, n)
		same(name, got, want)
		for k := 0; k < 5; k++ {
			a, b := NodeID(rng.Uint64()%uint64(n)), NodeID(rng.Uint64()%uint64(n))
			got.AddEdge(a, b)
			want.AddEdge(a, b)
			same(fmt.Sprintf("%s after AddEdge(%d, %d)", name, a, b), got, want)
		}
	}
	for _, shape := range [][2]int{{1, 1}, {1, 5}, {5, 1}, {3, 4}, {7, 7}} {
		rows, cols := shape[0], shape[1]
		want := New(rows * cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					want.AddEdge(NodeID(r*cols+c), NodeID(r*cols+c+1))
				}
				if r+1 < rows {
					want.AddEdge(NodeID(r*cols+c), NodeID((r+1)*cols+c))
				}
			}
		}
		same(fmt.Sprintf("grid %dx%d", rows, cols), Grid(rows, cols), want)
	}
}
