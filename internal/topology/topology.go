// Package topology models multi-hop sensor-network topologies: undirected
// graphs over sensor nodes, generators for the deployment shapes used in
// the paper's discussion and evaluation (random geometric deployments,
// grids, lines), and the depth computations that define the paper's
// parameter L.
//
// The paper (Section III) defines the depth of a sensor as the length of
// the shortest path from that sensor to the base station, and the depth of
// the network as the maximum sensor depth after excluding all malicious
// sensors. VMAT only assumes a rough upper bound L on that depth.
package topology

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/crypto"
)

// NodeID identifies a node. By convention node 0 is the base station.
type NodeID int

// BaseStation is the conventional identity of the base station node.
const BaseStation NodeID = 0

// Graph is an undirected graph over nodes 0..N-1. The zero value is not
// usable; construct with New.
type Graph struct {
	n     int
	adj   [][]NodeID // sorted neighbor lists, the one record of the edges
	edges int        // undirected edge count
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("topology: graph must have at least one node, got %d", n))
	}
	return &Graph{n: n, adj: make([][]NodeID, n)}
}

// NumNodes returns the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.n }

// AddEdge inserts the undirected edge (a, b). Self-loops and duplicate
// edges are ignored.
func (g *Graph) AddEdge(a, b NodeID) {
	if a == b || a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		return
	}
	i, found := slices.BinarySearch(g.adj[a], b)
	if found {
		return
	}
	g.adj[a] = slices.Insert(g.adj[a], i, b)
	j, _ := slices.BinarySearch(g.adj[b], a)
	g.adj[b] = slices.Insert(g.adj[b], j, a)
	g.edges++
}

// HasEdge reports whether the undirected edge (a, b) exists.
func (g *Graph) HasEdge(a, b NodeID) bool {
	if a < 0 || b < 0 || int(a) >= g.n || int(b) >= g.n {
		return false
	}
	_, found := slices.BinarySearch(g.adj[a], b)
	return found
}

// Neighbors returns the sorted neighbor list of id. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(id NodeID) []NodeID {
	if id < 0 || int(id) >= g.n {
		return nil
	}
	return g.adj[id]
}

// Degree returns the number of neighbors of id.
func (g *Graph) Degree(id NodeID) int { return len(g.Neighbors(id)) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Edges returns all undirected edges with a < b, in sorted order: the
// sorted neighbor lists, walked in node order, already yield it.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.edges)
	for a, nbs := range g.adj {
		for _, b := range nbs {
			if NodeID(a) < b {
				out = append(out, [2]NodeID{NodeID(a), b})
			}
		}
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	return g.Subgraph(func(a, b NodeID) bool { return true })
}

// Subgraph returns a copy of g keeping only edges for which keep returns
// true, called with a < b. Nodes are preserved.
func (g *Graph) Subgraph(keep func(a, b NodeID) bool) *Graph {
	c := New(g.n)
	for _, e := range g.Edges() {
		if keep(e[0], e[1]) {
			c.AddEdge(e[0], e[1])
		}
	}
	return c
}

// Depths returns the BFS depth of every node from root, or -1 for nodes
// unreachable from root.
func (g *Graph) Depths(root NodeID) []int {
	return g.depthsExcluding(root, nil)
}

// depthsExcluding returns the BFS depths from root in g with every edge
// at an excluded node removed, without building that graph: the search
// never enters an excluded node, and an excluded root reaches nothing.
// It is how depths "excluding all malicious sensors" are taken, per the
// paper's definition of network depth.
func (g *Graph) depthsExcluding(root NodeID, excluded map[NodeID]bool) []int {
	depth := make([]int, g.n)
	for i := range depth {
		depth[i] = -1
	}
	if root < 0 || int(root) >= g.n {
		return depth
	}
	depth[root] = 0
	if excluded[root] {
		return depth
	}
	queue := make([]NodeID, 1, g.n)
	queue[0] = root
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range g.adj[cur] {
			if depth[nb] == -1 && !excluded[nb] {
				depth[nb] = depth[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return depth
}

// Depth returns the network depth from root: the maximum finite BFS depth.
// Unreachable nodes are ignored.
func (g *Graph) Depth(root NodeID) int {
	return maxDepth(g.Depths(root))
}

// HonestDepth returns the paper's L for this deployment: the depth of the
// network from the base station after excluding the given malicious nodes.
func (g *Graph) HonestDepth(root NodeID, malicious map[NodeID]bool) int {
	return maxDepth(g.depthsExcluding(root, malicious))
}

// maxDepth returns the largest finite depth, or 0 if there is none.
func maxDepth(depths []int) int {
	return max(0, slices.Max(depths))
}

// Connected reports whether every node is reachable from root.
func (g *Graph) Connected(root NodeID) bool {
	for id, d := range g.Depths(root) {
		if d == -1 && NodeID(id) != root {
			return false
		}
	}
	return true
}

// ConnectedExcluding reports whether every non-excluded node is reachable
// from root without traversing excluded nodes. The paper assumes malicious
// sensors do not partition the honest sensors from the base station.
func (g *Graph) ConnectedExcluding(root NodeID, excluded map[NodeID]bool) bool {
	for id, d := range g.depthsExcluding(root, excluded) {
		if excluded[NodeID(id)] || NodeID(id) == root {
			continue
		}
		if d == -1 {
			return false
		}
	}
	return true
}

// Line returns a path graph 0-1-2-...-(n-1). Its depth from node 0 is n-1,
// the worst case for the paper's L.
func Line(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	return g
}

// Ring returns a cycle over n nodes.
func Ring(n int) *Graph {
	g := Line(n)
	if n > 2 {
		g.AddEdge(0, NodeID(n-1))
	}
	return g
}

// Star returns a star with node 0 at the center, the single-level
// aggregation setting of early secure-aggregation work.
func Star(n int) *Graph {
	g := New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(0, NodeID(i))
	}
	return g
}

// Grid returns a rows x cols grid graph. Node 0 (the base station) sits at
// the corner (0, 0); node r*cols+c sits at (r, c).
func Grid(rows, cols int) *Graph {
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	edges := make([][2]NodeID, 0, 2*rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]NodeID{id(r, c), id(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]NodeID{id(r, c), id(r+1, c)})
			}
		}
	}
	return fromEdges(rows*cols, edges)
}

// fromEdges builds a graph over n nodes from distinct edges (a, b) with
// a < b, given in (a, b) order. Every neighbour list is carved out of one
// array, and each comes out sorted: a node's lower neighbours arrive
// first, in order, then its higher ones. Each list is capped at its
// degree, so a later AddEdge reallocates the list it grows instead of
// writing into the next one.
func fromEdges(n int, edges [][2]NodeID) *Graph {
	g := New(n)
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	buf := make([]NodeID, 2*len(edges))
	for id, d := range deg {
		g.adj[id], buf = buf[:0:d], buf[d:]
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	g.edges = len(edges)
	return g
}

// RandomGeometric places n nodes uniformly in the unit square, connects
// pairs within the given radio radius, and returns the graph together with
// the node coordinates. Node 0 is pinned to the corner (0, 0) to play the
// base station. If the resulting graph is disconnected, each stranded
// component is attached to its nearest connected node so the returned
// graph is always connected (the paper's system model assumes honest
// sensors are not partitioned).
func RandomGeometric(n int, radius float64, rng *crypto.Stream) (*Graph, [][2]float64) {
	pts := make([][2]float64, n)
	pts[0] = [2]float64{0, 0}
	for i := 1; i < n; i++ {
		pts[i] = [2]float64{rng.Float64(), rng.Float64()}
	}
	var edges [][2]NodeID
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dist(pts[i], pts[j]) <= radius {
				edges = append(edges, [2]NodeID{NodeID(i), NodeID(j)})
			}
		}
	}
	g := fromEdges(n, edges)
	stitchComponents(g, pts)
	return g, pts
}

// stitchComponents connects any component unreachable from node 0 to the
// reachable set via the geometrically closest node pair.
func stitchComponents(g *Graph, pts [][2]float64) {
	for {
		depths := g.Depths(0)
		bestI, bestJ := -1, -1
		best := math.Inf(1)
		anyStranded := false
		for i := 0; i < g.n; i++ {
			if depths[i] != -1 {
				continue
			}
			anyStranded = true
			for j := 0; j < g.n; j++ {
				if depths[j] == -1 {
					continue
				}
				if d := dist(pts[i], pts[j]); d < best {
					best, bestI, bestJ = d, i, j
				}
			}
		}
		if !anyStranded {
			return
		}
		g.AddEdge(NodeID(bestI), NodeID(bestJ))
	}
}

func dist(a, b [2]float64) float64 {
	dx, dy := a[0]-b[0], a[1]-b[1]
	return math.Sqrt(dx*dx + dy*dy)
}
