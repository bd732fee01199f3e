package phylip

import "fmt"

// NeighborJoin reconstructs an unrooted tree from a symmetric distance
// matrix with the Saitou-Nei neighbor-joining algorithm (the PHYLIP
// `neighbor` program).
func NeighborJoin(d [][]float64) (*Tree, error) {
	n := len(d)
	if n < 2 {
		return nil, fmt.Errorf("phylip: neighbor joining needs >= 2 taxa, got %d", n)
	}
	for i := range d {
		if len(d[i]) != n {
			return nil, fmt.Errorf("phylip: distance matrix row %d has %d entries, want %d", i, len(d[i]), n)
		}
	}
	tree := NewTree(n)
	if n == 2 {
		tree.AddEdge(0, 1, d[0][1])
		return tree, nil
	}

	// active holds the node ids of current clusters; dist is a working
	// copy indexed by position in active.
	active := make([]int, n)
	for i := range active {
		active[i] = i
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = append([]float64(nil), d[i]...)
	}
	nextNode := n

	for len(active) > 3 {
		m := len(active)
		// Row sums.
		r := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				r[i] += dist[i][j]
			}
		}
		// Minimize the Q criterion.
		bestI, bestJ := 0, 1
		bestQ := 0.0
		first := true
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				q := float64(float64(m-2)*dist[i][j]) - r[i] - r[j]
				if first || q < bestQ {
					first = false
					bestQ = q
					bestI, bestJ = i, j
				}
			}
		}
		// Branch lengths to the new internal node.
		dij := dist[bestI][bestJ]
		li := float64(0.5*dij) + (r[bestI]-r[bestJ])/(2*float64(m-2))
		lj := dij - li
		if li < 0 {
			li = 0
		}
		if lj < 0 {
			lj = 0
		}
		u := nextNode
		nextNode++
		tree.AddEdge(active[bestI], u, li)
		tree.AddEdge(active[bestJ], u, lj)

		// New distances from u to every other cluster.
		newRow := make([]float64, 0, m-1)
		var newActive []int
		for k := 0; k < m; k++ {
			if k == bestI || k == bestJ {
				continue
			}
			duk := 0.5 * (dist[bestI][k] + dist[bestJ][k] - dij)
			if duk < 0 {
				duk = 0
			}
			newRow = append(newRow, duk)
			newActive = append(newActive, active[k])
		}
		// Rebuild the working matrix with u appended.
		m2 := len(newActive) + 1
		nd := make([][]float64, m2)
		for i := range nd {
			nd[i] = make([]float64, m2)
		}
		oldIdx := make([]int, 0, m-2)
		for k := 0; k < m; k++ {
			if k != bestI && k != bestJ {
				oldIdx = append(oldIdx, k)
			}
		}
		for a := 0; a < len(oldIdx); a++ {
			for b := 0; b < len(oldIdx); b++ {
				nd[a][b] = dist[oldIdx[a]][oldIdx[b]]
			}
		}
		for a := 0; a < len(newRow); a++ {
			nd[a][m2-1] = newRow[a]
			nd[m2-1][a] = newRow[a]
		}
		dist = nd
		active = append(newActive, u)
	}

	// Terminal 3-star.
	u := nextNode
	d01, d02, d12 := dist[0][1], dist[0][2], dist[1][2]
	l0 := (d01 + d02 - d12) / 2
	l1 := (d01 + d12 - d02) / 2
	l2 := (d02 + d12 - d01) / 2
	for _, l := range []*float64{&l0, &l1, &l2} {
		if *l < 0 {
			*l = 0
		}
	}
	tree.AddEdge(active[0], u, l0)
	tree.AddEdge(active[1], u, l1)
	tree.AddEdge(active[2], u, l2)
	return tree, nil
}
