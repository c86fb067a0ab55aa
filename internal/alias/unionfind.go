package alias

// dsu is a classic disjoint-set union with path halving and union by size.
// The cross-protocol merge (paper §4.1: consolidating SSH, BGP, and SNMPv3
// sets into 1.4M union sets) is a union-find over addresses.
type dsu struct {
	parent []int32
	size   []int32
}

// newDSU builds n singleton components.
func newDSU(n int) *dsu {
	d := &dsu{parent: make([]int32, n), size: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
		d.size[i] = 1
	}
	return d
}

// find returns the representative of x, halving paths as it walks.
func (d *dsu) find(x int32) int32 {
	for d.parent[x] != x {
		d.parent[x] = d.parent[d.parent[x]]
		x = d.parent[x]
	}
	return x
}

// union merges the components of a and b, returning the new representative.
func (d *dsu) union(a, b int32) int32 {
	ra, rb := d.find(a), d.find(b)
	if ra == rb {
		return ra
	}
	if d.size[ra] < d.size[rb] {
		ra, rb = rb, ra
	}
	d.parent[rb] = ra
	d.size[ra] += d.size[rb]
	return ra
}
