//! Adjacency-list graphs over contiguous vertex ids.

/// Vertex identifier. Graphs use contiguous ids `0..num_vertices`;
/// [`crate::io`] remaps arbitrary external ids on load.
pub type VertexId = u64;

/// A graph stored as adjacency lists.
///
/// Undirected graphs store every edge in both endpoint lists; directed
/// graphs store out-edges only. Self-loops are allowed, parallel edges are
/// collapsed at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<VertexId>>,
    directed: bool,
    num_edges: usize,
}

impl Graph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges (each undirected edge counted once).
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether edges are directed.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// All vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.adjacency.len() as VertexId
    }

    /// Neighbours of `v` (out-neighbours for directed graphs).
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v as usize]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency[v as usize].len()
    }

    /// True when the edge `u -> v` exists (`u - v` for undirected graphs).
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adjacency[u as usize].binary_search(&v).is_ok()
    }

    /// Iterate over directed edges; undirected edges appear in both
    /// directions (which is exactly the message-passing view dataflow
    /// algorithms need).
    pub fn directed_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adjacency
            .iter()
            .enumerate()
            .flat_map(|(u, ns)| ns.iter().map(move |&v| (u as VertexId, v)))
    }

    /// Adjacency rows `(vertex, neighbours)` — the `graph`/`links` input
    /// datasets of the paper's dataflows.
    pub fn adjacency_rows(&self) -> Vec<(VertexId, Vec<VertexId>)> {
        self.adjacency.iter().enumerate().map(|(v, ns)| (v as VertexId, ns.clone())).collect()
    }

    /// The transpose (directed graphs only; undirected graphs are their own
    /// transpose and are returned unchanged).
    pub fn transpose(&self) -> Graph {
        if !self.directed {
            return self.clone();
        }
        let mut builder = GraphBuilder::directed(self.num_vertices());
        for (u, v) in self.directed_edges() {
            builder.add_edge(v, u);
        }
        builder.build()
    }

    /// Total number of directed edge entries (2·|E| for undirected graphs).
    pub fn num_directed_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// A read-only copy of the adjacency in compressed sparse row form.
    pub fn to_csr(&self) -> Csr {
        let mut offsets = Vec::with_capacity(self.adjacency.len() + 1);
        let mut targets = Vec::with_capacity(self.num_directed_edges());
        offsets.push(0);
        for neighbors in &self.adjacency {
            targets.extend_from_slice(neighbors);
            offsets.push(targets.len());
        }
        Csr { offsets, targets }
    }
}

/// A graph's adjacency in compressed sparse row form: the neighbours of `v`
/// are `targets[offsets[v]..offsets[v + 1]]`. Two allocations whatever the
/// vertex count, for a copy of the adjacency that lives beside a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbours of `v`, in the graph's order.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Incremental graph construction with duplicate-edge collapsing.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    adjacency: Vec<Vec<VertexId>>,
    directed: bool,
}

impl GraphBuilder {
    /// Builder for an undirected graph over `n` vertices.
    pub fn undirected(n: usize) -> Self {
        GraphBuilder { adjacency: vec![Vec::new(); n], directed: false }
    }

    /// Builder for a directed graph over `n` vertices.
    pub fn directed(n: usize) -> Self {
        GraphBuilder { adjacency: vec![Vec::new(); n], directed: true }
    }

    /// Grow to hold at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adjacency.len() {
            self.adjacency.resize(n, Vec::new());
        }
    }

    /// Current vertex capacity.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.len()
    }

    /// Add an edge, growing the vertex set as needed. For undirected
    /// builders the reverse direction is added automatically.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        let needed = (u.max(v) as usize) + 1;
        self.ensure_vertices(needed);
        self.adjacency[u as usize].push(v);
        if !self.directed && u != v {
            self.adjacency[v as usize].push(u);
        }
        self
    }

    /// Finish: sorts neighbour lists and collapses parallel edges.
    pub fn build(mut self) -> Graph {
        for ns in &mut self.adjacency {
            ns.sort_unstable();
            ns.dedup();
        }
        let entries: usize = self.adjacency.iter().map(Vec::len).sum();
        let num_edges = if self.directed {
            entries
        } else {
            let self_loops = self
                .adjacency
                .iter()
                .enumerate()
                .filter(|(v, ns)| ns.contains(&(*v as VertexId)))
                .count();
            (entries - self_loops) / 2 + self_loops
        };
        Graph { adjacency: self.adjacency, directed: self.directed, num_edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undirected_edges_are_symmetric() {
        let mut b = GraphBuilder::undirected(0);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
        let g = b.build();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn parallel_edges_collapse() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 1).add_edge(0, 1).add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn self_loops_count_once() {
        let mut b = GraphBuilder::undirected(1);
        b.add_edge(0, 0);
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[0]);
    }

    #[test]
    fn directed_edges_are_one_way() {
        let mut b = GraphBuilder::directed(0);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert!(g.is_directed());
    }

    #[test]
    fn transpose_reverses_directed_edges() {
        let mut b = GraphBuilder::directed(3);
        b.add_edge(0, 1).add_edge(0, 2);
        let g = b.build();
        let t = g.transpose();
        assert!(t.has_edge(1, 0) && t.has_edge(2, 0));
        assert!(!t.has_edge(0, 1));
        assert_eq!(t.num_edges(), 2);
    }

    #[test]
    fn csr_lists_every_vertex_neighbours_in_order() {
        let mut b = GraphBuilder::undirected(5);
        b.add_edge(0, 3);
        b.add_edge(0, 1);
        b.add_edge(3, 2);
        let g = b.build();
        let csr = g.to_csr();
        assert_eq!(csr.num_vertices(), 5);
        for v in g.vertices() {
            assert_eq!(csr.neighbors(v), g.neighbors(v), "vertex {v}");
        }
        assert!(csr.neighbors(4).is_empty());
    }

    #[test]
    fn adjacency_rows_cover_isolated_vertices() {
        let mut b = GraphBuilder::undirected(5);
        b.add_edge(0, 1);
        let g = b.build();
        let rows = g.adjacency_rows();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[4], (4, vec![]));
    }

    #[test]
    fn edge_addition_grows_vertex_set() {
        let mut b = GraphBuilder::undirected(0);
        b.add_edge(10, 3);
        let g = b.build();
        assert_eq!(g.num_vertices(), 11);
        assert_eq!(g.degree(5), 0);
    }
}
