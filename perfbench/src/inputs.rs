//! Seeded inputs: graphs, the serve mutation stream and the query stream.
//!
//! Everything the program receives is derived from the `--seed` argument,
//! so one seed always produces byte-identical inputs. The mutation stream
//! keeps its own mirror of the edge set, which lets every delete name an
//! edge that exists (no commit is a no-op) and gives the reference the
//! final serve labels are checked against.

use std::collections::HashMap;

use graphs::{Graph, VertexId};
use serve::LiveGraph;

/// Out-edges per new vertex in every generated graph.
pub const ATTACH_EDGES: usize = 3;

/// The workload graph: preferential attachment over `n` vertices.
pub fn graph(n: usize, seed: u64) -> Graph {
    graphs::generators::preferential_attachment(n, ATTACH_EDGES, seed)
}

/// Seed of a run's `index`-th graph; index 0 uses the run's seed itself.
pub fn graph_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// SplitMix64: a small, fast, fully specified generator, so the streams do
/// not depend on any library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Generator for one seed and stream (streams of one seed differ).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One single-edge mutation, committed on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Insert the undirected edge `(u, v)`.
    Insert(VertexId, VertexId),
    /// Delete the undirected edge `(u, v)`.
    Delete(VertexId, VertexId),
}

impl Mutation {
    /// The serve line-protocol form (`+ u v` / `- u v`).
    pub fn to_line(self) -> String {
        match self {
            Mutation::Insert(u, v) => format!("+ {u} {v}"),
            Mutation::Delete(u, v) => format!("- {u} {v}"),
        }
    }

    /// Whether this is a delete.
    pub fn is_delete(self) -> bool {
        matches!(self, Mutation::Delete(..))
    }
}

/// The benchmark's copy of the served edge set, with O(1) uniform sampling
/// of an existing edge.
pub struct EdgeMirror {
    edges: Vec<(VertexId, VertexId)>,
    index: HashMap<(VertexId, VertexId), usize>,
    live: LiveGraph,
}

fn canonical(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    (u.min(v), u.max(v))
}

impl EdgeMirror {
    /// Mirror of an undirected graph.
    pub fn new(graph: &Graph) -> Self {
        let mut mirror = EdgeMirror {
            edges: Vec::new(),
            index: HashMap::new(),
            live: LiveGraph::from_graph(graph),
        };
        for (u, v) in graph.directed_edges() {
            if u < v {
                mirror.add(u, v);
            }
        }
        mirror
    }

    fn add(&mut self, u: VertexId, v: VertexId) -> bool {
        let key = canonical(u, v);
        if u == v || self.index.contains_key(&key) {
            return false;
        }
        self.index.insert(key, self.edges.len());
        self.edges.push(key);
        self.live.insert(key.0, key.1);
        true
    }

    fn remove(&mut self, u: VertexId, v: VertexId) -> bool {
        let Some(slot) = self.index.remove(&canonical(u, v)) else {
            return false;
        };
        self.edges.swap_remove(slot);
        if let Some(&moved) = self.edges.get(slot) {
            self.index.insert(moved, slot);
        }
        self.live.remove(u, v);
        true
    }

    /// Number of vertices (initial plus attached ones).
    pub fn num_vertices(&self) -> usize {
        self.live.num_vertices()
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The mirror as the serve layer's own live-graph type.
    pub fn live(&self) -> &LiveGraph {
        &self.live
    }
}

/// The seeded writer stream: 2 in 3 mutations insert an edge (1 in 4 of
/// those attaches the next unused vertex id), 1 in 3 deletes an existing
/// edge. Each mutation is applied to the mirror as it is drawn.
pub struct MutationStream {
    rng: SplitMix64,
    mirror: EdgeMirror,
}

impl MutationStream {
    /// The stream for `seed` over the initial graph.
    pub fn new(graph: &Graph, seed: u64) -> Self {
        MutationStream { rng: SplitMix64::new(seed, 1), mirror: EdgeMirror::new(graph) }
    }

    /// The mirror after every mutation drawn so far.
    pub fn mirror(&self) -> &EdgeMirror {
        &self.mirror
    }

    /// Draw the next mutation and apply it to the mirror.
    pub fn next_mutation(&mut self) -> Mutation {
        let roll = self.rng.below(12);
        if roll < 4 && self.mirror.num_edges() > 0 {
            let (u, v) = self.mirror.edges[self.rng.below(self.mirror.num_edges() as u64) as usize];
            self.mirror.remove(u, v);
            return Mutation::Delete(u, v);
        }
        let n = self.mirror.num_vertices() as u64;
        if roll < 6 {
            let u = self.rng.below(n);
            self.mirror.add(u, n);
            return Mutation::Insert(u, n);
        }
        loop {
            let (u, v) = (self.rng.below(n), self.rng.below(n));
            if self.mirror.add(u, v) {
                return Mutation::Insert(u, v);
            }
        }
    }
}

/// One reader query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// Point lookup of a vertex's component label.
    Get(VertexId),
    /// The ten largest components.
    Top,
}

impl Query {
    /// The serve line-protocol form.
    pub fn to_line(self) -> String {
        match self {
            Query::Get(v) => format!("get {v}"),
            Query::Top => "top 10".to_string(),
        }
    }
}

/// The seeded reader stream: 9 in 10 point lookups of a vertex of the
/// initial graph, 1 in 10 top-10 queries.
pub struct QueryStream {
    rng: SplitMix64,
    vertices: u64,
}

impl QueryStream {
    /// The stream for `seed` over `vertices` initial vertices.
    pub fn new(vertices: usize, seed: u64) -> Self {
        QueryStream { rng: SplitMix64::new(seed, 2), vertices: vertices as u64 }
    }

    /// Draw the next query.
    pub fn next_query(&mut self) -> Query {
        if self.rng.below(10) == 0 {
            Query::Top
        } else {
            Query::Get(self.rng.below(self.vertices))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mutation_bytes(graph: &Graph, seed: u64, count: usize) -> String {
        let mut stream = MutationStream::new(graph, seed);
        (0..count).map(|_| stream.next_mutation().to_line() + "\n").collect()
    }

    fn query_bytes(seed: u64, count: usize) -> String {
        let mut stream = QueryStream::new(1000, seed);
        (0..count).map(|_| stream.next_query().to_line() + "\n").collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        let graph = graph(2_000, 7);
        assert_eq!(mutation_bytes(&graph, 11, 2_000), mutation_bytes(&graph, 11, 2_000));
        assert_ne!(mutation_bytes(&graph, 11, 200), mutation_bytes(&graph, 12, 200));
        assert_eq!(query_bytes(11, 5_000), query_bytes(11, 5_000));
        assert_ne!(query_bytes(11, 200), query_bytes(12, 200));
    }

    #[test]
    fn mutation_mix_and_deletes_name_existing_edges() {
        let graph = graph(2_000, 3);
        let mut stream = MutationStream::new(&graph, 5);
        let mut present: std::collections::HashSet<(u64, u64)> =
            graph.directed_edges().filter(|(u, v)| u < v).collect();
        let (mut inserts, mut deletes, mut attaches) = (0, 0, 0);
        for _ in 0..4_000 {
            let vertices = stream.mirror().num_vertices() as u64;
            match stream.next_mutation() {
                Mutation::Delete(u, v) => {
                    assert!(present.remove(&canonical(u, v)), "delete of a missing edge");
                    deletes += 1;
                }
                Mutation::Insert(u, v) => {
                    assert_ne!(u, v);
                    assert!(present.insert(canonical(u, v)), "insert of an existing edge");
                    attaches += usize::from(v == vertices);
                    inserts += 1;
                }
            }
        }
        assert_eq!(present.len(), stream.mirror().num_edges());
        assert_eq!(stream.mirror().live().num_edges(), present.len());
        assert!((1200..1470).contains(&deletes), "{deletes} deletes");
        assert!((550..800).contains(&attaches), "{attaches} attaches of {inserts} inserts");
    }

    #[test]
    fn query_mix_is_one_top_in_ten() {
        let mut stream = QueryStream::new(500, 9);
        let queries: Vec<Query> = (0..10_000).map(|_| stream.next_query()).collect();
        let tops = queries.iter().filter(|q| **q == Query::Top).count();
        assert!((850..1150).contains(&tops), "{tops} top queries");
        assert!(queries.iter().all(|q| !matches!(q, Query::Get(v) if *v >= 500)));
    }
}
