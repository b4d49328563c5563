//! Effective resistance of a unit-resistor network.
//!
//! The paper's equivalent distance between two switches is the electrical
//! resistance between them when every link on a minimal legal route is
//! replaced by a 1 Ω resistor (§3). This module solves that circuit: build
//! the graph Laplacian over the sub-network's nodes, ground one terminal,
//! inject a unit current at the other, and read off the potential.

use crate::linalg::{solve, LinalgError, Matrix};
use crate::sparse::SpdFactor;
use commsched_topology::SwitchId;

/// Which linear solver backs the resistance computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Dense Gaussian elimination with partial pivoting
    /// ([`crate::linalg::solve`]) — the original path, kept as the
    /// correctness oracle.
    DenseGaussian,
    /// Envelope LDLᵀ Cholesky with a reverse Cuthill–McKee ordering
    /// ([`SpdFactor`]). The grounded Laplacian minor is symmetric
    /// positive definite, so no pivoting is needed. The fast path and
    /// the default.
    #[default]
    SparseCholesky,
}

/// Errors from the resistance computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResistanceError {
    /// The two terminals are not connected in the given edge set.
    TerminalsDisconnected,
    /// A terminal does not appear as an endpoint of any edge.
    TerminalNotInNetwork(SwitchId),
    /// Internal solver failure (should not occur on a connected circuit).
    Solver(LinalgError),
}

impl std::fmt::Display for ResistanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResistanceError::TerminalsDisconnected => {
                write!(f, "terminals are not connected in the sub-network")
            }
            ResistanceError::TerminalNotInNetwork(s) => {
                write!(f, "terminal {s} not present in the sub-network")
            }
            ResistanceError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for ResistanceError {}

/// Effective resistance between `a` and `b` in a network of unit
/// resistors. Edges may be listed in any order; duplicates are
/// idempotently ignored (a link appears once in the circuit no matter how
/// many routes traverse it).
///
/// # Errors
/// See [`ResistanceError`].
pub fn effective_resistance(
    edges: &[(SwitchId, SwitchId)],
    a: SwitchId,
    b: SwitchId,
) -> Result<f64, ResistanceError> {
    let weighted: Vec<(SwitchId, SwitchId, f64)> =
        edges.iter().map(|&(u, v)| (u, v, 1.0)).collect();
    effective_resistance_weighted(&weighted, a, b)
}

/// Effective resistance between `a` and `b` with per-edge resistances
/// (heterogeneous link speeds: a slower link has a larger resistance).
/// Duplicate edges (same endpoints) keep the first listed resistance.
///
/// # Errors
/// See [`ResistanceError`].
///
/// # Panics
/// Debug-asserts that every resistance is strictly positive (callers pass
/// slowdowns ≥ 1 by construction).
pub fn effective_resistance_weighted(
    edges: &[(SwitchId, SwitchId, f64)],
    a: SwitchId,
    b: SwitchId,
) -> Result<f64, ResistanceError> {
    if a == b {
        return Ok(0.0);
    }
    debug_assert!(
        edges.iter().all(|&(_, _, r)| r > 0.0),
        "resistances must be positive"
    );
    // Compact the node ids appearing in the edge set.
    let mut nodes: Vec<SwitchId> = edges.iter().flat_map(|&(u, v, _)| [u, v]).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let index_of = |s: SwitchId| nodes.binary_search(&s).ok();
    let ia = index_of(a).ok_or(ResistanceError::TerminalNotInNetwork(a))?;
    let ib = index_of(b).ok_or(ResistanceError::TerminalNotInNetwork(b))?;
    let k = nodes.len();

    // Deduplicate edges (unordered endpoints), keeping the first weight.
    let mut dedup: Vec<(usize, usize, f64)> = Vec::with_capacity(edges.len());
    let mut seen = std::collections::HashSet::with_capacity(edges.len());
    for &(u, v, r) in edges {
        let (iu, iv) = (
            index_of(u).expect("endpoint indexed"),
            index_of(v).expect("endpoint indexed"),
        );
        if iu == iv {
            continue;
        }
        let key = (iu.min(iv), iu.max(iv));
        if seen.insert(key) {
            dedup.push((key.0, key.1, r));
        }
    }

    // Connectivity check between the terminals (the Laplacian minor would be
    // singular otherwise; detect it explicitly for a better error).
    let plain: Vec<(usize, usize)> = dedup.iter().map(|&(u, v, _)| (u, v)).collect();
    if !connected(k, &plain, ia, ib) {
        return Err(ResistanceError::TerminalsDisconnected);
    }

    // Laplacian with row/column `ib` removed (grounding b); entries are
    // conductances 1/r.
    let reduced = |i: usize| {
        if i < ib {
            Some(i)
        } else if i == ib {
            None
        } else {
            Some(i - 1)
        }
    };
    let mut lap = Matrix::zeros(k - 1, k - 1);
    for &(u, v, r) in &dedup {
        let g = 1.0 / r;
        let (ru, rv) = (reduced(u), reduced(v));
        if let Some(ru) = ru {
            lap.add(ru, ru, g);
        }
        if let Some(rv) = rv {
            lap.add(rv, rv, g);
        }
        if let (Some(ru), Some(rv)) = (ru, rv) {
            lap.add(ru, rv, -g);
            lap.add(rv, ru, -g);
        }
    }
    let mut rhs = vec![0.0; k - 1];
    let ra = reduced(ia).expect("a != b so a is not the grounded node");
    rhs[ra] = 1.0;
    let potentials = solve(lap, rhs).map_err(ResistanceError::Solver)?;
    Ok(potentials[ra])
}

/// Reusable per-worker scratch for repeated resistance computations.
///
/// A table build calls the resistance solver once per switch pair; the
/// node-compaction, adjacency, connectivity and solver buffers in here
/// survive across calls so the hot loop stops allocating per pair. Some
/// are indexed by switch id: they grow with the largest id seen.
#[derive(Debug, Default)]
pub struct Workspace {
    /// The circuit's switch ids, ascending; a node is its index here.
    nodes: Vec<SwitchId>,
    /// `pos[switch]`: the node of `switch`, `usize::MAX` if absent.
    pos: Vec<usize>,
    /// One bit per endpoint switch while compacting, clear otherwise.
    switch_bits: Vec<u64>,
    adj_g: Vec<Vec<(usize, f64)>>,
    alive: Vec<bool>,
    relabel: Vec<usize>,
    stack: Vec<usize>,
    visited: Vec<bool>,
    rhs: Vec<f64>,
    scratch: Vec<f64>,
    diag: Vec<f64>,
    offdiag: Vec<(usize, usize, f64)>,
}

impl Workspace {
    /// Fresh workspace (buffers grow on first use and are then reused).
    pub fn new() -> Self {
        Self::default()
    }

    /// Compact `edges` into a circuit: the endpoint ids into `self.nodes`
    /// (ascending), and the edges, in their order, into the conductance
    /// adjacency over node indices (unordered endpoints, keep-first
    /// weight, self-loops dropped). Returns the node count.
    pub(crate) fn compact(&mut self, edges: &[(SwitchId, SwitchId, f64)]) -> usize {
        for &s in &self.nodes {
            self.pos[s] = usize::MAX;
        }
        self.nodes.clear();
        let words = edges.iter().map(|&(u, v, _)| u.max(v) / 64 + 1).max();
        let words = words.unwrap_or(0);
        if self.switch_bits.len() < words {
            self.switch_bits.resize(words, 0);
            self.pos.resize(64 * words, usize::MAX);
        }
        for &(u, v, _) in edges {
            self.switch_bits[u / 64] |= 1 << (u % 64);
            self.switch_bits[v / 64] |= 1 << (v % 64);
        }
        // CORRECTNESS: words in order, low bit first, give each id once,
        // ascending, as a sort did: elimination order, hence every bit.
        for (w, word) in self.switch_bits[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                self.pos[s] = self.nodes.len();
                self.nodes.push(s);
                bits &= bits - 1;
            }
        }
        let k = self.nodes.len();
        if self.adj_g.len() < k {
            self.adj_g.resize_with(k, Vec::new);
        }
        for l in &mut self.adj_g[..k] {
            l.clear();
        }
        for &(u, v, r) in edges {
            let (iu, iv) = (self.pos[u], self.pos[v]);
            let (lo, hi) = (iu.min(iv), iu.max(iv));
            // Keep-first: a repeated endpoint pair is one resistor.
            if lo == hi || self.adj_g[lo].iter().any(|e| e.0 == hi) {
                continue;
            }
            let g = 1.0 / r;
            self.adj_g[lo].push((hi, g));
            self.adj_g[hi].push((lo, g));
        }
        k
    }

    /// The node of terminal `s` (an original switch id).
    fn node(&self, s: SwitchId) -> Result<usize, ResistanceError> {
        match self.pos.get(s) {
            Some(&i) if i != usize::MAX => Ok(i),
            _ => Err(ResistanceError::TerminalNotInNetwork(s)),
        }
    }

    /// Reachability from `a` in one DFS over the compacted circuit: an
    /// unreachable `b` gets the dedicated error; any other unreachable
    /// node means a floating component, which makes the grounded minor
    /// singular — reported the way the dense solver would.
    pub(crate) fn check_reach(&mut self, a: SwitchId, b: SwitchId) -> Result<(), ResistanceError> {
        let (ia, ib) = (self.node(a)?, self.node(b)?);
        let k = self.nodes.len();
        self.visited.clear();
        self.visited.resize(k, false);
        self.stack.clear();
        self.stack.push(ia);
        self.visited[ia] = true;
        let mut reached = 1usize;
        while let Some(u) = self.stack.pop() {
            for &(v, _) in &self.adj_g[u] {
                if !self.visited[v] {
                    self.visited[v] = true;
                    reached += 1;
                    self.stack.push(v);
                }
            }
        }
        if !self.visited[ib] {
            return Err(ResistanceError::TerminalsDisconnected);
        }
        if reached < k {
            return Err(ResistanceError::Solver(LinalgError::Singular));
        }
        Ok(())
    }

    /// Solve the compacted circuit for terminals `a`, `b` (original
    /// switch ids), which the caller knows [`Workspace::check_reach`]
    /// passes (debug builds assert it).
    ///
    /// First eliminates every degree-≤2 non-terminal node exactly — the
    /// dangling, series and parallel resistor laws, which are precisely
    /// the first pivots a minimum-degree Cholesky would take. Minimal
    /// up*/down* route sub-networks are near-paths, so the common case
    /// collapses to a single equivalent conductance with no factorization
    /// at all; an irreducible core (degree ≥ 3 everywhere) falls back to
    /// the envelope LDLᵀ of [`SpdFactor`] on the grounded minor.
    ///
    /// # Errors
    /// A missing terminal, or a failed factorization.
    pub(crate) fn solve_compacted(
        &mut self,
        a: SwitchId,
        b: SwitchId,
    ) -> Result<f64, ResistanceError> {
        debug_assert_ne!(a, b, "callers short-circuit the zero diagonal");
        let (ia, ib) = (self.node(a)?, self.node(b)?);
        debug_assert_eq!(self.check_reach(a, b), Ok(()), "route circuits never float");
        let k = self.nodes.len();

        // Exact degree-≤2 elimination. Degrees never grow (eliminating a
        // node removes one incident edge from each neighbour and adds at
        // most one merged edge), so the worklist only shrinks.
        self.alive.clear();
        self.alive.resize(k, true);
        self.stack.clear();
        for v in 0..k {
            if v != ia && v != ib && self.adj_g[v].len() <= 2 {
                self.stack.push(v);
            }
        }
        while let Some(v) = self.stack.pop() {
            if !self.alive[v] {
                continue;
            }
            let deg = self.adj_g[v].len();
            debug_assert!(deg <= 2, "queued nodes cannot gain neighbours");
            self.alive[v] = false;
            if deg == 1 {
                // Dangling spur: carries no current.
                let (x, _) = self.adj_g[v][0];
                remove_neighbor(&mut self.adj_g[x], v);
                if x != ia && x != ib && self.adj_g[x].len() <= 2 {
                    self.stack.push(x);
                }
            } else if deg == 2 {
                // Series law, merging in parallel with any existing x—y
                // conductance.
                let (x, g1) = self.adj_g[v][0];
                let (y, g2) = self.adj_g[v][1];
                remove_neighbor(&mut self.adj_g[x], v);
                remove_neighbor(&mut self.adj_g[y], v);
                let g = g1 * g2 / (g1 + g2);
                if let Some(e) = self.adj_g[x].iter_mut().find(|e| e.0 == y) {
                    e.1 += g;
                    let back = self.adj_g[y]
                        .iter_mut()
                        .find(|e| e.0 == x)
                        .expect("adjacency is symmetric");
                    back.1 += g;
                } else {
                    self.adj_g[x].push((y, g));
                    self.adj_g[y].push((x, g));
                }
                for t in [x, y] {
                    if t != ia && t != ib && self.adj_g[t].len() <= 2 {
                        self.stack.push(t);
                    }
                }
            }
            self.adj_g[v].clear();
        }

        let live = self.alive[..k].iter().filter(|&&x| x).count();
        if live == 2 {
            // Terminals are never eliminated, so the two survivors are
            // `a` and `b`, joined by one merged conductance.
            let g = self.adj_g[ia]
                .iter()
                .find(|e| e.0 == ib)
                .map(|e| e.1)
                .expect("exact reductions preserve terminal connectivity");
            return Ok(1.0 / g);
        }

        // Irreducible core: ground `b`, factor the SPD minor, and read
        // the potential at `a` under a unit injected current.
        if self.relabel.len() < k {
            self.relabel.resize(k, usize::MAX);
        }
        let mut m = 0usize;
        for v in 0..k {
            self.relabel[v] = if self.alive[v] && v != ib {
                m += 1;
                m - 1
            } else {
                usize::MAX
            };
        }
        self.diag.clear();
        self.diag.resize(m, 0.0);
        self.offdiag.clear();
        for u in 0..k {
            if !self.alive[u] {
                continue;
            }
            let ru = self.relabel[u];
            for &(v, g) in &self.adj_g[u] {
                if v < u {
                    continue; // visit each surviving edge once
                }
                let rv = self.relabel[v];
                if ru != usize::MAX {
                    self.diag[ru] += g;
                }
                if rv != usize::MAX {
                    self.diag[rv] += g;
                }
                if ru != usize::MAX && rv != usize::MAX {
                    self.offdiag.push((ru.min(rv), ru.max(rv), -g));
                }
            }
        }
        let factor =
            SpdFactor::factor(&self.diag, &self.offdiag).map_err(ResistanceError::Solver)?;
        self.rhs.clear();
        self.rhs.resize(m, 0.0);
        let ra = self.relabel[ia];
        self.rhs[ra] = 1.0;
        factor.solve_in_place(&mut self.rhs, &mut self.scratch);
        Ok(self.rhs[ra])
    }
}

fn remove_neighbor(list: &mut Vec<(usize, f64)>, v: usize) {
    if let Some(p) = list.iter().position(|e| e.0 == v) {
        list.swap_remove(p);
    }
}

/// Solver-selectable, workspace-reusing variant of
/// [`effective_resistance_weighted`].
///
/// With [`SolverKind::DenseGaussian`] it delegates to the oracle
/// unchanged; with [`SolverKind::SparseCholesky`] it reuses the buffers
/// in `ws`, checks that the circuit is connected, collapses degree-≤2
/// nodes by the exact resistor laws, and only factors an irreducible core
/// (see `Workspace::solve_compacted`). Duplicate edges keep the first
/// listed resistance, as the oracle's do.
/// The two paths agree to well below 1e-9 on every connected pair and
/// report the same error surface.
///
/// # Errors
/// See [`ResistanceError`].
pub fn effective_resistance_weighted_in(
    ws: &mut Workspace,
    edges: &[(SwitchId, SwitchId, f64)],
    a: SwitchId,
    b: SwitchId,
    solver: SolverKind,
) -> Result<f64, ResistanceError> {
    if solver == SolverKind::DenseGaussian {
        return effective_resistance_weighted(edges, a, b);
    }
    if a == b {
        return Ok(0.0);
    }
    debug_assert!(
        edges.iter().all(|&(_, _, r)| r > 0.0),
        "resistances must be positive"
    );
    ws.compact(edges);
    ws.check_reach(a, b)?;
    ws.solve_compacted(a, b)
}

fn connected(k: usize, edges: &[(usize, usize)], from: usize, to: usize) -> bool {
    let mut adj = vec![Vec::new(); k];
    for &(u, v) in edges {
        adj[u].push(v);
        adj[v].push(u);
    }
    let mut seen = vec![false; k];
    let mut stack = vec![from];
    seen[from] = true;
    while let Some(u) = stack.pop() {
        if u == to {
            return true;
        }
        for &v in &adj[u] {
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_resistor() {
        assert_close(effective_resistance(&[(0, 1)], 0, 1).unwrap(), 1.0);
    }

    #[test]
    fn series_chain() {
        let edges = [(0, 1), (1, 2), (2, 3)];
        assert_close(effective_resistance(&edges, 0, 3).unwrap(), 3.0);
        assert_close(effective_resistance(&edges, 0, 2).unwrap(), 2.0);
    }

    #[test]
    fn two_parallel_paths() {
        // Square 0-1-2 and 0-3-2: two 2 Ω paths in parallel -> 1 Ω.
        let edges = [(0, 1), (1, 2), (0, 3), (3, 2)];
        assert_close(effective_resistance(&edges, 0, 2).unwrap(), 1.0);
    }

    #[test]
    fn direct_plus_detour() {
        // Triangle: 1 Ω direct in parallel with 2 Ω detour -> 2/3 Ω.
        let edges = [(0, 1), (1, 2), (0, 2)];
        assert_close(effective_resistance(&edges, 0, 2).unwrap(), 2.0 / 3.0);
    }

    #[test]
    fn wheatstone_balanced() {
        // Balanced Wheatstone bridge of unit resistors: bridge edge carries
        // no current; R = 1.
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)];
        assert_close(effective_resistance(&edges, 0, 3).unwrap(), 1.0);
    }

    #[test]
    fn same_terminal_zero() {
        assert_close(effective_resistance(&[(0, 1)], 1, 1).unwrap(), 0.0);
    }

    #[test]
    fn duplicate_edges_ignored() {
        // The same physical link listed twice must still count once.
        let once = effective_resistance(&[(0, 1), (1, 2)], 0, 2).unwrap();
        let twice = effective_resistance(&[(0, 1), (0, 1), (1, 2)], 0, 2).unwrap();
        assert_close(once, twice);
    }

    #[test]
    fn missing_terminal_detected() {
        assert_eq!(
            effective_resistance(&[(0, 1)], 0, 5).unwrap_err(),
            ResistanceError::TerminalNotInNetwork(5)
        );
    }

    #[test]
    fn disconnected_terminals_detected() {
        assert_eq!(
            effective_resistance(&[(0, 1), (2, 3)], 0, 3).unwrap_err(),
            ResistanceError::TerminalsDisconnected
        );
    }

    #[test]
    fn weighted_series_and_parallel_laws() {
        // Series: 2 Ω + 3 Ω = 5 Ω.
        let edges = [(0, 1, 2.0), (1, 2, 3.0)];
        assert_close(effective_resistance_weighted(&edges, 0, 2).unwrap(), 5.0);
        // Parallel: 2 Ω ∥ 3 Ω = 6/5 Ω (the 2-hop detour totals ~3 Ω).
        let par = [(0, 1, 2.0), (0, 2, 3.0), (2, 1, 1e-12)];
        let r = effective_resistance_weighted(&par, 0, 1).unwrap();
        assert!((r - 6.0 / 5.0).abs() < 1e-6, "{r}");
        // Duplicate endpoints keep the FIRST weight: the 3 Ω re-listing
        // of link 0-1 is ignored (and the dangling 0-2 spur carries no
        // current), so the answer is the first-listed 2 Ω alone.
        let dup = [(0, 1, 2.0), (0, 2, 1e9), (0, 1, 3.0)];
        assert_close(effective_resistance_weighted(&dup, 0, 1).unwrap(), 2.0);
    }

    #[test]
    fn weighted_duplicate_keeps_first() {
        let a = effective_resistance_weighted(&[(0, 1, 2.0), (0, 1, 9.0)], 0, 1).unwrap();
        assert_close(a, 2.0);
    }

    #[test]
    fn unit_weights_match_unweighted() {
        let plain = effective_resistance(&[(0, 1), (1, 2), (0, 2)], 0, 2).unwrap();
        let weighted =
            effective_resistance_weighted(&[(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0, 2).unwrap();
        assert_close(plain, weighted);
    }

    type FixtureCircuit = (Vec<(SwitchId, SwitchId, f64)>, SwitchId, SwitchId);

    /// All the small fixed circuits of this module, as (edges, a, b).
    fn fixture_circuits() -> Vec<FixtureCircuit> {
        vec![
            (vec![(0, 1, 1.0)], 0, 1),
            (vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], 0, 3),
            (
                vec![(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 2, 1.0)],
                0,
                2,
            ),
            (vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], 0, 2),
            (
                vec![
                    (0, 1, 1.0),
                    (0, 2, 1.0),
                    (1, 3, 1.0),
                    (2, 3, 1.0),
                    (1, 2, 1.0),
                ],
                0,
                3,
            ),
            (vec![(0, 1, 2.0), (1, 2, 3.0)], 0, 2),
            (vec![(4, 9, 0.5), (9, 2, 4.0), (4, 2, 1.5)], 4, 2),
            // K4 core with a series tail: exercises the mixed path where
            // degree-2 elimination shrinks the circuit but an
            // irreducible degree-3 core still needs the factorization.
            (
                vec![
                    (0, 1, 1.0),
                    (0, 2, 2.0),
                    (0, 3, 1.0),
                    (1, 2, 1.0),
                    (1, 3, 3.0),
                    (2, 3, 1.0),
                    (3, 4, 2.0),
                    (4, 5, 1.0),
                ],
                0,
                5,
            ),
        ]
    }

    #[test]
    fn sparse_solver_matches_dense_oracle() {
        let mut ws = Workspace::new();
        for (edges, a, b) in fixture_circuits() {
            let dense = effective_resistance_weighted(&edges, a, b).unwrap();
            let sparse =
                effective_resistance_weighted_in(&mut ws, &edges, a, b, SolverKind::SparseCholesky)
                    .unwrap();
            assert!(
                (dense - sparse).abs() < 1e-12,
                "{dense} != {sparse} on {edges:?}"
            );
            // The dense kind of the _in entry point IS the oracle.
            let via_in =
                effective_resistance_weighted_in(&mut ws, &edges, a, b, SolverKind::DenseGaussian)
                    .unwrap();
            assert!((dense - via_in).abs() == 0.0);
        }
    }

    #[test]
    fn sparse_solver_error_surface_matches_dense() {
        let mut ws = Workspace::new();
        for solver in [SolverKind::DenseGaussian, SolverKind::SparseCholesky] {
            let edges = [(0, 1, 1.0)];
            assert_eq!(
                effective_resistance_weighted_in(&mut ws, &edges, 0, 5, solver).unwrap_err(),
                ResistanceError::TerminalNotInNetwork(5),
                "{solver:?}"
            );
            let split = [(0, 1, 1.0), (2, 3, 1.0)];
            assert_eq!(
                effective_resistance_weighted_in(&mut ws, &split, 0, 3, solver).unwrap_err(),
                ResistanceError::TerminalsDisconnected,
                "{solver:?}"
            );
            // Terminals connected but a component floats: the grounded
            // minor is singular, and both solvers must say so.
            assert_eq!(
                effective_resistance_weighted_in(&mut ws, &split, 0, 1, solver).unwrap_err(),
                ResistanceError::Solver(LinalgError::Singular),
                "{solver:?}"
            );
            assert_close(
                effective_resistance_weighted_in(&mut ws, &split, 1, 1, solver).unwrap(),
                0.0,
            );
        }
    }

    #[test]
    fn workspace_reuse_across_networks_is_clean() {
        // Stale state from a larger network must not leak into a later,
        // smaller one.
        let mut ws = Workspace::new();
        let big = [
            (0, 1, 1.0),
            (1, 2, 1.0),
            (2, 3, 1.0),
            (3, 4, 1.0),
            (4, 5, 1.0),
        ];
        let _ = effective_resistance_weighted_in(&mut ws, &big, 0, 5, SolverKind::SparseCholesky)
            .unwrap();
        let small = [(7, 9, 2.0)];
        assert_close(
            effective_resistance_weighted_in(&mut ws, &small, 7, 9, SolverKind::SparseCholesky)
                .unwrap(),
            2.0,
        );
        // Ids over several 64-bit words of the switch bitset, listed out
        // of order, then a circuit over lower ids only: no bit, position
        // or adjacency of the wide one may survive into it.
        let wide = [
            (200, 3, 1.0),
            (3, 70, 2.0),
            (70, 150, 1.0),
            (150, 200, 2.0),
            (70, 200, 4.0),
        ];
        let mut sparse = |edges: &[(SwitchId, SwitchId, f64)], a, b| {
            effective_resistance_weighted_in(&mut ws, edges, a, b, SolverKind::SparseCholesky)
        };
        for (a, b) in [(3, 150), (200, 70)] {
            let dense = effective_resistance_weighted(&wide, a, b).unwrap();
            assert!((sparse(&wide, a, b).unwrap() - dense).abs() < 1e-12);
        }
        assert_close(sparse(&[(1, 2, 1.0), (2, 3, 1.0)], 1, 3).unwrap(), 2.0);
        assert_eq!(
            sparse(&[(1, 2, 1.0)], 1, 70).unwrap_err(),
            ResistanceError::TerminalNotInNetwork(70)
        );
        assert_eq!(
            sparse(&[(1, 2, 1.0)], 200, 1).unwrap_err(),
            ResistanceError::TerminalNotInNetwork(200)
        );
    }

    #[test]
    fn sparse_duplicate_keeps_first() {
        // The 3 Ω link 1-2 is listed again, reversed, at 5 Ω. Keeping the
        // first gives 1 + 3 Ω; merging both would give 1 + 3∥5 Ω.
        let edges = [(0, 1, 1.0), (1, 2, 3.0), (2, 1, 5.0)];
        let mut ws = Workspace::new();
        for solver in [SolverKind::DenseGaussian, SolverKind::SparseCholesky] {
            let r = effective_resistance_weighted_in(&mut ws, &edges, 0, 2, solver).unwrap();
            assert_close(r, 4.0);
        }
    }

    #[test]
    fn resistance_bounded_by_shortest_path() {
        // Adding any parallel structure can only decrease resistance below
        // the series length of one path.
        let edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3)];
        let r = effective_resistance(&edges, 0, 3).unwrap();
        assert!(r < 2.0 + 1e-9);
        assert!(r > 0.0);
        // 3 Ω parallel 2 Ω = 6/5.
        assert_close(r, 1.2);
    }
}
