//! The switch-graph data structure and its construction/validation.

use std::collections::VecDeque;

/// Index of a switch (network node) in a [`Topology`].
pub type SwitchId = usize;

/// Index of an undirected link in a [`Topology`].
pub type LinkId = usize;

/// An undirected link between two switches. Stored with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    /// Lower endpoint.
    pub a: SwitchId,
    /// Upper endpoint.
    pub b: SwitchId,
}

impl Link {
    /// Normalized constructor (orders the endpoints).
    ///
    /// # Panics
    /// Panics on a self-loop; the builder reports self-loops as errors
    /// before constructing `Link`s.
    pub fn new(u: SwitchId, v: SwitchId) -> Self {
        assert_ne!(u, v, "self-loop link");
        if u < v {
            Self { a: u, b: v }
        } else {
            Self { a: v, b: u }
        }
    }

    /// The endpoint opposite to `s`; `None` if `s` is not an endpoint.
    pub fn other(&self, s: SwitchId) -> Option<SwitchId> {
        if s == self.a {
            Some(self.b)
        } else if s == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Errors raised while building a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link endpoint referenced a switch index `>= num_switches`.
    SwitchOutOfRange {
        /// The offending switch index.
        switch: SwitchId,
        /// Number of switches declared.
        num_switches: usize,
    },
    /// A link connected a switch to itself.
    SelfLoop(SwitchId),
    /// The same pair of switches was linked more than once (the paper
    /// assumes a single link between neighbouring switches).
    DuplicateLink(SwitchId, SwitchId),
    /// A switch exceeded the configured maximum inter-switch degree.
    DegreeExceeded {
        /// The offending switch.
        switch: SwitchId,
        /// Its resulting degree.
        degree: usize,
        /// The configured maximum.
        max_degree: usize,
    },
    /// The graph is not connected and connectivity was required.
    Disconnected,
    /// The topology has no switches.
    Empty,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::SwitchOutOfRange {
                switch,
                num_switches,
            } => {
                write!(f, "switch {switch} out of range (n = {num_switches})")
            }
            TopologyError::SelfLoop(s) => write!(f, "self-loop at switch {s}"),
            TopologyError::DuplicateLink(a, b) => {
                write!(f, "duplicate link between switches {a} and {b}")
            }
            TopologyError::DegreeExceeded {
                switch,
                degree,
                max_degree,
            } => write!(
                f,
                "switch {switch} has degree {degree} > maximum {max_degree}"
            ),
            TopologyError::Disconnected => write!(f, "topology is not connected"),
            TopologyError::Empty => write!(f, "topology has no switches"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Builder for [`Topology`] with validation.
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    num_switches: usize,
    hosts_per_switch: usize,
    max_degree: Option<usize>,
    require_connected: bool,
    links: Vec<Link>,
    slowdowns: Vec<u32>,
    uniform_mem: Option<u64>,
    mem_caps: Vec<(SwitchId, u64)>,
}

impl TopologyBuilder {
    /// Start a builder for `num_switches` switches, each hosting
    /// `hosts_per_switch` workstations.
    pub fn new(num_switches: usize, hosts_per_switch: usize) -> Self {
        Self {
            num_switches,
            hosts_per_switch,
            max_degree: None,
            require_connected: true,
            links: Vec::new(),
            slowdowns: Vec::new(),
            uniform_mem: None,
            mem_caps: Vec::new(),
        }
    }

    /// Give every switch the same memory capacity in bytes. Capacities
    /// are part of the text form and the fingerprint, and a fault's
    /// rebuild keeps them; no scheduler in the workspace reads them.
    /// Without any capacity call the topology is *uncapacitated* and its
    /// fingerprint is unchanged from earlier releases.
    pub fn uniform_mem_capacity(mut self, bytes: u64) -> Self {
        self.uniform_mem = Some(bytes);
        self
    }

    /// Set the memory capacity of one switch in bytes, overriding any
    /// uniform capacity. Switches never mentioned (and not covered by a
    /// uniform capacity) default to unlimited (`u64::MAX`).
    pub fn mem_capacity(mut self, s: SwitchId, bytes: u64) -> Self {
        self.mem_caps.push((s, bytes));
        self
    }

    /// Limit the inter-switch degree of every switch (e.g. 4 for the
    /// paper's 8-port switches with 4 host ports).
    pub fn max_degree(mut self, d: usize) -> Self {
        self.max_degree = Some(d);
        self
    }

    /// Allow building a disconnected topology (used by tests; the library
    /// otherwise insists on connectivity, as the paper's networks are
    /// connected by construction).
    pub fn allow_disconnected(mut self) -> Self {
        self.require_connected = false;
        self
    }

    /// Add an undirected full-speed link between `u` and `v`.
    pub fn link(self, u: SwitchId, v: SwitchId) -> Self {
        self.link_with_slowdown(u, v, 1)
    }

    /// Add a link that transfers one flit every `slowdown` cycles
    /// (`slowdown = 1` is full speed; e.g. 10 models Fast Ethernet next to
    /// Gigabit). The equivalent-distance model charges the link a
    /// resistance of `slowdown`. A zero slowdown is rejected at build.
    pub fn link_with_slowdown(mut self, u: SwitchId, v: SwitchId, slowdown: u32) -> Self {
        // Defer validation (including self-loop detection) to `build` so the
        // builder chain stays infallible.
        self.links.push(if u == v {
            // Represent invalid self-loops verbatim; `Link::new` would panic.
            Link { a: u, b: v }
        } else {
            Link::new(u, v)
        });
        self.slowdowns.push(slowdown);
        self
    }

    /// Add many links.
    pub fn links<I: IntoIterator<Item = (SwitchId, SwitchId)>>(mut self, it: I) -> Self {
        for (u, v) in it {
            self = self.link(u, v);
        }
        self
    }

    /// Validate and build the topology.
    ///
    /// # Errors
    /// See [`TopologyError`].
    pub fn build(self) -> Result<Topology, TopologyError> {
        if self.num_switches == 0 {
            return Err(TopologyError::Empty);
        }
        let n = self.num_switches;
        let mut adj: Vec<Vec<(SwitchId, LinkId)>> = vec![Vec::new(); n];
        let mut seen = std::collections::HashSet::new();
        for (id, l) in self.links.iter().enumerate() {
            if l.a >= n {
                return Err(TopologyError::SwitchOutOfRange {
                    switch: l.a,
                    num_switches: n,
                });
            }
            if l.b >= n {
                return Err(TopologyError::SwitchOutOfRange {
                    switch: l.b,
                    num_switches: n,
                });
            }
            if l.a == l.b {
                return Err(TopologyError::SelfLoop(l.a));
            }
            if !seen.insert((l.a, l.b)) {
                return Err(TopologyError::DuplicateLink(l.a, l.b));
            }
            adj[l.a].push((l.b, id));
            adj[l.b].push((l.a, id));
        }
        if let Some(max_d) = self.max_degree {
            for (s, nb) in adj.iter().enumerate() {
                if nb.len() > max_d {
                    return Err(TopologyError::DegreeExceeded {
                        switch: s,
                        degree: nb.len(),
                        max_degree: max_d,
                    });
                }
            }
        }
        if let Some(bad) = self.slowdowns.iter().position(|&x| x == 0) {
            // Reuse the out-of-range error shape for a zero slowdown: the
            // offending link id is reported in the switch field.
            return Err(TopologyError::SwitchOutOfRange {
                switch: bad,
                num_switches: 0,
            });
        }
        for nb in &mut adj {
            nb.sort_unstable();
        }
        let mem_capacities = if self.uniform_mem.is_some() || !self.mem_caps.is_empty() {
            let mut caps = vec![self.uniform_mem.unwrap_or(u64::MAX); n];
            for &(s, bytes) in &self.mem_caps {
                if s >= n {
                    return Err(TopologyError::SwitchOutOfRange {
                        switch: s,
                        num_switches: n,
                    });
                }
                caps[s] = bytes;
            }
            caps
        } else {
            Vec::new()
        };
        let topo = Topology {
            hosts_per_switch: self.hosts_per_switch,
            links: self.links,
            slowdowns: self.slowdowns,
            adj,
            mem_capacities,
        };
        if self.require_connected && !topo.is_connected() {
            return Err(TopologyError::Disconnected);
        }
        Ok(topo)
    }
}

/// An undirected graph of switches with attached hosts.
///
/// Immutable once built; all the downstream machinery (routing tables,
/// distance tables, the simulator) borrows it.
#[derive(Debug, Clone)]
pub struct Topology {
    hosts_per_switch: usize,
    links: Vec<Link>,
    /// Per-link slowdown factor (1 = full speed; k = one flit every k
    /// cycles, resistance k in the distance model).
    slowdowns: Vec<u32>,
    /// Sorted adjacency: for each switch, `(neighbour, link id)` pairs.
    adj: Vec<Vec<(SwitchId, LinkId)>>,
    /// Per-switch memory capacity in bytes. Empty when the topology is
    /// uncapacitated (every switch unlimited); otherwise `len == n` with
    /// `u64::MAX` marking individually-unlimited switches.
    mem_capacities: Vec<u64>,
}

impl Topology {
    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of workstations attached to each switch.
    pub fn hosts_per_switch(&self) -> usize {
        self.hosts_per_switch
    }

    /// Total number of workstations in the system.
    pub fn num_hosts(&self) -> usize {
        self.num_switches() * self.hosts_per_switch
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The link with a given id.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id]
    }

    /// Slowdown factor of a link (1 = full speed).
    pub fn link_slowdown(&self, id: LinkId) -> u32 {
        self.slowdowns[id]
    }

    /// Whether every link runs at full speed (the paper's setting).
    pub fn is_link_homogeneous(&self) -> bool {
        self.slowdowns.iter().all(|&s| s == 1)
    }

    /// Whether any switch carries an explicit memory capacity.
    pub fn has_mem_capacities(&self) -> bool {
        !self.mem_capacities.is_empty()
    }

    /// Memory capacity of switch `s` in bytes; `None` when the topology
    /// is uncapacitated (unlimited everywhere). `u64::MAX` marks a switch
    /// that is individually unlimited in an otherwise capacitated network.
    pub fn mem_capacity(&self, s: SwitchId) -> Option<u64> {
        self.mem_capacities.get(s).copied()
    }

    /// The full per-switch capacity vector, `None` when uncapacitated.
    pub fn mem_capacities(&self) -> Option<&[u64]> {
        if self.mem_capacities.is_empty() {
            None
        } else {
            Some(&self.mem_capacities)
        }
    }

    /// Neighbours of `s` with the connecting link ids, sorted by neighbour.
    pub fn neighbors(&self, s: SwitchId) -> &[(SwitchId, LinkId)] {
        &self.adj[s]
    }

    /// Inter-switch degree of `s`.
    pub fn degree(&self, s: SwitchId) -> usize {
        self.adj[s].len()
    }

    /// The link id between `u` and `v`, if they are neighbours.
    pub fn link_between(&self, u: SwitchId, v: SwitchId) -> Option<LinkId> {
        self.adj[u]
            .binary_search_by_key(&v, |&(nb, _)| nb)
            .ok()
            .map(|i| self.adj[u][i].1)
    }

    /// Whether `u` and `v` are directly linked.
    pub fn has_link(&self, u: SwitchId, v: SwitchId) -> bool {
        self.link_between(u, v).is_some()
    }

    /// BFS hop distances from `src` to every switch; unreachable switches
    /// get `u32::MAX`.
    pub fn bfs_distances(&self, src: SwitchId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_switches()];
        let mut q = VecDeque::new();
        dist[src] = 0;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &(v, _) in &self.adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    q.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether the switch graph is connected.
    pub fn is_connected(&self) -> bool {
        if self.num_switches() == 0 {
            return false;
        }
        self.bfs_distances(0).iter().all(|&d| d != u32::MAX)
    }

    /// Topological diameter (maximum hop distance between any pair);
    /// `None` if disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for s in 0..self.num_switches() {
            let d = self.bfs_distances(s);
            let m = *d.iter().max()?;
            if m == u32::MAX {
                return None;
            }
            best = best.max(m);
        }
        Some(best)
    }

    /// Average hop distance over ordered pairs of distinct switches;
    /// `None` if disconnected or fewer than two switches.
    pub fn average_distance(&self) -> Option<f64> {
        let n = self.num_switches();
        if n < 2 {
            return None;
        }
        let mut sum = 0u64;
        for s in 0..n {
            for (t, &d) in self.bfs_distances(s).iter().enumerate() {
                if t != s {
                    if d == u32::MAX {
                        return None;
                    }
                    sum += u64::from(d);
                }
            }
        }
        Some(sum as f64 / (n * (n - 1)) as f64)
    }

    /// Connected components, each a sorted list of switches.
    pub fn components(&self) -> Vec<Vec<SwitchId>> {
        let n = self.num_switches();
        let mut comp = vec![usize::MAX; n];
        let mut out: Vec<Vec<SwitchId>> = Vec::new();
        for start in 0..n {
            if comp[start] != usize::MAX {
                continue;
            }
            let c = out.len();
            let mut members = vec![start];
            comp[start] = c;
            let mut q = VecDeque::from([start]);
            while let Some(u) = q.pop_front() {
                for &(v, _) in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = c;
                        members.push(v);
                        q.push_back(v);
                    }
                }
            }
            members.sort_unstable();
            out.push(members);
        }
        out
    }

    /// Number of links crossing a bipartition `(set, complement)`, where
    /// `in_set[s]` says whether switch `s` is in the set. Used by the
    /// evaluation to report cut sizes of partitions.
    pub fn cut_size(&self, in_set: &[bool]) -> usize {
        self.links
            .iter()
            .filter(|l| in_set[l.a] != in_set[l.b])
            .count()
    }

    /// A stable 64-bit content hash of the topology: switch count, hosts
    /// per switch, and the multiset of `(a, b, slowdown)` link triples.
    ///
    /// Two topologies that describe the same network — regardless of the
    /// order links were added in — fingerprint identically; changing a
    /// link, a slowdown, or either count changes the fingerprint (with
    /// the usual 64-bit collision caveat). The hash is a fixed FNV-1a
    /// over a canonical byte encoding, so it is reproducible across
    /// processes, platforms, and releases, making it usable as a
    /// persistent registry/cache key.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.num_switches() as u64);
        eat(self.hosts_per_switch as u64);
        // Canonical link order: links are stored with a < b, so sorting
        // the triples erases insertion order.
        let mut triples: Vec<(SwitchId, SwitchId, u32)> = self
            .links
            .iter()
            .zip(&self.slowdowns)
            .map(|(l, &s)| (l.a, l.b, s))
            .collect();
        triples.sort_unstable();
        for (a, b, s) in triples {
            eat(a as u64);
            eat(b as u64);
            eat(u64::from(s));
        }
        // Memory capacities are hashed only when present so that every
        // uncapacitated topology keeps the fingerprint it had before
        // capacities existed (registry/WAL keys stay stable).
        if !self.mem_capacities.is_empty() {
            eat(0x6d65_6d63_6170); // "memcap" domain separator
            for &c in &self.mem_capacities {
                eat(c);
            }
        }
        h
    }

    /// The topology with link `failed` removed — the degraded network
    /// after a cable failure. Link ids of the surviving links are
    /// renumbered compactly (they refer to the new topology).
    ///
    /// # Errors
    /// [`TopologyError::Disconnected`] if removing the link partitions
    /// the network; [`TopologyError::SwitchOutOfRange`] (with the link id
    /// in the switch field) if `failed` does not exist.
    pub fn without_link(&self, failed: LinkId) -> Result<Topology, TopologyError> {
        if failed >= self.links.len() {
            return Err(TopologyError::SwitchOutOfRange {
                switch: failed,
                num_switches: self.links.len(),
            });
        }
        self.rebuild(|id| id != failed, None).build()
    }

    /// A builder for this topology's successor: the links `keep` accepts,
    /// then `extra`, then every memory capacity. The one way a changed
    /// network is rebuilt, for [`Topology::without_link`] and
    /// [`TopologyEpoch::apply`](crate::TopologyEpoch::apply) alike.
    pub(crate) fn rebuild(
        &self,
        keep: impl Fn(LinkId) -> bool,
        extra: Option<(SwitchId, SwitchId, u32)>,
    ) -> TopologyBuilder {
        let mut b = TopologyBuilder::new(self.num_switches(), self.hosts_per_switch);
        // CORRECTNESS: the surviving links keep their relative id order
        // and an added link goes after them. A distance-table repair
        // copies the entries of pairs whose route wires survived, and a
        // copy equals a rebuild's bits only because those wires are
        // solved in the same order in both topologies.
        for (id, l) in self.links.iter().enumerate() {
            if keep(id) {
                b = b.link_with_slowdown(l.a, l.b, self.slowdowns[id]);
            }
        }
        if let Some((u, v, slowdown)) = extra {
            b = b.link_with_slowdown(u, v, slowdown);
        }
        for (s, &c) in self.mem_capacities.iter().enumerate() {
            b = b.mem_capacity(s, c);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap()
    }

    #[test]
    fn link_normalizes_order() {
        let l = Link::new(5, 2);
        assert_eq!((l.a, l.b), (2, 5));
        assert_eq!(l.other(2), Some(5));
        assert_eq!(l.other(5), Some(2));
        assert_eq!(l.other(7), None);
    }

    #[test]
    fn builds_triangle() {
        let t = triangle();
        assert_eq!(t.num_switches(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.num_hosts(), 12);
        assert!(t.has_link(0, 1));
        assert!(t.has_link(1, 0));
        assert_eq!(t.degree(1), 2);
        assert!(t.is_connected());
        assert_eq!(t.diameter(), Some(1));
    }

    #[test]
    fn rejects_self_loop() {
        let err = TopologyBuilder::new(2, 1).link(1, 1).build().unwrap_err();
        assert_eq!(err, TopologyError::SelfLoop(1));
    }

    #[test]
    fn rejects_duplicate_even_reversed() {
        let err = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .link(1, 0)
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::DuplicateLink(0, 1));
    }

    #[test]
    fn rejects_out_of_range() {
        let err = TopologyBuilder::new(2, 1).link(0, 2).build().unwrap_err();
        assert!(matches!(
            err,
            TopologyError::SwitchOutOfRange { switch: 2, .. }
        ));
    }

    #[test]
    fn rejects_excess_degree() {
        let err = TopologyBuilder::new(4, 1)
            .max_degree(2)
            .links([(0, 1), (0, 2), (0, 3), (1, 2)])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            TopologyError::DegreeExceeded {
                switch: 0,
                degree: 3,
                max_degree: 2
            }
        ));
    }

    #[test]
    fn rejects_disconnected_by_default() {
        let err = TopologyBuilder::new(4, 1)
            .links([(0, 1), (2, 3)])
            .build()
            .unwrap_err();
        assert_eq!(err, TopologyError::Disconnected);
    }

    #[test]
    fn allows_disconnected_when_asked() {
        let t = TopologyBuilder::new(4, 1)
            .links([(0, 1), (2, 3)])
            .allow_disconnected()
            .build()
            .unwrap();
        assert!(!t.is_connected());
        assert_eq!(t.components(), vec![vec![0, 1], vec![2, 3]]);
        assert_eq!(t.diameter(), None);
        assert_eq!(t.average_distance(), None);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            TopologyBuilder::new(0, 1).build().unwrap_err(),
            TopologyError::Empty
        );
    }

    #[test]
    fn bfs_distances_on_path() {
        let t = TopologyBuilder::new(4, 1)
            .links([(0, 1), (1, 2), (2, 3)])
            .build()
            .unwrap();
        assert_eq!(t.bfs_distances(0), vec![0, 1, 2, 3]);
        assert_eq!(t.diameter(), Some(3));
        // Ordered-pair average of path P4: (1+2+3)*2 + (1+2)*2 + ... =
        // distances: d01=1,d02=2,d03=3,d12=1,d13=2,d23=1 => sum*2 = 20, /12.
        assert!((t.average_distance().unwrap() - 20.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn link_between_lookup() {
        let t = triangle();
        let id = t.link_between(2, 0).unwrap();
        assert_eq!(t.link(id), Link::new(0, 2));
        assert_eq!(t.link_between(0, 0), None);
    }

    #[test]
    fn cut_size_counts_crossing_links() {
        let t = triangle();
        assert_eq!(t.cut_size(&[true, false, false]), 2);
        assert_eq!(t.cut_size(&[true, true, true]), 0);
    }

    #[test]
    fn without_link_removes_exactly_one() {
        let t = triangle();
        let id = t.link_between(0, 1).unwrap();
        let degraded = t.without_link(id).unwrap();
        assert_eq!(degraded.num_links(), 2);
        assert!(!degraded.has_link(0, 1));
        assert!(degraded.has_link(1, 2));
        assert!(degraded.is_connected());
    }

    #[test]
    fn without_link_detects_partition() {
        let t = TopologyBuilder::new(3, 1)
            .links([(0, 1), (1, 2)])
            .build()
            .unwrap();
        let id = t.link_between(1, 2).unwrap();
        assert_eq!(t.without_link(id).unwrap_err(), TopologyError::Disconnected);
    }

    #[test]
    fn without_link_rejects_bad_id() {
        let t = triangle();
        assert!(t.without_link(99).is_err());
    }

    #[test]
    fn fingerprint_ignores_link_insertion_order() {
        let a = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        let b = TopologyBuilder::new(3, 4)
            .links([(2, 0), (0, 1), (1, 2)])
            .build()
            .unwrap();
        // Reversed endpoints normalize too.
        let c = TopologyBuilder::new(3, 4)
            .links([(1, 0), (2, 1), (0, 2)])
            .build()
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn fingerprint_is_sensitive_to_content() {
        let base = triangle();
        let different_link = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2)])
            .build()
            .unwrap();
        let different_slowdown = TopologyBuilder::new(3, 4)
            .link(0, 1)
            .link_with_slowdown(1, 2, 10)
            .link(2, 0)
            .build()
            .unwrap();
        let different_hosts = TopologyBuilder::new(3, 2)
            .links([(0, 1), (1, 2), (2, 0)])
            .build()
            .unwrap();
        assert_ne!(base.fingerprint(), different_link.fingerprint());
        assert_ne!(base.fingerprint(), different_slowdown.fingerprint());
        assert_ne!(base.fingerprint(), different_hosts.fingerprint());
    }

    #[test]
    fn mem_capacities_default_to_unlimited() {
        let t = triangle();
        assert!(!t.has_mem_capacities());
        assert_eq!(t.mem_capacity(0), None);
        assert_eq!(t.mem_capacities(), None);
    }

    #[test]
    fn uniform_and_per_switch_capacities() {
        let t = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .uniform_mem_capacity(1024)
            .mem_capacity(1, 64)
            .build()
            .unwrap();
        assert!(t.has_mem_capacities());
        assert_eq!(t.mem_capacity(0), Some(1024));
        assert_eq!(t.mem_capacity(1), Some(64));
        assert_eq!(t.mem_capacity(2), Some(1024));
        assert_eq!(t.mem_capacities(), Some(&[1024, 64, 1024][..]));
    }

    #[test]
    fn mem_capacity_rejects_out_of_range_switch() {
        let err = TopologyBuilder::new(2, 1)
            .link(0, 1)
            .mem_capacity(5, 100)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            TopologyError::SwitchOutOfRange { switch: 5, .. }
        ));
    }

    #[test]
    fn capacities_change_fingerprint_only_when_set() {
        let plain = triangle();
        let capped = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .uniform_mem_capacity(1024)
            .build()
            .unwrap();
        let capped_other = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .uniform_mem_capacity(2048)
            .build()
            .unwrap();
        assert_ne!(plain.fingerprint(), capped.fingerprint());
        assert_ne!(capped.fingerprint(), capped_other.fingerprint());
        // Uncapacitated fingerprints are byte-compatible with pre-capacity
        // builds: building the same network twice still agrees.
        assert_eq!(plain.fingerprint(), triangle().fingerprint());
    }

    #[test]
    fn without_link_preserves_capacities() {
        let t = TopologyBuilder::new(3, 4)
            .links([(0, 1), (1, 2), (2, 0)])
            .uniform_mem_capacity(512)
            .mem_capacity(2, 8)
            .build()
            .unwrap();
        let id = t.link_between(0, 1).unwrap();
        let degraded = t.without_link(id).unwrap();
        assert_eq!(degraded.mem_capacities(), Some(&[512, 512, 8][..]));
    }

    #[test]
    fn fingerprint_is_stable_across_builds() {
        // The same network built twice (and cloned) hashes identically —
        // the value is a pure function of content.
        assert_eq!(triangle().fingerprint(), triangle().fingerprint());
        let t = triangle();
        assert_eq!(t.fingerprint(), t.clone().fingerprint());
    }
}
