//! The bits a restart restores: the oracle under the table spill format.
//!
//! A daemon writes every cached table of equivalent distances to a file
//! and reads it back after a restart; a post-restart `FAULT` repairs the
//! restored table incrementally and every `F_G` is a sum over it, so a
//! restored table must be the built one bit for bit. This file records,
//! per case, the FNV-1a 64 digest of a table *after* one round trip
//! through a codec — `n` and `to_bits()` of the upper triangle — and
//! checks every codec in [`CODECS`] against the same line, and the
//! round-tripped table against the built one with `==`.
//!
//! The digests were recorded through the text codec (`table_to_text` →
//! `table_from_text`) on the commit where that text was what a spill file
//! held (EXPERIMENTS.md "PR 23" names it). The build cases are hashed the
//! way `golden.rs` hashes them, so a line here equals the `…/sparse`
//! line there: the text format loses nothing. Regenerate a
//! line only when a table bit is *meant* to move; a codec is added by
//! adding it to [`CODECS`], never by editing a digest.

use commsched_distance::{
    equivalent_distance_table, table_from_bytes, table_from_text, table_to_bytes, table_to_text,
    DistanceTable,
};
use commsched_routing::{Routing, ShortestPathRouting, UpDownRouting};
use commsched_topology::{designed, random_regular, RandomTopologyConfig, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write;

/// `(case, fnv1a-64 of the round-tripped bits)`.
const GOLDEN: [(&str, &str); 10] = [
    ("paper24/updown/exact", "1b218a6e605ff47d"),
    ("paper24/shortest/exact", "aeee85002588484c"),
    ("ring8/updown/exact", "4b1df2ebe659b185"),
    ("ring8/shortest/exact", "85b6ba469bb63f7d"),
    ("random16/updown/exact", "42ce9d113336a6d6"),
    ("random16/shortest/exact", "893eb06d13864d6d"),
    ("random64/updown/exact", "1c437bfe6be46068"),
    ("random64/shortest/exact", "2831b59f4d4eb87a"),
    ("random96/updown/exact", "cb11a08186608019"),
    ("random96/shortest/exact", "6b953509d366625f"),
];

/// One way a table leaves the process and comes back.
type Codec = fn(&DistanceTable) -> DistanceTable;

/// Every codec a table may be restored through. Each must reproduce
/// every line of [`GOLDEN`].
const CODECS: [(&str, Codec); 2] = [("text", text_round_trip), ("binary", binary_round_trip)];

fn text_round_trip(table: &DistanceTable) -> DistanceTable {
    table_from_text(&table_to_text(table)).expect("text parses")
}

fn binary_round_trip(table: &DistanceTable) -> DistanceTable {
    table_from_bytes(&table_to_bytes(table)).expect("bytes parse")
}

/// FNV-1a 64 over the little-endian bytes of every word fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn table(&mut self, t: &DistanceTable) {
        self.word(t.n() as u64);
        for i in 0..t.n() {
            for &d in &t.row(i)[i + 1..] {
                self.word(d.to_bits());
            }
        }
    }
}

/// Both routings on one network, each table through every codec; all
/// mismatches of the network are reported at once (that is also how the
/// table is recorded).
fn check_net(net: &str, topo: &Topology) {
    let routings: [(&str, Box<dyn Routing>); 2] = [
        ("updown", Box::new(UpDownRouting::new(topo, 0).unwrap())),
        (
            "shortest",
            Box::new(ShortestPathRouting::new(topo).unwrap()),
        ),
    ];
    let mut moved = String::new();
    for (routing_name, routing) in &routings {
        let name = format!("{net}/{routing_name}/exact");
        let built =
            equivalent_distance_table(topo, &**routing).unwrap_or_else(|e| panic!("{name}: {e}"));
        let want = GOLDEN
            .iter()
            .find(|(case, _)| *case == name)
            .map_or("<no line in GOLDEN>", |line| line.1);
        for (codec_name, codec) in CODECS {
            let back = codec(&built);
            assert!(
                back == built,
                "{name}: the {codec_name} round trip moved a table entry"
            );
            let mut h = Fnv::new();
            h.table(&back);
            let got = format!("{:016x}", h.0);
            if got != want {
                writeln!(
                    moved,
                    "(\"{name}\", \"{got}\"), // recorded {want}; via {codec_name}; n {} total_square {:?}",
                    back.n(),
                    back.total_square()
                )
                .unwrap();
            }
        }
    }
    assert!(moved.is_empty(), "restored bits moved:\n{moved}");
}

/// The §5.1 class: `n` switches of degree three (the nets of `golden.rs`).
fn random_net(n: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(21_000 + n as u64);
    random_regular(RandomTopologyConfig::paper(n), &mut rng).unwrap()
}

#[test]
fn paper24() {
    check_net("paper24", &designed::paper_24_switch());
}

#[test]
fn ring8() {
    check_net("ring8", &designed::ring(8, 1));
}

#[test]
fn random16() {
    check_net("random16", &random_net(16));
}

#[test]
fn random64() {
    check_net("random64", &random_net(64));
}

/// The `large_warm` shape.
#[test]
fn random96() {
    check_net("random96", &random_net(96));
}
