//! Seeded statement streams for the three workloads.
//!
//! Every insert in every stream is paired with a delete that removes
//! exactly what it inserted, so the document serializes byte-identical
//! after each pair and a stream can be cycled for as long as a run
//! lasts. A *round* is the smallest whole unit of a stream: runs only
//! ever stop at round boundaries, so the mix of statement kinds in a
//! run is exact whatever the seed and however long the run.

use crate::rng::Rng;
use xivm_xmark::{update_by_name, BenchUpdate, XmarkConfig};

/// Serialized size of the `point` and `bulk` documents: the XMark
/// generator's byte target that serializes to about 1 MiB.
pub const LARGE_DOC_TARGET: usize = 1536 * 1024;
/// Serialized size of the `feed` document: about 64 KiB.
pub const SMALL_DOC_TARGET: usize = 96 * 1024;

/// Rounds generated up front; the workloads cycle through them.
pub const STREAM_ROUNDS: usize = 64;

/// Generator configuration of one child process's document: the run's
/// seed, decorrelated per process, so a run averages over a few
/// documents of the same statistics.
pub fn doc_config(seed: u64, proc_index: u64, target_bytes: usize) -> XmarkConfig {
    XmarkConfig { target_bytes, seed: Rng::derive(seed, 1000 + proc_index).next_u64() }
}

/// The three entity kinds a point pair inserts and deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    Person,
    Item,
    Auction,
}

impl Entity {
    pub const ALL: [Entity; 3] = [Entity::Person, Entity::Item, Entity::Auction];

    pub fn name(self) -> &'static str {
        match self {
            Entity::Person => "person",
            Entity::Item => "item",
            Entity::Auction => "auction",
        }
    }

    /// The container the entity is inserted into (every entity is a
    /// starred child of its container in the XMark DTD, so inserts keep
    /// the document conforming).
    pub fn container(self) -> &'static str {
        match self {
            Entity::Person => "/site/people",
            Entity::Item => "/site/regions/namerica",
            Entity::Auction => "/site/open_auctions",
        }
    }

    /// The element the entity's fragment is rooted at.
    pub fn tag(self) -> &'static str {
        match self {
            Entity::Person => "person",
            Entity::Item => "item",
            Entity::Auction => "open_auction",
        }
    }
}

/// One insert/delete pair of a single entity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityPair {
    pub kind: Entity,
    /// The inserted XML fragment.
    pub fragment: String,
    /// `insert <fragment> into <container>`.
    pub insert: String,
    /// `delete <container>/<tag>[@id="…"]`: exactly the inserted entity.
    pub delete: String,
}

const WORDS: [&str; 12] = [
    "amber", "brisk", "cobalt", "dune", "ember", "fjord", "garnet", "harbor", "indigo", "juniper",
    "kelp", "lumen",
];
const FIRST: [&str; 6] = ["Ada", "Bo", "Cy", "Di", "Ed", "Flo"];
const LAST: [&str; 6] = ["Hale", "Ito", "Kerr", "Lund", "Moss", "Nye"];

fn words(rng: &mut Rng, n: usize) -> String {
    (0..n).map(|_| *rng.pick(&WORDS)).collect::<Vec<_>>().join(" ")
}

fn date(rng: &mut Rng) -> String {
    format!("{:02}/{:02}/20{:02}", 1 + rng.below(12), 1 + rng.below(28), rng.below(30))
}

/// One entity pair. The shape of the fragment is fixed per kind (so
/// every seed maintains the same views with the same delta sizes); the
/// seed picks the `@id` and the text.
pub fn entity_pair(kind: Entity, rng: &mut Rng) -> EntityPair {
    let id = format!("bench_{}{}", kind.name(), rng.below(1_000_000));
    let fragment = match kind {
        // Q1 and Q17 (it has a homepage) each gain one tuple.
        Entity::Person => format!(
            "<person id=\"{id}\"><name>{} {}</name><emailaddress>mailto:{id}@example.org\
             </emailaddress><homepage>http://www.example.org/~{id}</homepage><watches/></person>",
            rng.pick(&FIRST),
            rng.pick(&LAST),
        ),
        // Q6 and Q13 (namerica, with a name and a description).
        Entity::Item => format!(
            "<item id=\"{id}\"><location>Internal</location><quantity>{}</quantity>\
             <name>{}</name><payment>Cash</payment><description><parlist>{}</parlist>\
             </description></item>",
            1 + rng.below(5),
            words(rng, 2),
            words(rng, 8),
        ),
        // Q2, Q3 (increase 4.50) and Q4 (a bid by person12).
        Entity::Auction => format!(
            "<open_auction id=\"{id}\"><initial>1.50</initial><bidder><date>{}</date>\
             <time>{:02}:{:02}:00</time><personref person=\"person12\"/><increase>4.50</increase>\
             </bidder><current>{}.00</current><itemref item=\"item{}\"/><seller person=\"person{}\"/>\
             <annotation><description>{}</description></annotation><quantity>1</quantity>\
             <type>Regular</type><interval><start>{}</start><end>{}</end></interval></open_auction>",
            date(rng),
            rng.below(24),
            rng.below(60),
            10 + rng.below(900),
            rng.below(100),
            rng.below(100),
            words(rng, 4),
            date(rng),
            date(rng),
        ),
    };
    let insert = format!("insert {fragment} into {}", kind.container());
    let delete = format!("delete {}/{}[@id=\"{id}\"]", kind.container(), kind.tag());
    EntityPair { kind, fragment, insert, delete }
}

/// The entity fragment inside the skeleton of its container — a
/// minimal document on which a from-scratch view evaluation counts
/// exactly the tuples the insert must add.
pub fn fragment_in_context(pair: &EntityPair) -> String {
    let inner = &pair.fragment;
    match pair.kind {
        Entity::Person => format!("<site><people>{inner}</people></site>"),
        Entity::Item => format!("<site><regions><namerica>{inner}</namerica></regions></site>"),
        Entity::Auction => format!("<site><open_auctions>{inner}</open_auctions></site>"),
    }
}

/// The pairs of one entity round. Each kind's insert and delete fall in
/// separate latency modes; the multiplicities put the median inside
/// the auction-insert mode and the 90th percentile inside the
/// auction-delete mode, away from any boundary between modes, so
/// neither flips between modes from run to run.
pub const ENTITY_ROUND: [Entity; 5] =
    [Entity::Person, Entity::Person, Entity::Item, Entity::Auction, Entity::Auction];

/// One round of entity pairs ([`ENTITY_ROUND`]), in seeded order.
pub fn entity_round(rng: &mut Rng) -> Vec<EntityPair> {
    let mut kinds = ENTITY_ROUND;
    rng.shuffle(&mut kinds);
    kinds.into_iter().map(|k| entity_pair(k, rng)).collect()
}

/// [`STREAM_ROUNDS`] entity rounds for the `point` and `feed` streams.
pub fn entity_stream(seed: u64) -> Vec<Vec<EntityPair>> {
    let mut rng = Rng::derive(seed, 1);
    (0..STREAM_ROUNDS).map(|_| entity_round(&mut rng)).collect()
}

/// The inverse of a catalog insert: a delete of exactly the fragments
/// `for $x in path insert xml into $x` added. The fragment's root is
/// told apart from pre-existing siblings of the same tag by its first
/// child element (with that child's text, when it has any), which the
/// XMark generator never emits under that tag.
pub fn catalog_inverse(update: &BenchUpdate) -> String {
    let (root, marker) = fragment_marker(update.insert_xml);
    format!("delete {}/{root}[{marker}]", update.path)
}

/// `(root tag, predicate)` identifying a catalog fragment.
fn fragment_marker(xml: &str) -> (String, String) {
    let tag_at = |s: &str| -> String {
        s.trim_start_matches('<')
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
            .collect()
    };
    let root = tag_at(xml);
    let after_root = &xml[xml.find('>').expect("fragment has a root tag") + 1..];
    let child_at = after_root.find('<').expect("catalog fragments have a child element");
    let child_xml = &after_root[child_at..];
    let child = tag_at(child_xml);
    let body = &child_xml[child_xml.find('>').expect("child tag closes") + 1..];
    let text = &body[..body.find('<').unwrap_or(body.len())];
    let marker = if text.trim().is_empty() { child } else { format!("{child}=\"{text}\"") };
    (root, marker)
}

/// One multi-statement transaction of catalog inserts and its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkPair {
    /// Catalog update names, in statement order.
    pub names: Vec<&'static str>,
    pub inserts: Vec<String>,
    /// The inverses, in the same order: each deletes the fragments of
    /// its insert that are still present.
    pub deletes: Vec<String>,
}

/// The `bulk` transactions of one round: Appendix A set-oriented
/// inserts that hit hundreds of targets each. The light person
/// transaction (whose two statements share targets, so the optimizer
/// aggregates) runs once; the mid and heavy ones run twice, which puts
/// the median inside the mid transactions' latency mode and the 90th
/// percentile inside the heavy ones'.
pub const BULK_ROUND: [&[&str]; 5] = [
    &["A8_AO", "A6_A"],
    &["X8_AO", "X3_A"],
    &["X8_AO", "X3_A"],
    &["E6_A", "B3_LB"],
    &["E6_A", "B3_LB"],
];

fn bulk_pair(names: &[&'static str]) -> BulkPair {
    let updates: Vec<BenchUpdate> = names.iter().map(|n| update_by_name(n)).collect();
    BulkPair {
        names: names.to_vec(),
        inserts: updates
            .iter()
            .map(|u| format!("for $x in {} insert {} into $x", u.path, u.insert_xml))
            .collect(),
        deletes: updates.iter().map(catalog_inverse).collect(),
    }
}

/// [`STREAM_ROUNDS`] bulk rounds: the transactions of [`BULK_ROUND`]
/// in seeded order.
pub fn bulk_stream(seed: u64) -> Vec<Vec<BulkPair>> {
    let mut rng = Rng::derive(seed, 2);
    (0..STREAM_ROUNDS)
        .map(|_| {
            let mut order = BULK_ROUND;
            rng.shuffle(&mut order);
            order.into_iter().map(bulk_pair).collect()
        })
        .collect()
}
