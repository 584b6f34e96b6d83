//! XMark-shaped auction generator (recursive DTD, depth 12).
//!
//! Reproduces the XMark backbone the QA and benchmark queries touch:
//! six continent sections under `regions` with `item`s (QA2, QA3 —
//! `shipping` is present on ~60% of items), `categories` with
//! recursive `description/parlist/listitem` nesting reaching level 12
//! (QA1 and the Depth row of Fig. 12), `people`, `open_auctions` with
//! `bidder`s (Q2/Q4), and `closed_auctions` (Q5). Attribute nodes
//! (`@id`, `@person`, …) count toward the 77-tag inventory, as in the
//! paper's node accounting.

use crate::writer::XmlWriter;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CONTINENTS: [&str; 6] = ["africa", "asia", "australia", "europe", "namerica", "samerica"];

/// Counts per scale unit, tuned so `scale = 1` lands near the paper's
/// 61 890 nodes.
const ITEMS_PER_CONTINENT: u32 = 220;
const CATEGORIES: u32 = 240;
const PEOPLE: u32 = 850;
const OPEN_AUCTIONS: u32 = 720;
const CLOSED_AUCTIONS: u32 = 480;

/// Generate the auction dataset.
pub fn auction(scale: u32, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = XmlWriter::with_capacity(3_600_000 * scale as usize);
    w.open("site");

    w.open("regions");
    let mut item_id = 0u32;
    for continent in CONTINENTS {
        w.open(continent);
        for _ in 0..scale * ITEMS_PER_CONTINENT {
            write_item(&mut w, &mut rng, item_id);
            item_id += 1;
        }
        w.close();
    }
    w.close();

    w.open("categories");
    for c in 0..scale * CATEGORIES {
        w.open_with("category", &[("id", &format!("category{c}"))]);
        w.leaf("name", &format!("Category {c}"));
        write_description(&mut w, &mut rng, true);
        w.close();
    }
    w.close();

    w.open("catgraph");
    for c in 0..scale * CATEGORIES / 2 {
        w.open_with("edge", &[("from", &format!("category{c}")), ("to", &format!("category{}", c + 1))]);
        w.close();
    }
    w.close();

    w.open("people");
    for p in 0..scale * PEOPLE {
        write_person(&mut w, &mut rng, p);
    }
    w.close();

    w.open("open_auctions");
    for a in 0..scale * OPEN_AUCTIONS {
        write_open_auction(&mut w, &mut rng, a);
    }
    w.close();

    w.open("closed_auctions");
    for a in 0..scale * CLOSED_AUCTIONS {
        write_closed_auction(&mut w, &mut rng, a);
    }
    w.close();

    w.close();
    w.finish()
}

fn write_item(w: &mut XmlWriter, rng: &mut StdRng, id: u32) {
    w.open_with("item", &[("id", &format!("item{id}"))]);
    w.leaf("location", "United States");
    w.leaf("quantity", "1");
    w.leaf("name", &format!("Item {id}"));
    w.leaf("payment", "Creditcard");
    write_description(w, rng, true);
    if rng.gen_bool(0.6) {
        w.leaf("shipping", "Will ship internationally");
    }
    for _ in 0..rng.gen_range(1..=2) {
        w.open_with("incategory", &[("category", &format!("category{}", rng.gen_range(0..100)))]);
        w.close();
    }
    if rng.gen_bool(0.3) {
        w.open("mailbox");
        w.open("mail");
        w.leaf("from", "Buyer");
        w.leaf("to", "Seller");
        w.leaf("date", "07/15/2000");
        w.leaf("text", "Is this still available?");
        w.close();
        w.close();
    }
    w.close();
}

/// Description with optional recursive parlist nesting. When `deep`,
/// recursion may reach the document's level 12.
fn write_description(w: &mut XmlWriter, rng: &mut StdRng, deep: bool) {
    w.open("description");
    if rng.gen_bool(0.5) {
        w.leaf("text", "A fine lot in excellent condition.");
    } else {
        let max_extra = if deep { 3 } else { 1 };
        let depth = rng.gen_range(1..=max_extra);
        write_parlist(w, rng, depth);
    }
    w.close();
}

fn write_parlist(w: &mut XmlWriter, rng: &mut StdRng, depth: u32) {
    w.open("parlist");
    for _ in 0..rng.gen_range(1..=2) {
        w.open("listitem");
        if depth > 1 {
            write_parlist(w, rng, depth - 1);
        } else {
            w.leaf("text", "closes in a week");
        }
        w.close();
    }
    w.close();
}

fn write_person(w: &mut XmlWriter, rng: &mut StdRng, id: u32) {
    w.open_with("person", &[("id", &format!("person{id}"))]);
    w.leaf("name", &format!("Person {id}"));
    w.leaf("emailaddress", &format!("mailto:person{id}@example.org"));
    if rng.gen_bool(0.4) {
        w.leaf("phone", "+1 (555) 555-0100");
    }
    if rng.gen_bool(0.5) {
        w.open("address");
        w.leaf("street", "30 McCrossin St");
        w.leaf("city", "Philadelphia");
        w.leaf("country", "United States");
        w.leaf("zipcode", "19104");
        w.close();
    }
    if rng.gen_bool(0.2) {
        w.leaf("homepage", &format!("http://example.org/~person{id}"));
    }
    if rng.gen_bool(0.3) {
        w.leaf("creditcard", "1234 5678 9012 3456");
    }
    if rng.gen_bool(0.5) {
        w.open_with("profile", &[("income", "55000")]);
        for _ in 0..rng.gen_range(0..=2) {
            w.open_with("interest", &[("category", &format!("category{}", rng.gen_range(0..100)))]);
            w.close();
        }
        if rng.gen_bool(0.5) {
            w.leaf("education", "Graduate School");
        }
        w.leaf("gender", if rng.gen_bool(0.5) { "male" } else { "female" });
        w.leaf("business", "Yes");
        if rng.gen_bool(0.5) {
            w.leaf("age", "32");
        }
        w.close();
    }
    if rng.gen_bool(0.3) {
        w.open("watches");
        w.open_with("watch", &[("open_auction", &format!("open_auction{}", rng.gen_range(0..300)))]);
        w.close();
        w.close();
    }
    w.close();
}

fn write_open_auction(w: &mut XmlWriter, rng: &mut StdRng, id: u32) {
    w.open_with("open_auction", &[("id", &format!("open_auction{id}"))]);
    w.leaf("initial", "15.00");
    if rng.gen_bool(0.5) {
        w.leaf("reserve", "25.00");
    }
    for _ in 0..rng.gen_range(0..=3) {
        w.open("bidder");
        w.leaf("date", "08/01/2000");
        w.leaf("time", "12:34:56");
        w.open_with("personref", &[("person", &format!("person{}", rng.gen_range(0..350)))]);
        w.close();
        w.leaf("increase", "3.00");
        w.close();
    }
    w.leaf("current", "27.00");
    if rng.gen_bool(0.3) {
        w.leaf("privacy", "Yes");
    }
    w.open_with("itemref", &[("item", &format!("item{}", rng.gen_range(0..540)))]);
    w.close();
    w.open_with("seller", &[("person", &format!("person{}", rng.gen_range(0..350)))]);
    w.close();
    w.open("annotation");
    w.leaf("author", &format!("Person {}", rng.gen_range(0..350)));
    write_description(w, rng, false);
    w.leaf("happiness", "8");
    w.close();
    w.leaf("quantity", "1");
    w.leaf("type", "Regular");
    w.open("interval");
    w.leaf("start", "07/25/2000");
    w.leaf("end", "09/25/2000");
    w.close();
    w.close();
}

fn write_closed_auction(w: &mut XmlWriter, rng: &mut StdRng, _id: u32) {
    w.open("closed_auction");
    w.open_with("seller", &[("person", &format!("person{}", rng.gen_range(0..350)))]);
    w.close();
    w.open_with("buyer", &[("person", &format!("person{}", rng.gen_range(0..350)))]);
    w.close();
    w.open_with("itemref", &[("item", &format!("item{}", rng.gen_range(0..540)))]);
    w.close();
    w.leaf("price", "42.50");
    w.leaf("date", "09/02/2000");
    w.leaf("quantity", "1");
    w.leaf("type", "Regular");
    w.open("annotation");
    w.leaf("author", &format!("Person {}", rng.gen_range(0..350)));
    write_description(w, rng, false);
    w.leaf("happiness", "9");
    w.close();
    w.close();
}

#[cfg(test)]
mod tests {
    use super::*;
    use blas_xml::{DocStats, Document, SchemaGraph};

    #[test]
    fn base_scale_matches_paper_shape() {
        let xml = auction(1, 42);
        let stats = DocStats::from_str(&xml).unwrap();
        // Paper: 61 890 nodes, 77 tags, depth 12.
        assert!(
            (48_000..80_000).contains(&stats.nodes),
            "nodes = {}",
            stats.nodes
        );
        assert!((55..=85).contains(&stats.tags), "tags = {}", stats.tags);
        assert_eq!(stats.depth, 12, "recursive parlist nesting");
    }

    #[test]
    fn dtd_recursion_nests_parlist_in_listitem() {
        let doc = Document::parse(&auction(1, 42)).unwrap();
        let nested = ["parlist", "listitem", "parlist", "listitem"].map(String::from);
        assert!(SchemaGraph::infer(&doc).paths().iter().any(|p| p.windows(4).any(|w| w == nested)));
    }

    #[test]
    fn qa3_selectivity() {
        let doc = Document::parse(&auction(1, 42)).unwrap();
        let items: Vec<_> = doc
            .node_ids()
            .filter(|&n| doc.tag_name(n) == "item")
            .collect();
        let with_shipping = items
            .iter()
            .filter(|&&n| doc.node(n).children.iter().any(|&c| doc.tag_name(c) == "shipping"))
            .count();
        assert!(with_shipping > 0 && with_shipping < items.len());
    }

    #[test]
    fn deterministic() {
        assert_eq!(auction(1, 5), auction(1, 5));
    }
}
