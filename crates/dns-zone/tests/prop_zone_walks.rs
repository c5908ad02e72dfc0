//! The zone walks against their linear-scan definitions: every probe
//! [`Zone`] makes (`has_names_below`, `closest_encloser`,
//! `find_zone_cut`, `nsec_covering`) must answer exactly what scanning
//! the whole zone answers, on random zones with empty non-terminals,
//! wildcards, nested cuts and NSEC chains — including NSEC owners that
//! `strip_dnssec` removes again.

use std::cmp::Ordering;

use dns_wire::{Name, RData, Record, RecordType, Soa};
use dns_zone::dnssec::{sign_zone, SignConfig};
use dns_zone::Zone;
use ldp_rng::prop::{self, check};
use ldp_rng::StdRng;

/// Any node strictly below `name`, by scanning every name.
fn scan_has_names_below(zone: &Zone, name: &Name) -> bool {
    zone.names().any(|n| n != name && n.is_subdomain_of(name))
}

/// The longest existing (holding records, or an empty non-terminal)
/// proper ancestor of `qname`, stopping at the apex.
fn scan_closest_encloser(zone: &Zone, qname: &Name) -> Option<Name> {
    let mut cur = qname.parent()?;
    loop {
        if zone.node(&cur).is_some() || scan_has_names_below(zone, &cur) {
            return Some(cur);
        }
        if &cur == zone.origin() {
            return None;
        }
        cur = cur.parent()?;
    }
}

/// The highest NS-holding name strictly below the apex on the path
/// from the apex down to `qname` (inclusive), found top-down.
fn scan_find_zone_cut(zone: &Zone, qname: &Name) -> Option<Name> {
    if !qname.is_subdomain_of(zone.origin()) {
        return None;
    }
    let mut path = Vec::new();
    let mut cur = qname.clone();
    while cur.label_count() > zone.origin().label_count() {
        path.push(cur.clone());
        cur = cur.parent()?;
    }
    path.into_iter()
        .rev()
        .find(|n| zone.node(n).is_some_and(|node| node.has_ns()))
}

/// The last name canonically ≤ `qname` holding an NSEC RRset.
fn scan_nsec_covering(zone: &Zone, qname: &Name) -> Option<Name> {
    zone.names()
        .filter(|n| n.canonical_cmp(qname) != Ordering::Greater)
        .filter(|n| {
            zone.node(n)
                .is_some_and(|node| node.get(RecordType::NSEC).is_some())
        })
        .last()
        .cloned()
}

/// Relative names from a small label pool (deep names make empty
/// non-terminals; shared labels make nested cuts and shared branches).
fn arb_rel(r: &mut StdRng) -> Vec<&'static str> {
    const POOL: &[&str] = &["a", "b", "c", "www", "mail", "x", "*"];
    prop::vec(r, 1..=4, |r| POOL[r.gen_range(0..POOL.len())])
}

#[derive(Debug, Clone)]
enum Item {
    A(Vec<&'static str>),
    Delegation(Vec<&'static str>),
    Nsec(Vec<&'static str>),
}

#[derive(Debug)]
struct Case {
    items: Vec<Item>,
    queries: Vec<Vec<&'static str>>,
    signed: bool,
}

fn arb_case(r: &mut StdRng) -> Case {
    let items = prop::vec(r, 0..=14, |r| match r.gen_range(0..6u32) {
        0..=2 => Item::A(arb_rel(r)),
        3 => Item::Delegation(arb_rel(r)),
        _ => Item::Nsec(arb_rel(r)),
    });
    Case {
        items,
        queries: prop::vec(r, 8..=8, |r| {
            let mut q = arb_rel(r);
            q.extend(prop::vec(r, 0..=1, |r| ["zz", "a"][r.gen_range(0..2)]));
            q
        }),
        signed: r.gen_range(0..8u32) == 0,
    }
}

fn origin() -> Name {
    "walk.example".parse().unwrap()
}

fn full(rel: &[&str]) -> Name {
    format!("{}.walk.example", rel.join(".")).parse().unwrap()
}

fn build(case: &Case) -> Zone {
    let origin = origin();
    let mut zone = Zone::new(origin.clone());
    zone.insert(Record::new(
        origin.clone(),
        3600,
        RData::Soa(Soa {
            mname: "ns1.walk.example".parse().unwrap(),
            rname: "host.walk.example".parse().unwrap(),
            serial: 1,
            refresh: 7200,
            retry: 3600,
            expire: 86400,
            minimum: 300,
        }),
    ))
    .unwrap();
    for item in &case.items {
        let rec = match item {
            Item::A(n) => Record::new(full(n), 300, RData::A([10, 0, 0, 1].into())),
            Item::Delegation(n) => {
                Record::new(full(n), 300, RData::Ns("ns.child.invalid".parse().unwrap()))
            }
            Item::Nsec(n) => Record::new(
                full(n),
                300,
                RData::Nsec {
                    next: origin.clone(),
                    types: vec![RecordType::A, RecordType::NSEC],
                },
            ),
        };
        zone.insert(rec).unwrap();
    }
    zone
}

/// Probe names: the case's queries, every zone name, their parents and
/// children, and names outside the zone.
fn probes(zone: &Zone, case: &Case) -> Vec<Name> {
    let mut out: Vec<Name> = case.queries.iter().map(|q| full(q)).collect();
    for n in zone.names() {
        out.push(n.clone());
        out.extend(n.parent());
        out.push(n.child(b"zz").unwrap());
        out.push(n.child(b"*").unwrap());
    }
    out.push(Name::root());
    out.push("example".parse().unwrap());
    out.push("other.example".parse().unwrap());
    out
}

fn assert_walks_match(zone: &Zone, probes: &[Name]) {
    for q in probes {
        assert_eq!(
            zone.has_names_below(q),
            scan_has_names_below(zone, q),
            "has_names_below({q})"
        );
        assert_eq!(
            zone.closest_encloser(q),
            scan_closest_encloser(zone, q),
            "closest_encloser({q})"
        );
        assert_eq!(
            zone.find_zone_cut(q).map(|(n, _)| n.clone()),
            scan_find_zone_cut(zone, q),
            "find_zone_cut({q})"
        );
        assert_eq!(
            zone.nsec_covering(q).cloned(),
            scan_nsec_covering(zone, q),
            "nsec_covering({q})"
        );
        if let Some((cut, ns)) = zone.find_zone_cut(q) {
            assert_eq!(ns.rtype, RecordType::NS);
            assert_eq!(zone.node(cut).and_then(|n| n.get(RecordType::NS)), Some(ns));
        }
    }
}

#[test]
fn zone_walks_agree_with_linear_scans() {
    check("zone_walks", 300, arb_case, |case| {
        let mut zone = build(&case);
        if case.signed {
            zone = sign_zone(&zone, SignConfig::with_zsk_bits(1024)).zone;
        }
        let ps = probes(&zone, &case);
        assert_walks_match(&zone, &ps);

        // Stripping removes every NSEC owner from the index too, and
        // the probes still agree on what remains.
        let had_nsec = zone.names().any(|n| {
            zone.node(n)
                .is_some_and(|x| x.get(RecordType::NSEC).is_some())
        });
        zone.strip_dnssec();
        if had_nsec {
            assert!(ps.iter().all(|q| zone.nsec_covering(q).is_none()));
        }
        assert_walks_match(&zone, &ps);
        // A re-inserted NSEC is indexed again.
        if let Some(owner) = zone.names().last().cloned() {
            zone.insert(Record::new(
                owner.clone(),
                300,
                RData::Nsec {
                    next: origin(),
                    types: vec![RecordType::NSEC],
                },
            ))
            .unwrap();
            assert_eq!(zone.nsec_covering(&owner), Some(&owner));
            assert_walks_match(&zone, &ps);
        }
    });
}

/// Descendants sort directly after their ancestor, which is what makes
/// the successor probes sound — shown here on a hand-built zone where
/// a lexically close sibling (`ab`) sits between `a`'s subtree and the
/// next branch.
#[test]
fn successor_probe_sees_descendants_not_siblings() {
    let mut zone = Zone::new(origin());
    for n in ["x.a", "ab", "b"] {
        let rel: Vec<&str> = n.split('.').collect();
        zone.insert(Record::new(full(&rel), 60, RData::A([10, 0, 0, 2].into())))
            .unwrap();
    }
    assert!(zone.has_names_below(&full(&["a"])));
    assert!(!zone.has_names_below(&full(&["ab"])));
    assert!(!zone.has_names_below(&full(&["x", "a"])));
    assert!(!zone.has_names_below(&full(&["aa"])));
    assert_eq!(
        zone.closest_encloser(&full(&["y", "a"])),
        Some(full(&["a"]))
    );
    assert_eq!(zone.closest_encloser(&full(&["y", "aa"])), Some(origin()));
}
