//! [`Name`] against a reference model: the plain labels-vector
//! representation (one owned byte string per label, leftmost first)
//! with the textbook definitions of every operation. The shared-buffer
//! layout must agree with it on construction and its errors, ordering,
//! equality and hashing, hierarchy relations, derived names,
//! presentation format, `Debug`, and wire decoding (compression
//! pointers included).

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use dns_wire::name::{Name, NameError, MAX_LABELS, MAX_LABEL_LEN, MAX_NAME_LEN};
use dns_wire::wire::{WireError, WireReader, WireWriter};
use ldp_rng::prop::{self, check};
use ldp_rng::StdRng;

/// The reference model. Its derived `Debug` is the format `Name`'s
/// must reproduce, so the type is called `Name` too.
mod model {
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Name {
        pub labels: Vec<Box<[u8]>>,
    }
}
use model::Name as Ref;

fn ref_wire_len(r: &Ref) -> usize {
    1 + r.labels.iter().map(|l| 1 + l.len()).sum::<usize>()
}

fn ref_from_labels<L: AsRef<[u8]>>(labels: &[L]) -> Result<Ref, NameError> {
    let mut out = Vec::new();
    for l in labels {
        let l = l.as_ref();
        if l.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if l.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(l.len()));
        }
        out.push(l.to_ascii_lowercase().into_boxed_slice());
    }
    let r = Ref { labels: out };
    let wl = ref_wire_len(&r);
    if wl > MAX_NAME_LEN {
        return Err(NameError::NameTooLong(wl));
    }
    Ok(r)
}

/// RFC 4034 §6.1, label by label from the right.
fn ref_cmp(a: &Ref, b: &Ref) -> Ordering {
    let (a, b) = (&a.labels, &b.labels);
    for i in 1..=a.len().min(b.len()) {
        match a[a.len() - i].cmp(&b[b.len() - i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    a.len().cmp(&b.len())
}

fn ref_strip_suffix<'a>(a: &'a Ref, suffix: &Ref) -> Option<Vec<&'a [u8]>> {
    if suffix.labels.len() > a.labels.len() {
        return None;
    }
    let split = a.labels.len() - suffix.labels.len();
    (a.labels[split..] == suffix.labels[..])
        .then(|| a.labels[..split].iter().map(|l| &**l).collect())
}

fn ref_concat(a: &Ref, suffix: &Ref) -> Result<Ref, NameError> {
    let mut labels = a.labels.clone();
    labels.extend(suffix.labels.iter().cloned());
    ref_from_labels(&labels)
}

fn ref_child(a: &Ref, label: &[u8]) -> Result<Ref, NameError> {
    if label.is_empty() {
        return Err(NameError::EmptyLabel);
    }
    if label.len() > MAX_LABEL_LEN {
        return Err(NameError::LabelTooLong(label.len()));
    }
    let mut labels = vec![label.to_vec().into_boxed_slice()];
    labels.extend(a.labels.iter().cloned());
    ref_from_labels(&labels)
}

fn ref_display(a: &Ref) -> String {
    if a.labels.is_empty() {
        return ".".into();
    }
    let mut s = String::new();
    for l in &a.labels {
        for &b in l.iter() {
            match b {
                b'.' | b'\\' | b'"' | b';' | b'(' | b')' | b'@' | b'$' => {
                    s.push('\\');
                    s.push(b as char);
                }
                0x21..=0x7e => s.push(b as char),
                _ => s += &format!("\\{b:03}"),
            }
        }
        s.push('.');
    }
    s
}

/// The presentation-format parser, escapes and all.
fn ref_parse(s: &str) -> Result<Ref, NameError> {
    if s == "." || s.is_empty() {
        return Ok(Ref { labels: vec![] });
    }
    let bytes = s.as_bytes();
    let mut labels: Vec<Vec<u8>> = Vec::new();
    let mut cur = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => {
                if i + 3 < bytes.len() && bytes[i + 1..i + 4].iter().all(u8::is_ascii_digit) {
                    let d = bytes[i + 1..i + 4]
                        .iter()
                        .fold(0u16, |d, b| d * 10 + u16::from(b - b'0'));
                    if d > 255 {
                        return Err(NameError::BadEscape);
                    }
                    cur.push(d as u8);
                    i += 4;
                } else if i + 1 < bytes.len() {
                    cur.push(bytes[i + 1]);
                    i += 2;
                } else {
                    return Err(NameError::BadEscape);
                }
            }
            b'.' => {
                if cur.is_empty() {
                    return Err(NameError::EmptyLabel);
                }
                labels.push(std::mem::take(&mut cur));
                i += 1;
            }
            b => {
                cur.push(b);
                i += 1;
            }
        }
    }
    if !cur.is_empty() {
        labels.push(cur);
    }
    ref_from_labels(&labels)
}

/// Decode a name at `pos` the straightforward way: collect owned
/// labels while following pointers. Returns the result and the cursor
/// position after the name.
fn ref_get_name(buf: &[u8], start: usize) -> (Result<Ref, WireError>, usize) {
    let mut labels: Vec<Vec<u8>> = Vec::new();
    let (mut pos, mut cursor) = (start, start);
    let (mut jumped, mut hops, mut total) = (false, 0, 1);
    loop {
        let Some(&len) = buf.get(pos) else {
            return (Err(WireError::Truncated), cursor);
        };
        match len & 0xc0 {
            0x00 if len == 0 => {
                if !jumped {
                    cursor = pos + 1;
                }
                let r = ref_from_labels(&labels).map_err(|_| WireError::BadName);
                return (r, cursor);
            }
            0x00 => {
                let l = len as usize;
                let Some(label) = buf.get(pos + 1..pos + 1 + l) else {
                    return (Err(WireError::Truncated), cursor);
                };
                total += 1 + l;
                if total > MAX_NAME_LEN {
                    return (Err(WireError::BadName), cursor);
                }
                labels.push(label.to_vec());
                pos += 1 + l;
            }
            0xc0 => {
                let Some(&b2) = buf.get(pos + 1) else {
                    return (Err(WireError::Truncated), cursor);
                };
                let target = (((len & 0x3f) as usize) << 8) | b2 as usize;
                hops += 1;
                if target >= pos || hops > 64 {
                    return (Err(WireError::BadPointer), cursor);
                }
                if !jumped {
                    cursor = pos + 2;
                    jumped = true;
                }
                pos = target;
            }
            other => return (Err(WireError::BadLabelType(other)), cursor),
        }
    }
}

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// Labels that stress the layout: length-like bytes inside labels
/// (`x\x03com` must not look like a suffix `com`), case, wildcards,
/// escapes in presentation form, NUL and high bytes, and a few random
/// ones. A small pool makes shared suffixes and equal names common.
fn arb_label(r: &mut StdRng) -> Vec<u8> {
    const POOL: &[&[u8]] = &[
        b"com",
        b"COM",
        b"x\x03com",
        b"\x03com",
        b"co",
        b"comm",
        b"example",
        b"a",
        b"A",
        b"*",
        b"b.c",
        b"\\",
        b"\x00",
        b"\xff\x01",
        b"\x3f",
    ];
    if r.gen_range(0..4u32) == 0 {
        prop::vec(r, 1..=MAX_LABEL_LEN, |r| r.gen::<u8>())
    } else {
        POOL[r.gen_range(0..POOL.len())].to_vec()
    }
}

fn arb_labels(r: &mut StdRng) -> Vec<Vec<u8>> {
    prop::vec(r, 0..=5, arb_label)
}

/// A pair of label lists that often share a suffix, plus a candidate
/// child label (sometimes empty or overlong, to exercise the errors).
fn arb_case(r: &mut StdRng) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<u8>) {
    let a = arb_labels(r);
    let b = match r.gen_range(0..3u32) {
        0 => arb_labels(r),
        // A suffix of `a` (an ancestor).
        1 => a[r.gen_range(0..a.len() + 1)..].to_vec(),
        // `a` under extra labels (a descendant).
        _ => {
            let mut b = arb_labels(r);
            b.extend(a.iter().cloned());
            b
        }
    };
    let child = match r.gen_range(0..8u32) {
        0 => vec![],
        1 => vec![b'z'; MAX_LABEL_LEN + 1],
        _ => arb_label(r),
    };
    (a, b, child)
}

fn same(n: &Name, r: &Ref) {
    assert_eq!(
        n.labels().collect::<Vec<_>>(),
        r.labels.iter().map(|l| &**l).collect::<Vec<_>>()
    );
    assert_eq!(
        n.labels().rev().collect::<Vec<_>>(),
        r.labels.iter().rev().map(|l| &**l).collect::<Vec<_>>()
    );
    assert_eq!(n.labels().len(), r.labels.len());
    assert_eq!(n.label_count(), r.labels.len());
    assert_eq!(n.is_root(), r.labels.is_empty());
    assert_eq!(n.wire_len(), ref_wire_len(r));
    assert_eq!(n.leftmost(), r.labels.first().map(|l| &**l));
    assert_eq!(
        n.is_wildcard(),
        r.labels.first().is_some_and(|l| &**l == b"*")
    );
    assert_eq!(n.to_string(), ref_display(r));
    assert_eq!(format!("{n:?}"), format!("{r:?}"));
    assert_eq!(format!("{n:#?}"), format!("{r:#?}"));
    // Equal to a freshly built copy, by value and by hash.
    let fresh = Name::from_labels(&r.labels);
    assert_eq!(fresh.as_ref(), Ok(n));
    assert_eq!(fresh.map(|f| hash_of(&f)), Ok(hash_of(n)));
}

fn same_result(n: Result<Name, NameError>, r: Result<Ref, NameError>) -> Option<(Name, Ref)> {
    assert_eq!(n.is_ok(), r.is_ok(), "name {n:?} vs reference {r:?}");
    match (n, r) {
        (Ok(n), Ok(r)) => {
            same(&n, &r);
            Some((n, r))
        }
        (n, r) => {
            assert_eq!(n.err(), r.err());
            None
        }
    }
}

#[test]
fn name_agrees_with_the_labels_vector_model() {
    check("name_model", 2_000, arb_case, |(a, b, child)| {
        let built = (Name::from_labels(&a), Name::from_labels(&b));
        let (Some((na, ra)), Some((nb, rb))) = (
            same_result(built.0, ref_from_labels(&a)),
            same_result(built.1, ref_from_labels(&b)),
        ) else {
            return;
        };

        // Ordering, equality and hashing.
        assert_eq!(na.canonical_cmp(&nb), ref_cmp(&ra, &rb));
        assert_eq!(nb.canonical_cmp(&na), ref_cmp(&rb, &ra));
        assert_eq!(na.cmp(&nb), ref_cmp(&ra, &rb));
        assert_eq!(na == nb, ra == rb);
        assert_eq!(na.canonical_cmp(&nb) == Ordering::Equal, na == nb);
        if na == nb {
            assert_eq!(hash_of(&na), hash_of(&nb));
        }

        // Hierarchy relations only at label boundaries.
        for (x, y, rx, ry) in [(&na, &nb, &ra, &rb), (&nb, &na, &rb, &ra)] {
            let stripped = ref_strip_suffix(rx, ry);
            assert_eq!(x.is_subdomain_of(y), stripped.is_some());
            assert_eq!(
                x.is_proper_subdomain_of(y),
                stripped.is_some() && rx.labels.len() > ry.labels.len()
            );
            assert_eq!(x.strip_suffix(y), stripped);
        }

        // Derived names: the parent chain, wildcard, child, concat.
        let (mut p, mut rp) = (na.clone(), ra.clone());
        while let Some(parent) = p.parent() {
            rp.labels.remove(0);
            same(&parent, &rp);
            assert!(na.is_subdomain_of(&parent));
            assert_eq!(parent.canonical_cmp(&na), Ordering::Less);
            p = parent;
        }
        assert!(p.is_root() && p == Name::root());
        let wild = na.to_wildcard();
        assert_eq!(wild.is_none(), ra.labels.is_empty(), "{wild:?} for {ra:?}");
        if let Some(w) = wild {
            let mut rw = ra.clone();
            rw.labels[0] = b"*".to_vec().into_boxed_slice();
            same(&w, &rw);
        }
        same_result(na.child(&child), ref_child(&ra, &child));
        same_result(na.concat(&nb), ref_concat(&ra, &rb));
        same_result(nb.concat(&na), ref_concat(&rb, &ra));

        // Presentation format round trip.
        assert_eq!(na.to_string().parse::<Name>().unwrap(), na);
    });
}

/// Presentation strings over a class rich in dots, escapes and digits:
/// the parser must produce the reference's name or its exact error.
#[test]
fn from_str_agrees_with_the_reference_parser() {
    let gen = |r: &mut StdRng| match r.gen_range(0..4u32) {
        0 => {
            let label = prop::string(r, "a", 60..=66);
            let n = r.gen_range(1..6usize);
            let mut s = vec![label; n].join(".");
            if r.gen() {
                s.insert(r.gen_range(0..s.len()), '.');
            }
            s
        }
        _ => prop::string(r, "a-cA-C0-9.\\\\*", 0..=24),
    };
    check("name_from_str", 3_000, gen, |s| {
        same_result(s.parse::<Name>(), ref_parse(&s));
    });
}

#[test]
fn label_octet_and_count_limits_fail_with_the_same_errors() {
    let cases: Vec<Vec<Vec<u8>>> = vec![
        vec![vec![b'a'; 63]],
        vec![vec![b'a'; 64]],
        // 255 octets exactly, then 256.
        vec![
            vec![b'a'; 63],
            vec![b'b'; 63],
            vec![b'c'; 63],
            vec![b'd'; 61],
        ],
        vec![
            vec![b'a'; 63],
            vec![b'b'; 63],
            vec![b'c'; 63],
            vec![b'd'; 62],
        ],
        // An overlong label after the total is already too long.
        vec![
            vec![b'a'; 63],
            vec![b'b'; 63],
            vec![b'c'; 63],
            vec![b'd'; 63],
            vec![b'e'; 64],
        ],
        // 127 one-octet labels fill the limit; 128 exceed it.
        vec![vec![b'x']; MAX_LABELS],
        vec![vec![b'x']; MAX_LABELS + 1],
        vec![vec![b'x']; 300],
        vec![vec![b'x'], vec![]],
    ];
    for labels in cases {
        let got = same_result(Name::from_labels(&labels), ref_from_labels(&labels));
        let text = labels
            .iter()
            .map(|l| String::from_utf8(l.clone()).unwrap())
            .collect::<Vec<_>>()
            .join(".");
        same_result(text.parse::<Name>(), ref_parse(&text));
        if let Some((n, _)) = got {
            // The derived-name limits hold at the edge too.
            let child = n.child(b"y");
            let expect = ref_child(&ref_from_labels(&labels).unwrap(), b"y");
            same_result(child, expect);
        }
    }
    assert_eq!(MAX_LABELS, 127);
}

/// Names written back to back through the compressing writer (so
/// later ones point into earlier ones) decode to themselves, and the
/// decoder agrees with the reference decoder — result and cursor — on
/// those buffers with one byte corrupted.
#[test]
fn wire_round_trip_with_compression_pointers() {
    let gen = |r: &mut StdRng| {
        let names = prop::vec(r, 1..=6, |r| loop {
            if let Ok(n) = Name::from_labels(arb_labels(r)) {
                break n;
            }
        });
        (names, r.gen::<u64>())
    };
    check("name_wire", 1_000, gen, |(names, noise)| {
        let mut w = WireWriter::new();
        let mut starts = Vec::new();
        for n in &names {
            starts.push(w.len());
            w.put_name(n);
        }
        let buf = w.into_bytes();
        let mut rd = WireReader::new(&buf);
        for (n, &at) in names.iter().zip(&starts) {
            assert_eq!(rd.position(), at);
            assert_eq!(&rd.get_name().unwrap(), n);
        }
        assert_eq!(rd.remaining(), 0);

        let mut bad = buf.clone();
        let at = (noise as usize) % bad.len();
        bad[at] = (noise >> 32) as u8;
        for &start in &starts {
            let mut rd = WireReader::new(&bad);
            rd.seek(start);
            let got = rd.get_name();
            let (expect, cursor) = ref_get_name(&bad, start);
            assert_eq!(
                got.is_ok(),
                expect.is_ok(),
                "{got:?} vs reference {expect:?}"
            );
            match (&got, &expect) {
                (Ok(n), Ok(r)) => same(n, r),
                _ => assert_eq!(got.as_ref().err(), expect.as_ref().err()),
            }
            if got.is_ok() {
                assert_eq!(rd.position(), cursor);
            }
        }
    });
}

/// Decoding lowercases, including labels reached through a pointer.
#[test]
fn decoding_lowercases_through_pointers() {
    // "WWW.Example.COM" at 0, then "Mail" + pointer to "Example.COM".
    let mut buf = b"\x03WWW\x07Example\x03COM\x00".to_vec();
    buf.extend_from_slice(b"\x04Mail\xc0\x04");
    let mut rd = WireReader::new(&buf);
    assert_eq!(rd.get_name().unwrap().to_string(), "www.example.com.");
    let mail = rd.get_name().unwrap();
    assert_eq!(mail.to_string(), "mail.example.com.");
    assert_eq!(mail, "MAIL.example.com".parse().unwrap());
    assert_eq!(rd.remaining(), 0);
}
