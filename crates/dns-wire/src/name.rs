//! Domain names: labels, presentation format, canonical ordering and
//! hierarchy relations.
//!
//! A [`Name`] is a sequence of labels stored lowercase (DNS comparison is
//! case-insensitive; we normalize at construction and remember nothing of
//! the original case, which is what every replay component needs).
//! Wire-format encoding/decoding, including RFC 1035 §4.1.4 compression
//! pointers, lives in [`crate::wire`].
//!
//! # Layout
//!
//! A name is one shared buffer of length-prefixed labels in *canonical*
//! order — rightmost (TLD) label first — plus the length of the prefix
//! it owns: `www.example.com` is `\x03com\x07example\x03www`. That
//! order makes the hot relations forward scans over one allocation:
//!
//! * an ancestor's bytes are a prefix of its descendant's, so
//!   [`Name::parent`] is the same buffer with a shorter length (a
//!   refcount bump, no allocation) and [`Name::is_subdomain_of`] is one
//!   `starts_with` (alignment is forced because both parses start at a
//!   length octet);
//! * [`Name::canonical_cmp`] (RFC 4034 §6.1) finds the first byte the
//!   two buffers differ in and compares the labels holding it.
//!
//! Every constructor allocates exactly once (the root shares one static
//! buffer and allocates never), and [`Clone`] is a refcount bump.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;
use std::sync::{Arc, OnceLock};

/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum number of labels: 127 one-octet labels fill the 255-octet
/// wire limit (`127 × 2 + 1`), so a 128th always fails with
/// [`NameError::NameTooLong`].
pub const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;

/// Errors constructing or parsing a [`Name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label is empty (`foo..bar`) where it must not be.
    EmptyLabel,
    /// A label exceeds 63 octets.
    LabelTooLong(usize),
    /// The whole name exceeds 255 octets in wire form.
    NameTooLong(usize),
    /// An escape sequence (`\ddd` or `\X`) is malformed.
    BadEscape,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label in name"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} octets exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} octets exceeds 255"),
            NameError::BadEscape => write!(f, "malformed escape sequence"),
        }
    }
}

impl std::error::Error for NameError {}

/// A fully-qualified domain name, stored as lowercase labels.
///
/// The root name has zero labels. Names compare and hash
/// case-insensitively by construction. See the [module docs](self) for
/// the shared-buffer layout.
///
/// ```
/// use dns_wire::name::Name;
/// let n: Name = "WWW.Example.COM.".parse().unwrap();
/// assert_eq!(n.to_string(), "www.example.com.");
/// assert_eq!(n.label_count(), 3);
/// assert!(n.is_subdomain_of(&"example.com".parse().unwrap()));
/// ```
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed lowercase labels, rightmost label first. This
    /// name is `buf[..len]`; its ancestors are shorter prefixes of the
    /// same buffer.
    buf: Arc<[u8]>,
    /// Bytes of `buf` this name owns: its wire length minus the root
    /// octet (≤ 254).
    len: u8,
    /// Label count (root = 0, ≤ [`MAX_LABELS`]).
    labels: u8,
}

/// The one buffer every root name shares.
fn root_buf() -> Arc<[u8]> {
    static ROOT: OnceLock<Arc<[u8]>> = OnceLock::new();
    ROOT.get_or_init(|| Arc::from(&[][..])).clone()
}

/// The label whose length octet sits at `at` in canonical bytes `b`.
#[inline]
fn label_at(b: &[u8], at: usize) -> Option<&[u8]> {
    let (&len, rest) = b.get(at..)?.split_first()?;
    rest.get(..len as usize)
}

/// The labels of canonical bytes `b`, rightmost first, each with the
/// offset of its length octet.
pub(crate) fn canonical_labels(b: &[u8]) -> impl Iterator<Item = (usize, &[u8])> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let label = label_at(b, at)?;
        let start = at;
        at += 1 + label.len();
        Some((start, label))
    })
}

/// Index of the first byte where `a` and `b` differ, if one of them is
/// not a prefix of the other: eight bytes at a time (the last word
/// overlapping its predecessor), bytewise for names under eight bytes.
/// A 65-key `BTreeMap<Name, _>::get` takes 1.8× as long with a bytewise
/// `position` and 1.15× with whole words plus a bytewise tail.
#[inline]
fn first_mismatch(a: &[u8], b: &[u8]) -> Option<usize> {
    let n = a.len().min(b.len());
    let (a, b) = (a.get(..n)?, b.get(..n)?);
    let Some(last) = n.checked_sub(8) else {
        return a.iter().zip(b).position(|(x, y)| x != y);
    };
    let word = |s: &[u8], i: usize| {
        let w: [u8; 8] = s.get(i..i + 8)?.try_into().ok()?;
        Some(u64::from_le_bytes(w))
    };
    let mut i = 0;
    loop {
        let diff = word(a, i)? ^ word(b, i)?;
        if diff != 0 {
            return Some(i + diff.trailing_zeros() as usize / 8);
        }
        if i == last {
            return None;
        }
        i = (i + 8).min(last);
    }
}

/// Assembles a name's canonical bytes in a stack buffer from the
/// leftmost label towards the rightmost: each addition lands *in front
/// of* what is already there, so labels arriving in query order (a
/// label list, a wire name) come out rightmost first with no second
/// pass. [`Builder::finish`] makes the name's one allocation.
pub(crate) struct Builder {
    buf: [u8; MAX_NAME_LEN - 1],
    /// The canonical bytes so far are `buf[start..]`.
    start: usize,
    labels: usize,
}

impl Builder {
    pub(crate) fn new() -> Self {
        Builder {
            buf: [0; MAX_NAME_LEN - 1],
            start: MAX_NAME_LEN - 1,
            labels: 0,
        }
    }

    /// Add one label (1–63 octets, checked by the caller), lowercased,
    /// to the right of those added so far. False if the name would
    /// exceed 255 wire octets.
    pub(crate) fn push(&mut self, label: &[u8]) -> bool {
        let Some(at) = self.start.checked_sub(1 + label.len()) else {
            return false;
        };
        let Some((len, body)) = self
            .buf
            .get_mut(at..self.start)
            .and_then(<[u8]>::split_first_mut)
        else {
            return false;
        };
        *len = label.len() as u8;
        for (d, s) in body.iter_mut().zip(label) {
            *d = s.to_ascii_lowercase();
        }
        self.start = at;
        self.labels += 1;
        true
    }

    /// Add all of `name`'s labels to the right of those added so far.
    fn push_name(&mut self, name: &Name) -> bool {
        let b = name.canonical();
        let Some(at) = self.start.checked_sub(b.len()) else {
            return false;
        };
        let Some(dst) = self.buf.get_mut(at..self.start) else {
            return false;
        };
        dst.copy_from_slice(b);
        self.start = at;
        self.labels += name.labels as usize;
        true
    }

    pub(crate) fn finish(&self) -> Name {
        let canonical = self.buf.get(self.start..).unwrap_or_default();
        if canonical.is_empty() {
            return Name::root();
        }
        Name {
            buf: Arc::from(canonical),
            len: canonical.len() as u8,
            labels: self.labels as u8,
        }
    }
}

impl Name {
    /// The root name (zero labels).
    pub fn root() -> Self {
        Name {
            buf: root_buf(),
            len: 0,
            labels: 0,
        }
    }

    /// Build from raw label byte strings. Labels are lowercased.
    pub fn from_labels<I, L>(labels: I) -> Result<Self, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut b = Builder::new();
        let mut wl = 1usize; // terminating root octet
        for l in labels {
            let l = l.as_ref();
            if l.is_empty() {
                return Err(NameError::EmptyLabel);
            }
            if l.len() > MAX_LABEL_LEN {
                return Err(NameError::LabelTooLong(l.len()));
            }
            // Past the limit only the length is still counted, for the
            // error below (every label is still checked first).
            wl += 1 + l.len();
            if wl <= MAX_NAME_LEN {
                b.push(l);
            }
        }
        if wl > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(b.finish())
    }

    /// This name's canonical bytes: length-prefixed labels, rightmost
    /// label first.
    #[inline]
    pub(crate) fn canonical(&self) -> &[u8] {
        self.buf.get(..self.len as usize).unwrap_or_default()
    }

    /// Offset of the leftmost label's length octet in
    /// [`Name::canonical`], with the label (a forward scan over the
    /// other labels).
    fn leftmost_at(&self) -> Option<(usize, &[u8])> {
        canonical_labels(self.canonical()).last()
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.labels == 0
    }

    /// Number of labels (root = 0).
    pub fn label_count(&self) -> usize {
        self.labels as usize
    }

    /// Iterate labels from leftmost (host) to rightmost (TLD).
    ///
    /// The iterator is double-ended and exact-size so wire encoding can
    /// walk suffixes right-to-left without materializing parent names.
    pub fn labels(&self) -> impl DoubleEndedIterator<Item = &[u8]> + ExactSizeIterator + '_ {
        Labels::new(self)
    }

    /// The length of this name in uncompressed wire form, including the
    /// terminating root octet.
    pub fn wire_len(&self) -> usize {
        self.len as usize + 1
    }

    /// The parent name (one label removed from the left), or `None` for
    /// the root. Shares this name's buffer: no allocation.
    pub fn parent(&self) -> Option<Name> {
        let (at, _) = self.leftmost_at()?;
        Some(Name {
            buf: self.buf.clone(),
            len: at as u8,
            labels: self.labels - 1,
        })
    }

    /// Strip `suffix` from this name; returns the remaining left labels.
    ///
    /// `www.example.com`.strip_suffix(`example.com`) → `Some([www])`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Vec<&[u8]>> {
        if !self.is_subdomain_of(suffix) {
            return None;
        }
        let keep = (self.labels - suffix.labels) as usize;
        Some(self.labels().take(keep).collect())
    }

    /// True if `self` is a subdomain of `other` (proper or equal).
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.canonical().starts_with(other.canonical())
    }

    /// True if `self` is a *proper* subdomain (strictly below `other`).
    pub fn is_proper_subdomain_of(&self, other: &Name) -> bool {
        self.len > other.len && self.is_subdomain_of(other)
    }

    /// Prepend a label, producing `label.self`.
    pub fn child(&self, label: &[u8]) -> Result<Name, NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.len()));
        }
        let wl = self.wire_len() + 1 + label.len();
        let mut b = Builder::new();
        if !(b.push(label) && b.push_name(self)) {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(b.finish())
    }

    /// Concatenate: `self` + `suffix` (e.g. relative name + origin).
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let wl = self.wire_len() + suffix.wire_len() - 1;
        let mut b = Builder::new();
        if !(b.push_name(self) && b.push_name(suffix)) {
            return Err(NameError::NameTooLong(wl));
        }
        Ok(b.finish())
    }

    /// The leftmost label, if any.
    pub fn leftmost(&self) -> Option<&[u8]> {
        self.leftmost_at().map(|(_, label)| label)
    }

    /// Replace the leftmost label with `*` (for wildcard synthesis).
    pub fn to_wildcard(&self) -> Option<Name> {
        // Swapping a label for the one-byte `*` can only shrink the
        // name, so this construction never exceeds the wire limits.
        let parent = self.parent()?;
        let mut b = Builder::new();
        b.push(b"*");
        b.push_name(&parent);
        Some(b.finish())
    }

    /// True if the leftmost label is `*`.
    pub fn is_wildcard(&self) -> bool {
        self.leftmost() == Some(b"*".as_slice())
    }

    /// Canonical DNS ordering (RFC 4034 §6.1): compare label-by-label
    /// from the *right*, case-insensitively (already lowercase), with
    /// absent labels sorting first. This ordering groups a zone's names
    /// hierarchically and is what NSEC chains use.
    ///
    /// Both buffers start at the rightmost label, so this is one forward
    /// scan. Everything before the first differing byte is shared, label
    /// boundaries included, so the order is that of the two labels
    /// holding that byte; if there is none, the shorter name is an
    /// ancestor of the longer and sorts first.
    #[inline]
    pub fn canonical_cmp(&self, other: &Name) -> Ordering {
        let (a, b) = (self.canonical(), other.canonical());
        let Some(p) = first_mismatch(a, b) else {
            return a.len().cmp(&b.len());
        };
        let mut at = 0;
        while let Some(&len) = a.get(at) {
            let next = at + 1 + len as usize;
            if next > p {
                break;
            }
            at = next;
        }
        if at == p {
            // Labels of different lengths: compare them whole.
            label_at(a, at).cmp(&label_at(b, at))
        } else {
            // Same label length (the length octet is shared).
            a.get(p).cmp(&b.get(p))
        }
    }

    /// Render a single label in presentation format, escaping dots,
    /// backslashes and non-printable bytes per RFC 1035 §5.1.
    fn fmt_label(label: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &b in label {
            match b {
                b'.' | b'\\' | b'"' | b';' | b'(' | b')' | b'@' | b'$' => {
                    write!(f, "\\{}", b as char)?
                }
                0x21..=0x7e => write!(f, "{}", b as char)?,
                _ => write!(f, "\\{:03}", b)?,
            }
        }
        Ok(())
    }
}

/// [`Name::labels`]: label offsets are found by one forward scan, then
/// served from either end.
struct Labels<'a> {
    canonical: &'a [u8],
    /// Length-octet offset of each label, rightmost label first.
    starts: [u8; MAX_LABELS],
    /// Unyielded labels are `starts[lo..hi]`: `next` takes `hi - 1`
    /// (leftmost), `next_back` takes `lo` (rightmost).
    lo: usize,
    hi: usize,
}

impl<'a> Labels<'a> {
    fn new(name: &'a Name) -> Self {
        let canonical = name.canonical();
        let mut starts = [0u8; MAX_LABELS];
        for (slot, (at, _)) in starts.iter_mut().zip(canonical_labels(canonical)) {
            *slot = at as u8;
        }
        Labels {
            canonical,
            starts,
            lo: 0,
            hi: name.labels as usize,
        }
    }

    fn label(&self, i: usize) -> Option<&'a [u8]> {
        label_at(self.canonical, *self.starts.get(i)? as usize)
    }
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.lo == self.hi {
            return None;
        }
        self.hi -= 1;
        self.label(self.hi)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.hi - self.lo, Some(self.hi - self.lo))
    }
}

impl DoubleEndedIterator for Labels<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.lo == self.hi {
            return None;
        }
        self.lo += 1;
        self.label(self.lo - 1)
    }
}

impl ExactSizeIterator for Labels<'_> {}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for Name {}

impl Hash for Name {
    /// Hashes the canonical bytes, which are equal exactly when the
    /// names are.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.canonical_cmp(other)
    }
}

impl fmt::Debug for Name {
    /// `Name { labels: [[119, 119, 119], …] }`: the labels, leftmost
    /// first, as byte lists.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct LabelList<'a>(&'a Name);
        impl fmt::Debug for LabelList<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.labels()).finish()
            }
        }
        f.debug_struct("Name")
            .field("labels", &LabelList(self))
            .finish()
    }
}

impl fmt::Display for Name {
    /// Presentation format with trailing dot; the root prints as `"."`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for label in self.labels() {
            Name::fmt_label(label, f)?;
            write!(f, ".")?;
        }
        Ok(())
    }
}

/// [`Name::from_str`]'s state: the label being unescaped and the
/// [`Builder`] each finished label goes straight into.
struct Parser {
    name: Builder,
    label: [u8; MAX_LABEL_LEN],
    /// Octets in the current label; past [`MAX_LABEL_LEN`] they are
    /// only counted, for the error.
    label_len: usize,
    /// Wire length of the finished labels plus the root octet.
    wire_len: usize,
    /// Length of the first over-long label.
    too_long: Option<usize>,
}

impl Parser {
    fn byte(&mut self, b: u8) {
        if let Some(slot) = self.label.get_mut(self.label_len) {
            *slot = b;
        }
        self.label_len += 1;
    }

    fn end_label(&mut self) -> Result<(), NameError> {
        let len = std::mem::take(&mut self.label_len);
        if len == 0 {
            return Err(NameError::EmptyLabel);
        }
        if len > MAX_LABEL_LEN {
            self.too_long.get_or_insert(len);
            return Ok(());
        }
        self.wire_len += 1 + len;
        if self.wire_len <= MAX_NAME_LEN {
            self.name.push(self.label.get(..len).unwrap_or_default());
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Name, NameError> {
        if self.label_len > 0 {
            self.end_label()?;
        }
        if let Some(len) = self.too_long {
            return Err(NameError::LabelTooLong(len));
        }
        if self.wire_len > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(self.wire_len));
        }
        Ok(self.name.finish())
    }
}

impl FromStr for Name {
    type Err = NameError;

    /// Parse presentation format. A trailing dot is optional — all names
    /// are treated as fully qualified. Supports `\ddd` and `\X` escapes.
    ///
    /// Syntax errors (an empty label, a bad escape) are reported where
    /// they occur; length errors once the whole string has parsed, the
    /// first over-long label before an over-long name.
    fn from_str(s: &str) -> Result<Self, NameError> {
        if s == "." || s.is_empty() {
            return Ok(Name::root());
        }
        let mut p = Parser {
            name: Builder::new(),
            label: [0; MAX_LABEL_LEN],
            label_len: 0,
            wire_len: 1,
            too_long: None,
        };
        let mut rest = s.as_bytes();
        while let Some((&b, tail)) = rest.split_first() {
            rest = tail;
            match b {
                // Escape: \ddd (three digits) or \X (literal char).
                b'\\' => match rest {
                    [d0 @ b'0'..=b'9', d1 @ b'0'..=b'9', d2 @ b'0'..=b'9', tail @ ..] => {
                        let d = u16::from(d0 - b'0') * 100
                            + u16::from(d1 - b'0') * 10
                            + u16::from(d2 - b'0');
                        p.byte(u8::try_from(d).map_err(|_| NameError::BadEscape)?);
                        rest = tail;
                    }
                    [c, tail @ ..] => {
                        p.byte(*c);
                        rest = tail;
                    }
                    [] => return Err(NameError::BadEscape),
                },
                b'.' => p.end_label()?,
                b => p.byte(b),
            }
        }
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn root_round_trip() {
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(n("."), Name::root());
        assert_eq!(n(""), Name::root());
        assert!(Name::root().is_root());
        assert_eq!(Name::root().wire_len(), 1);
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(n("www.example.com").to_string(), "www.example.com.");
        assert_eq!(n("www.example.com.").to_string(), "www.example.com.");
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(n("WWW.EXAMPLE.COM"), n("www.example.com"));
        let mut set = std::collections::HashSet::new();
        set.insert(n("Example.Com"));
        assert!(set.contains(&n("example.com")));
    }

    #[test]
    fn label_count_and_parent() {
        let name = n("a.b.c");
        assert_eq!(name.label_count(), 3);
        assert_eq!(name.parent().unwrap(), n("b.c"));
        assert_eq!(n("c").parent().unwrap(), Name::root());
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn subdomain_relations() {
        assert!(n("www.example.com").is_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_subdomain_of(&n("com")));
        assert!(n("www.example.com").is_subdomain_of(&Name::root()));
        assert!(n("example.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.com").is_proper_subdomain_of(&n("example.com")));
        assert!(n("www.example.com").is_proper_subdomain_of(&n("example.com")));
        assert!(!n("badexample.com").is_subdomain_of(&n("example.com")));
        assert!(!n("example.org").is_subdomain_of(&n("example.com")));
    }

    #[test]
    fn strip_suffix() {
        let full = n("mail.google.com");
        let left = full.strip_suffix(&n("google.com")).unwrap();
        assert_eq!(left, vec![b"mail".as_slice()]);
        let g = n("google.com");
        assert!(g.strip_suffix(&n("example.com")).is_none());
        assert_eq!(g.strip_suffix(&n("google.com")).unwrap().len(), 0);
    }

    #[test]
    fn child_and_concat() {
        assert_eq!(
            n("example.com").child(b"www").unwrap(),
            n("www.example.com")
        );
        assert_eq!(
            n("www").concat(&n("example.com")).unwrap(),
            n("www.example.com")
        );
        assert_eq!(Name::root().child(b"com").unwrap(), n("com"));
    }

    #[test]
    fn wildcard() {
        let w = n("www.example.com").to_wildcard().unwrap();
        assert_eq!(w, n("*.example.com"));
        assert!(w.is_wildcard());
        assert!(!n("www.example.com").is_wildcard());
        assert!(Name::root().to_wildcard().is_none());
    }

    #[test]
    fn canonical_ordering_rfc4034() {
        // Example ordering from RFC 4034 §6.1 (subset).
        let ordered = [
            "example",
            "a.example",
            "yljkjljk.a.example",
            "z.a.example",
            "zabc.a.example",
            "z.example",
        ];
        for w in ordered.windows(2) {
            assert_eq!(
                n(w[0]).canonical_cmp(&n(w[1])),
                Ordering::Less,
                "{} < {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(Name::root().canonical_cmp(&n("com")), Ordering::Less);
    }

    #[test]
    fn length_limits() {
        let long_label = "a".repeat(64);
        assert!(matches!(
            long_label.parse::<Name>(),
            Err(NameError::LabelTooLong(64))
        ));
        let ok_label = "a".repeat(63);
        assert!(ok_label.parse::<Name>().is_ok());
        // 4 * (63+1) + 1 = 257 > 255.
        let too_long = format!("{0}.{0}.{0}.{0}", "a".repeat(63));
        assert!(matches!(
            too_long.parse::<Name>(),
            Err(NameError::NameTooLong(_))
        ));
    }

    #[test]
    fn empty_label_rejected() {
        assert!(matches!(n_err("a..b"), NameError::EmptyLabel));
        assert!(matches!(n_err(".a"), NameError::EmptyLabel));
    }

    fn n_err(s: &str) -> NameError {
        s.parse::<Name>().unwrap_err()
    }

    #[test]
    fn escapes() {
        let name: Name = r"a\.b.example".parse().unwrap();
        assert_eq!(name.label_count(), 2);
        assert_eq!(name.leftmost().unwrap(), b"a.b");
        assert_eq!(name.to_string(), r"a\.b.example.");
        let re: Name = name.to_string().parse().unwrap();
        assert_eq!(re, name);

        let numeric: Name = r"\065bc".parse().unwrap();
        assert_eq!(numeric.leftmost().unwrap(), b"abc");

        assert!(matches!(
            r"a\300b".parse::<Name>(),
            Err(NameError::BadEscape)
        ));
        assert!(matches!(
            r"trailing\".parse::<Name>(),
            Err(NameError::BadEscape)
        ));
    }

    #[test]
    fn non_printable_bytes_escape() {
        let name = Name::from_labels([&[0x01u8, b'a'][..]]).unwrap();
        assert_eq!(name.to_string(), r"\001a.");
        let round: Name = name.to_string().parse().unwrap();
        assert_eq!(round, name);
    }

    #[test]
    fn wire_len() {
        assert_eq!(n("com").wire_len(), 5); // 1+3 + root
        assert_eq!(n("example.com").wire_len(), 13);
    }
}
