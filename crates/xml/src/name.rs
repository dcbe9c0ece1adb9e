//! Qualified names, backed by a global interning table.
//!
//! XMI documents use colon-prefixed names extensively (`UML:ActionState`,
//! `xmi.id` — note the *dot*, not a colon, in XMI attribute names). We treat
//! names lexically: a single optional `prefix:` plus a local part, with no
//! namespace-URI resolution, which is exactly the granularity the paper's
//! stylesheets operate at.
//!
//! Every distinct name string is interned once into a process-wide atom
//! table and leaked, so a [`QName`] is a `Copy` value (an [`Atom`] id plus a
//! `&'static str`) and equality/hashing are integer operations. The DOM,
//! XPath node tests, and XSLT pattern matching all compare names on the hot
//! path, so this turns the dominant string-compare cost of the generative
//! chain into integer compares. The set of distinct names in any workload is
//! bounded by its vocabulary (element/attribute names), so the leak is
//! bounded too.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock};

/// Interned name id. Two atoms are equal iff their strings are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom(u32);

/// The interner is sharded by name hash so concurrent parsers (the batch
/// transformer runs one per worker) do not serialize on a single lock.
const SHARD_COUNT: u32 = 16;

#[derive(Default)]
struct Shard {
    map: HashMap<&'static str, Atom>,
    names: Vec<&'static str>,
}

fn shards() -> &'static [RwLock<Shard>; SHARD_COUNT as usize] {
    static SHARDS: OnceLock<[RwLock<Shard>; SHARD_COUNT as usize]> = OnceLock::new();
    SHARDS.get_or_init(|| std::array::from_fn(|_| RwLock::new(Shard::default())))
}

fn shard_of(s: &str) -> u32 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    (h.finish() % SHARD_COUNT as u64) as u32
}

impl Atom {
    /// Intern `s`, allocating (and leaking) it on first sight.
    ///
    /// The hit path takes only the shard's read lock, so concurrent parsers
    /// re-interning an already-known vocabulary proceed in parallel; the
    /// write lock is taken only for a genuinely new name.
    pub fn intern(s: &str) -> Atom {
        let shard_idx = shard_of(s);
        let lock = &shards()[shard_idx as usize];
        if let Some(&a) = lock.read().unwrap().map.get(s) {
            return a;
        }
        let mut shard = lock.write().unwrap();
        // Re-check: another thread may have inserted between the locks.
        if let Some(&a) = shard.map.get(s) {
            return a;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        // Atom ids interleave across shards: slot-in-shard * SHARD_COUNT +
        // shard index, so `as_str` can find the owning shard without a map.
        let a = Atom(shard.names.len() as u32 * SHARD_COUNT + shard_idx);
        shard.names.push(leaked);
        shard.map.insert(leaked, a);
        a
    }

    /// Look `s` up without inserting. `None` means no document or expression
    /// seen by this process has ever mentioned the name — useful as a
    /// query-side fast path (nothing can match a name that was never
    /// interned).
    pub fn lookup(s: &str) -> Option<Atom> {
        shards()[shard_of(s) as usize].read().unwrap().map.get(s).copied()
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        let shard = &shards()[(self.0 % SHARD_COUNT) as usize];
        shard.read().unwrap().names[(self.0 / SHARD_COUNT) as usize]
    }
}

/// A lexically qualified XML name.
///
/// `Copy`; equality and hashing compare the interned [`Atom`] (integer
/// compares). Ordering remains lexical on the full name so sorted output is
/// stable and human-meaningful.
#[derive(Debug, Clone, Copy)]
pub struct QName {
    atom: Atom,
    full: &'static str,
    /// Byte offset of the colon in `full`, if any.
    colon: Option<u32>,
}

impl QName {
    /// Build from a raw name as it appeared in the source.
    pub fn new(full: impl AsRef<str>) -> Self {
        let s = full.as_ref();
        let atom = Atom::intern(s);
        let full = atom.as_str();
        let colon = full.find(':').map(|i| i as u32);
        QName { atom, full, colon }
    }

    /// The interned atom for the full name.
    pub fn atom(&self) -> Atom {
        self.atom
    }

    /// The full name as written, e.g. `UML:ActionState`.
    pub fn as_str(&self) -> &'static str {
        self.full
    }

    /// The prefix, if any (`UML` in `UML:ActionState`).
    pub fn prefix(&self) -> Option<&'static str> {
        self.colon.map(|i| &self.full[..i as usize])
    }

    /// The local part (`ActionState` in `UML:ActionState`).
    pub fn local(&self) -> &'static str {
        match self.colon {
            Some(i) => &self.full[i as usize + 1..],
            None => self.full,
        }
    }

    /// True if the full lexical name equals `other`.
    pub fn is(&self, other: &str) -> bool {
        self.full == other
    }
}

impl PartialEq for QName {
    fn eq(&self, other: &Self) -> bool {
        self.atom == other.atom
    }
}

impl Eq for QName {}

impl std::hash::Hash for QName {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.atom.hash(state);
    }
}

impl PartialOrd for QName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.atom == other.atom {
            std::cmp::Ordering::Equal
        } else {
            self.full.cmp(other.full)
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.full)
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> Self {
        QName::new(s)
    }
}

impl From<String> for QName {
    fn from(s: String) -> Self {
        QName::new(s)
    }
}

/// Is `c` valid as the first character of an XML name?
pub fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_' || c == ':'
}

/// Is `c` valid inside an XML name?
///
/// Includes `.` and `-`, which XMI attribute names (`xmi.id`, `xmi.idref`)
/// rely on.
pub fn is_name_char(c: char) -> bool {
    is_name_start(c) || c.is_ascii_digit() || c == '.' || c == '-' || c == '\u{B7}'
}

/// ASCII byte variant of [`is_name_start`]; non-ASCII bytes are *not*
/// claimed by the byte fast path and fall back to the char-based check.
#[inline]
pub fn is_ascii_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

/// ASCII byte variant of [`is_name_char`].
#[inline]
pub fn is_ascii_name_char(b: u8) -> bool {
    is_ascii_name_start(b) || b.is_ascii_digit() || b == b'.' || b == b'-'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_prefix() {
        let q = QName::new("UML:ActionState");
        assert_eq!(q.prefix(), Some("UML"));
        assert_eq!(q.local(), "ActionState");
        assert_eq!(q.as_str(), "UML:ActionState");
    }

    #[test]
    fn unprefixed_name() {
        let q = QName::new("task");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local(), "task");
    }

    #[test]
    fn xmi_dot_names_are_single_local_part() {
        let q = QName::new("xmi.id");
        assert_eq!(q.prefix(), None);
        assert_eq!(q.local(), "xmi.id");
    }

    #[test]
    fn interning_dedupes_atoms() {
        let a = QName::new("UML:Partition");
        let b = QName::new(String::from("UML:Partition"));
        assert_eq!(a.atom(), b.atom());
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(QName::new("other").atom(), a.atom());
    }

    #[test]
    fn lookup_does_not_insert() {
        assert_eq!(Atom::lookup("never-seen-name-xyzzy"), None);
        let q = QName::new("now-seen-name-xyzzy");
        assert_eq!(Atom::lookup("now-seen-name-xyzzy"), Some(q.atom()));
    }

    #[test]
    fn ordering_stays_lexical() {
        let mut v = [QName::new("zeta"), QName::new("alpha"), QName::new("beta")];
        v.sort();
        let names: Vec<_> = v.iter().map(|q| q.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "zeta"]);
    }

    #[test]
    fn name_char_classes() {
        assert!(is_name_start('U'));
        assert!(is_name_start('_'));
        assert!(!is_name_start('1'));
        assert!(is_name_char('.'));
        assert!(is_name_char('-'));
        assert!(is_name_char('9'));
        assert!(!is_name_char(' '));
        assert!(!is_name_char('='));
        assert!(is_ascii_name_start(b'U') && !is_ascii_name_start(b'1'));
        assert!(is_ascii_name_char(b'.') && !is_ascii_name_char(b' '));
    }
}
