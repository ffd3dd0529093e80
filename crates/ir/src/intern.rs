//! Global string interner.
//!
//! All relation names and string constants are interned to [`Symbol`]s
//! (a `u32` index). Interning makes atom unification, index probes and
//! tuple comparison integer comparisons, which the matching algorithm of
//! the paper relies on for its throughput (§4.1.4–4.1.5).
//!
//! The interner is a process-wide singleton: entangled queries, database
//! tuples and workload generators all need to agree on symbol identity and
//! threading an interner handle through every API would add noise without
//! a correctness benefit.
//!
//! Interning a string takes a lock (a read lock on a hit, the write lock
//! to insert). Resolving a symbol ([`Symbol::as_str`]) takes none: the
//! strings live in a chunked, append-only table of write-once slots,
//! indexed by the symbol, whose chunks are allocated on demand and never
//! move. A resolve is two acquire loads; it falls back to the interner's
//! lock only when it observes a slot before the interning thread's
//! publication of it, which cannot happen when the symbol itself reached
//! the resolving thread through any synchronizing hand-off.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// An interned string.
///
/// Two `Symbol`s are equal iff the strings they were interned from are
/// equal. Construct with [`Symbol::new`] and read back with
/// [`Symbol::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

impl Symbol {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn new(s: &str) -> Self {
        global().intern(s)
    }

    /// Returns the string this symbol was interned from. Takes no lock
    /// and reads no clock.
    pub fn as_str(self) -> &'static str {
        match slot(self.0).and_then(OnceLock::get) {
            Some(s) => s,
            None => global().resolve_locked(self),
        }
    }

    /// The raw index. Stable for the lifetime of the process; useful as a
    /// dense map key.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

/// Resolves a symbol to its string; free-function form of
/// [`Symbol::as_str`].
pub fn resolve(sym: Symbol) -> &'static str {
    sym.as_str()
}

/// Slots in the first chunk of the string table; chunk `c` holds
/// `FIRST_CHUNK << c` slots, so the chunks double and together cover
/// every `u32` index.
const FIRST_CHUNK: u64 = 64;
const CHUNKS: usize = 27;

type Chunk = Box<[OnceLock<&'static str>]>;

/// The string table: `CHUNKS` lazily allocated chunks of write-once
/// slots. Slots are only ever set under the interner's write lock, in
/// index order.
static TABLE: [OnceLock<Chunk>; CHUNKS] = [const { OnceLock::new() }; CHUNKS];

/// `(chunk, offset)` of symbol index `i`.
fn locate(i: u32) -> (usize, usize) {
    let biased = u64::from(i) + FIRST_CHUNK;
    let top = 63 - biased.leading_zeros();
    let chunk = (top - FIRST_CHUNK.trailing_zeros()) as usize;
    (chunk, (biased - (1 << top)) as usize)
}

/// The slot for symbol index `i`, if its chunk is allocated.
fn slot(i: u32) -> Option<&'static OnceLock<&'static str>> {
    let (chunk, offset) = locate(i);
    TABLE[chunk].get().map(|slots| &slots[offset])
}

/// The interner behind [`Symbol`].
///
/// Strings are leaked on first interning: the set of distinct relation
/// names, user names and airport codes in any workload is small and
/// long-lived, so leaking them is the standard trade (it is what `rustc`'s
/// own interner does per session).
pub struct Interner {
    inner: RwLock<Inner>,
}

struct Inner {
    map: HashMap<&'static str, Symbol>,
    /// Symbols handed out so far; the next one gets this index.
    len: u32,
}

impl Interner {
    fn new() -> Self {
        Interner {
            inner: RwLock::new(Inner {
                map: HashMap::new(),
                len: 0,
            }),
        }
    }

    fn intern(&self, s: &str) -> Symbol {
        if let Some(&sym) = self.inner.read().map.get(s) {
            return sym;
        }
        let mut inner = self.inner.write();
        if let Some(&sym) = inner.map.get(s) {
            return sym;
        }
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        let sym = Symbol(inner.len);
        inner.len = inner.len.checked_add(1).expect("interner overflow");
        let (chunk, offset) = locate(sym.0);
        let slots = TABLE[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| OnceLock::new()).collect());
        // Publish before the symbol escapes: any thread that later
        // receives `sym` through a synchronizing hand-off sees the slot.
        let _ = slots[offset].set(leaked);
        inner.map.insert(leaked, sym);
        sym
    }

    /// The miss path of [`Symbol::as_str`]: the write lock that set the
    /// slot was released before this read lock was granted, so the slot
    /// is visible here.
    fn resolve_locked(&self, sym: Symbol) -> &'static str {
        let _published = self.inner.read();
        slot(sym.0)
            .and_then(OnceLock::get)
            .expect("symbol was interned by this process")
    }

    /// Number of distinct symbols interned so far.
    pub fn len(&self) -> usize {
        self.inner.read().len as usize
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn global() -> &'static Interner {
    static GLOBAL: OnceLock<Interner> = OnceLock::new();
    GLOBAL.get_or_init(Interner::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("Reserve");
        let b = Symbol::new("Reserve");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "Reserve");
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let a = Symbol::new("Flights");
        let b = Symbol::new("Airlines");
        assert_ne!(a, b);
        assert_eq!(a.as_str(), "Flights");
        assert_eq!(b.as_str(), "Airlines");
    }

    #[test]
    fn empty_string_is_internable() {
        let e = Symbol::new("");
        assert_eq!(e.as_str(), "");
        assert_eq!(e, Symbol::new(""));
    }

    #[test]
    fn display_matches_source() {
        let s = Symbol::new("ITH");
        assert_eq!(s.to_string(), "ITH");
        assert_eq!(format!("{s:?}"), "Symbol(\"ITH\")");
    }

    #[test]
    fn from_str_impl() {
        let s: Symbol = "JFK".into();
        assert_eq!(s.as_str(), "JFK");
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::new("concurrent-key")))
            .collect();
        let syms: Vec<Symbol> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(syms.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn locate_covers_chunk_boundaries() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        let (chunk, offset) = locate(u32::MAX);
        assert_eq!(chunk, CHUNKS - 1);
        assert!((offset as u64) < FIRST_CHUNK << chunk);
    }

    #[test]
    fn locked_resolve_agrees_with_lock_free_resolve() {
        let s = Symbol::new("locked-path");
        assert_eq!(global().resolve_locked(s), "locked-path");
        assert_eq!(s.as_str(), "locked-path");
    }

    /// Writers intern overlapping and disjoint strings — thousands of
    /// fresh symbols, so new chunks are allocated mid-test — while
    /// readers, which made their first lookup before any of those
    /// symbols existed, resolve what the writers hand them and intern
    /// the shared strings themselves.
    #[test]
    fn concurrent_interning_and_resolving_agree() {
        use std::sync::mpsc::sync_channel;
        use std::sync::Barrier;

        const WRITERS: usize = 4;
        const READERS: usize = 2;
        const PER_WRITER: usize = 2000;
        let shared = |i: usize| format!("cir-shared-{i}");
        let start = Barrier::new(WRITERS + READERS);
        let (tx, rx) = sync_channel::<(Symbol, String)>(64);
        let rx = std::sync::Mutex::new(rx);
        let shared_syms: Vec<Vec<Symbol>> = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (tx, start) = (tx.clone(), &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut mine = Vec::new();
                        for i in 0..PER_WRITER {
                            let own = format!("cir-w{w}-{i}");
                            let sym = Symbol::new(&own);
                            assert_eq!(sym.as_str(), own);
                            tx.send((sym, own)).expect("readers outlive writers");
                            let s = shared((i * (w + 1)) % PER_WRITER);
                            let sym = Symbol::new(&s);
                            assert_eq!(sym.as_str(), s);
                            mine.push(sym);
                        }
                        mine
                    })
                })
                .collect();
            drop(tx);
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let (rx, start) = (&rx, &start);
                    scope.spawn(move || {
                        assert_eq!(Symbol::new("Reserve").as_str(), "Reserve");
                        start.wait();
                        let mut seen = 0usize;
                        loop {
                            let next = rx.lock().expect("no reader panicked").recv();
                            let Ok((sym, s)) = next else { break };
                            assert_eq!(sym.as_str(), s);
                            assert_eq!(Symbol::new(&s), sym);
                            let s = shared((seen * (r + 3)) % PER_WRITER);
                            assert_eq!(Symbol::new(&s).as_str(), s);
                            seen += 1;
                        }
                    })
                })
                .collect();
            for reader in readers {
                reader.join().expect("reader thread");
            }
            writers
                .into_iter()
                .map(|w| w.join().expect("writer thread"))
                .collect()
        });
        // Identity agrees across threads: every writer's symbol for a
        // shared string is the one this thread resolves it to.
        for (w, syms) in shared_syms.iter().enumerate() {
            for (i, &sym) in syms.iter().enumerate() {
                let s = shared((i * (w + 1)) % PER_WRITER);
                assert_eq!(sym, Symbol::new(&s));
                assert_eq!(sym.as_str(), s);
            }
        }
    }

    #[test]
    fn resolve_free_function() {
        let s = Symbol::new("free-fn");
        assert_eq!(resolve(s), "free-fn");
    }
}
