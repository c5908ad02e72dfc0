//! Exact allocation budgets for the authoritative hot path, counted by
//! a global allocator. Counts are per thread, so the test harness's
//! other threads cannot perturb them, and taken after a warm-up call so
//! one-time initialisation (the shared root buffer, telemetry kind
//! tables) is excluded. DESIGN.md "Performance invariants" records the
//! same numbers; a change that moves one must update both.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::net::IpAddr;

use dns_server::ServerEngine;
use dns_wire::{Message, Name, RData, Record, RecordType, Soa};
use dns_zone::{Catalog, Zone};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made by the current thread and
/// forwards everything to [`System`].
struct Counting;

// A global allocator is an `unsafe` trait by definition; this one only
// forwards the caller's arguments to `System`.
#[allow(unsafe_code)]
// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a const-initialised thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one call of `f`, after one warm-up call.
fn allocs_of<T>(mut f: impl FnMut() -> T) -> u64 {
    black_box(f());
    let before = ALLOCS.with(Cell::get);
    black_box(f());
    ALLOCS.with(Cell::get) - before
}

/// The root zone the end-to-end B-Root replay serves: SOA plus three
/// TLD delegations, so every query is a referral or an NXDOMAIN.
fn root_engine() -> Result<ServerEngine, Box<dyn std::error::Error>> {
    let mut z = Zone::new(Name::root());
    let soa = Soa {
        mname: "a.root-servers.net".parse()?,
        rname: "nstld.verisign-grs.com".parse()?,
        serial: 20180101,
        refresh: 1800,
        retry: 900,
        expire: 604_800,
        minimum: 86400,
    };
    z.insert(Record::new(Name::root(), 86400, RData::Soa(soa)))?;
    for (tld, ns) in [
        ("com", "a.gtld-servers.net"),
        ("net", "a.gtld-servers.net"),
        ("org", "a0.org.afilias-nst.info"),
    ] {
        z.insert(Record::new(tld.parse()?, 172_800, RData::Ns(ns.parse()?)))?;
    }
    let mut cat = Catalog::new();
    cat.insert(z);
    Ok(ServerEngine::with_catalog(cat).with_templates())
}

#[test]
fn name_clone_and_parent_do_not_allocate() {
    let n: Name = "www.example.com".parse().unwrap();
    assert_eq!(allocs_of(|| n.clone()), 0);
    assert_eq!(allocs_of(|| n.parent()), 0);
    assert_eq!(allocs_of(|| n.parent().and_then(|p| p.parent())), 0);
    assert_eq!(allocs_of(Name::root), 0);
}

#[test]
fn decoding_a_three_label_query_allocates_twice() {
    // One for the question vector, one for the name's buffer.
    let wire = Message::query(7, "www.example.com".parse().unwrap(), RecordType::A).encode();
    assert_eq!(allocs_of(|| Message::decode(&wire).unwrap()), 2);
}

#[test]
fn general_path_nxdomain_and_referral_budgets() {
    let engine = root_engine().unwrap();
    let name = |s: &str| -> Name { s.parse().unwrap() };
    let src: IpAddr = "10.0.0.1".parse().unwrap();
    let nx = Message::query(1, name("xq7rz.local"), RecordType::A).encode();
    let referral = Message::query(2, name("www.example.com"), RecordType::A).encode();
    let mut nx_do = Message::query(3, name("xq7rz.local"), RecordType::AAAA);
    nx_do.set_dnssec_ok(true);
    let nx_do = nx_do.encode();
    for q in [&nx, &referral, &nx_do] {
        assert!(engine.handle_udp_bytes(src, q).is_some());
    }
    let nx_allocs = allocs_of(|| engine.handle_udp_bytes(src, &nx));
    let referral_allocs = allocs_of(|| engine.handle_udp_bytes(src, &referral));
    let nx_do_allocs = allocs_of(|| engine.handle_udp_bytes(src, &nx_do));
    assert_eq!(
        (nx_allocs, referral_allocs, nx_do_allocs),
        (9, 7, 10),
        "(NXDOMAIN, referral, NXDOMAIN with DO)"
    );
}
