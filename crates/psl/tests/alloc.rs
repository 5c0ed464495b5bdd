//! The suffix walk allocates nothing per lookup, and
//! `registrable_domain` allocates only the `String` it returns —
//! counted by a global allocator that tallies this thread's
//! allocations.

use hoiho_psl::PublicSuffixList;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const HOSTS: &[&str] = &[
    "p714.sgw.equinix.com",
    "as1.net.example.com",
    "r1.foo.co.nz",
    "a..b.com",
    "x.y.z.unknown-tld",
    "co.nz",
    "",
];

#[test]
fn walk_allocates_nothing_and_registrable_domain_only_its_string() {
    let psl = PublicSuffixList::builtin();
    let index = psl.index([("equinix.com", 0), ("net.example.com", 1), ("b.com", 2)]);
    for h in HOSTS {
        assert_eq!(allocations(|| _ = black_box(index.walk(h))), 0, "walk {h}");
        assert_eq!(allocations(|| _ = black_box(psl.registrable_str(h))), 0, "{h}");
        let owned = psl.registrable_domain(h).is_some();
        let n = allocations(|| drop(black_box(psl.registrable_domain(h))));
        assert_eq!(n, usize::from(owned), "registrable_domain {h}");
    }
}
