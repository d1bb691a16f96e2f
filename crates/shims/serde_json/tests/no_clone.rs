//! Printing or parsing a `Value` copies nothing it does not have to.
//!
//! Shown by counting allocations, not by reading the code: a deep clone of
//! a document allocates once per string, array and object in it, so an
//! entry point that clones before it prints (or after it parses) shows up
//! as that many allocations on top of what the work itself needs. The
//! counter is per thread; the harness's other threads do not disturb it.

use serde_json::{json, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// const-initialised thread-local `Cell` with no destructor, so touching it
// from inside the allocator neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocations<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// A collection the size `tree_churn` keeps: 2 000 member links.
fn collection() -> Value {
    let members: Vec<Value> = (0..2000)
        .map(|i| json!({"@odata.id": format!("/redfish/v1/Chassis/churn-{i:05}")}))
        .collect();
    json!({"@odata.id": "/redfish/v1/Chassis", "Name": "Chassis", "Members": members, "Members@odata.count": 2000})
}

#[test]
fn printing_a_value_allocates_only_its_output() {
    let doc = collection();
    let (_, cloning) = allocations(|| doc.clone());
    assert!(cloning > 4000, "a clone allocates per node: {cloning}");

    // The output buffer doubles a dozen-odd times to reach ~95 KB.
    let (text, n) = allocations(|| serde_json::to_string(&doc).unwrap());
    assert!(text.len() > 90_000);
    assert!(n < 32, "to_string made {n} allocations");
    let (_, n) = allocations(|| serde_json::to_vec(&doc).unwrap());
    assert!(n < 32, "to_vec made {n} allocations");
    let (_, n) = allocations(|| doc.to_string());
    assert!(n < 32, "Display made {n} allocations");
    let mut sink = Vec::with_capacity(text.len());
    let (_, n) = allocations(|| serde_json::to_writer(&mut sink, &doc).unwrap());
    assert_eq!(n, 0, "to_writer into a sized buffer allocates nothing");
    assert_eq!(sink, text.as_bytes());
}

#[test]
fn parsing_a_value_builds_it_once() {
    let text = serde_json::to_string(&collection()).unwrap();
    let (doc, parsing) = allocations(|| serde_json::from_str::<Value>(&text).unwrap());
    let (_, cloning) = allocations(|| doc.clone());
    // Building the tree costs what cloning it costs, plus the doubling of
    // the vectors it grows; a parse that also cloned would pay it twice.
    assert!(
        parsing < cloning + cloning / 2,
        "from_str made {parsing} allocations, a clone of its result {cloning}"
    );
    let (_, n) = allocations(|| serde_json::from_slice::<Value>(text.as_bytes()).unwrap());
    assert_eq!(n, parsing, "from_slice is from_str behind a UTF-8 check");
    let (back, n) = allocations(|| serde_json::from_value::<Value>(doc).unwrap());
    assert_eq!(n, 0, "from_value::<Value> is the identity");
    assert_eq!(serde_json::to_string(&back).unwrap(), text);
}
