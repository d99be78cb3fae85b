//! Pins what a booted simulated prover costs on the heap. A fleet runs
//! thousands of fig4 devices side by side, so each must cost the memory
//! its program touches (a few 512-byte memory pages and 64-byte cache
//! chunks), not the 64 KiB address space, and attesting must not grow it.
//!
//! A counting global allocator tracks the live heap, the live
//! allocations and the allocations made of each thread, so the two
//! tests here do not see each other's.

use asap::device::{Device, PoxMode};
use asap::{programs, AsapVerifier, VerifierSpec};
use msp430_tools::link::Image;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting the calling thread's live
/// heap bytes, live allocations and allocations made.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static LIVE_ALLOCS: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    LIVE.with(|live| live.set(live.get() + delta));
}

/// Counts one allocation made (`delta` 1) or freed (`delta` -1).
fn count_alloc(delta: isize) {
    LIVE_ALLOCS.with(|n| n.set(n.get() + delta));
    if delta > 0 {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

fn live_allocs() -> isize {
    LIVE_ALLOCS.with(Cell::get)
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
            count_alloc(1);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
            count_alloc(1);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
        count_alloc(-1);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const DEVICES: usize = 64;

/// Live heap allowed per booted fig4 device, the `Device` value itself
/// included: about 8.2 KiB measured. A flat 64 KiB memory alone would be
/// seven times this.
const MAX_BYTES_PER_DEVICE: isize = 9 * 1024;

/// Live allocations allowed per booted fig4 device, the count measured.
/// Each memory page is one allocation, eleven superblocks hold two each
/// (the `Arc` and the step slice), and the cache tables' pages sit inline
/// in their index's one slice; a new per-device table, a boxed table page
/// or a per-block vector raises the count.
const MAX_ALLOCS_PER_DEVICE: isize = 48;

const KEY: &[u8] = b"footprint-key";

/// Allocations one `attest_bytes` call may make: the response's output
/// and IVT copies and its encoding. The measured regions themselves are
/// borrowed from memory, as fig4's each lie in one page.
const MAX_ALLOCS_PER_ATTEST: usize = 3;

const ATTESTS: usize = 1_000;

/// Boots a fig4 ASAP device to its done loop, as a fleet prover does:
/// build, run to the button wait, press the button, run to `done`.
fn boot_fig4(image: &Image) -> Device {
    let mut device = Device::builder(image)
        .mode(PoxMode::Asap)
        .key(KEY)
        .build()
        .expect("fig4 device builds");
    device.run_steps(6);
    device.set_button(0, true);
    assert!(device.run_until_pc(programs::done_pc(), 10_000));
    device
}

#[test]
fn a_booted_device_costs_what_it_touches() {
    let image = programs::fig4_authorized().expect("fig4 image links");
    let mut devices = Vec::new();
    let before = live();
    devices.reserve_exact(DEVICES);
    let allocs_before = live_allocs();
    devices.extend((0..DEVICES).map(|_| boot_fig4(&image)));
    let per_device = (live() - before) / DEVICES as isize;
    assert!(
        per_device <= MAX_BYTES_PER_DEVICE,
        "a booted fig4 device holds {per_device} B of heap (at most {MAX_BYTES_PER_DEVICE})"
    );
    let allocs = (live_allocs() - allocs_before) as f64 / DEVICES as f64;
    assert!(
        allocs <= MAX_ALLOCS_PER_DEVICE as f64,
        "a booted fig4 device holds {allocs} live allocations (at most {MAX_ALLOCS_PER_DEVICE})"
    );
}

#[test]
fn attesting_leaves_the_heap_flat() {
    let image = programs::fig4_authorized().expect("fig4 image links");
    let mut devices: Vec<Device> = (0..DEVICES).map(|_| boot_fig4(&image)).collect();
    let spec = VerifierSpec::from_image(&image)
        .expect("fig4 spec derives")
        .mode(PoxMode::Asap);
    let mut verifier = AsapVerifier::new(KEY, spec);
    let session = verifier.begin();
    let request = session.request_bytes();
    // Warm every device once: the first attestation may size scratch
    // buffers. Every device runs the same program under the same key,
    // so all answer alike, and the answer verifies.
    let responses: Vec<Vec<u8>> = devices
        .iter_mut()
        .map(|device| device.attest_bytes(&request).expect("request parses"))
        .collect();
    assert!(responses.iter().all(|r| *r == responses[0]));
    assert!(session
        .evidence_bytes(&responses[0])
        .unwrap()
        .conclude(&verifier)
        .is_verified());
    drop(responses);

    let (before, allocs_before) = (live(), allocs());
    for i in 0..ATTESTS {
        let response = devices[i % DEVICES].attest_bytes(&request).unwrap();
        assert!(!response.is_empty());
    }
    assert_eq!(live(), before, "attest_bytes must leave the live heap flat");
    let per_call = (allocs() - allocs_before) as f64 / ATTESTS as f64;
    assert!(
        per_call <= MAX_ALLOCS_PER_ATTEST as f64,
        "attest_bytes made {per_call} allocations per call (at most {MAX_ALLOCS_PER_ATTEST})"
    );
}
