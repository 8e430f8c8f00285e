//! Live heap bytes of this process, counted by a wrapper around the
//! system allocator. Unlike the resident set, the live heap does not
//! depend on how the allocator's arenas happen to fragment between
//! threads, so its peak repeats from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live and peak bytes. The counters are
/// statistics that publish no other data, hence `Relaxed`.
pub struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Bytes a thread accumulates before publishing them: a shared counter
/// updated on every allocation would itself slow the threads that
/// allocate concurrently. Peaks read low by at most this much per
/// thread.
const BATCH: isize = 64 << 10;

/// A thread's unpublished bytes, published when the thread exits.
struct Pending(Cell<isize>);

impl Drop for Pending {
    fn drop(&mut self) {
        publish(self.0.replace(0));
    }
}

thread_local! {
    static PENDING: Pending = const { Pending(Cell::new(0)) };
}

fn publish(delta: isize) {
    if delta == 0 {
        return;
    }
    let now = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

fn note(delta: isize) {
    let due = PENDING.try_with(|p| {
        let v = p.0.get() + delta;
        if v.abs() < BATCH {
            p.0.set(v);
            0
        } else {
            p.0.set(0);
            v
        }
    });
    match due {
        Ok(0) => {}
        Ok(v) => publish(v),
        // The thread's local storage is gone (thread exit): publish
        // directly.
        Err(_) => publish(delta),
    }
}

fn grew(by: usize) {
    note(isize::try_from(by).unwrap_or(isize::MAX));
}

fn shrank(by: usize) {
    note(-isize::try_from(by).unwrap_or(isize::MAX));
}

// SAFETY: every method forwards to `System` with the caller's layout
// and pointer unchanged, so `System`'s guarantees carry over; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

fn flush_local() {
    if let Ok(v) = PENDING.try_with(|p| p.0.replace(0)) {
        publish(v);
    }
}

/// Live heap bytes now, MiB.
pub fn live_mib() -> f64 {
    flush_local();
    LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// The peak since the last reset, MiB, restarting it from the current
/// live bytes.
pub fn take_peak_mib() -> f64 {
    flush_local();
    let peak = PEAK.swap(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    peak as f64 / (1024.0 * 1024.0)
}

/// Serializes the tests that read or reset the process-wide peaks.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_follows_live_bytes() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Other tests allocate concurrently, so only lower bounds hold.
        take_peak_mib();
        let before = live_mib();
        let big = vec![7u8; 256 << 20];
        std::hint::black_box(&big);
        drop(big);
        assert!(
            take_peak_mib() >= before + 200.0,
            "peak must see the 256 MiB buffer"
        );
        assert!(
            take_peak_mib() < before + 128.0,
            "taking the peak restarts it"
        );
    }
}
