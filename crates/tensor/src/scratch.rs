//! Reusable `f32` scratch buffers for the hot kernels.
//!
//! The conv/GEMM path needs several large temporaries per call (im2col
//! matrices, packed GEMM panels, per-image gradient accumulators). Allocating
//! them with `vec![0.0; len]` on every call costs a page-zeroing memset and
//! an allocator round-trip per temporary per image — measurable at training
//! step rate. This module keeps returned buffers in a global pool so that a
//! steady-state training loop performs **no heap allocation** in the kernel
//! hot path after warm-up.
//!
//! Usage: [`take`] hands out a [`ScratchBuf`] of the requested length with
//! **unspecified contents** (callers must fully overwrite it); dropping the
//! guard returns the backing storage to the pool. The pool is global rather
//! than thread-local so buffers survive across rayon worker generations and
//! across layers sharing shapes.
//!
//! A pooled `Vec` keeps its full length for life: its storage is zeroed
//! once, when it is allocated or grown, and a [`ScratchBuf`] carries the
//! length its taker asked for. So a take never writes the buffer it hands
//! out, however the lengths of successive takes of one buffer vary.
//!
//! [`alloc_events`] counts how many `take` calls had to touch the allocator
//! (pool miss or capacity growth); tests assert it stays flat in steady
//! state.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

static POOL: Mutex<Vec<Vec<f32>>> = Mutex::new(Vec::new());
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

/// Buffers kept in the pool; beyond this the pool itself would become a
/// leak. Takes of any size are still served, the excess is just freed on
/// drop.
const MAX_POOLED: usize = 64;

/// A pooled scratch buffer. Dereferences to `[f32]` of exactly the length
/// passed to [`take`]; contents on acquisition are unspecified.
pub struct ScratchBuf {
    buf: Vec<f32>,
    len: usize,
}

impl std::ops::Deref for ScratchBuf {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for ScratchBuf {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[..self.len]
    }
}

impl Drop for ScratchBuf {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let mut pool = POOL.lock();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// Acquire a scratch buffer of length `len` with unspecified contents.
///
/// Reuses pooled storage when a buffer with sufficient capacity is
/// available; otherwise allocates (counted by [`alloc_events`]). Safe to
/// call concurrently from rayon workers — each call returns a distinct
/// buffer.
pub fn take(len: usize) -> ScratchBuf {
    ScratchBuf {
        buf: take_from(&POOL, len, 0.0),
        len,
    }
}

/// A buffer of at least `len` elements out of `pool`: the smallest pooled
/// one that fits, so one oversized buffer does not get claimed by tiny
/// requests, else one grown to `len` — the only time its storage is
/// written (counted by [`alloc_events`]).
fn take_from<T: Copy>(pool: &Mutex<Vec<Vec<T>>>, len: usize, zero: T) -> Vec<T> {
    dlsr_trace::counter_add(dlsr_trace::report::keys::SCRATCH_TAKES, 1.0);
    let candidate = {
        let mut pool = pool.lock();
        let best = pool
            .iter()
            .enumerate()
            .filter(|(_, b)| b.len() >= len)
            .min_by_key(|(_, b)| b.len())
            .map(|(i, _)| i);
        match best {
            Some(i) => Some(pool.swap_remove(i)),
            None => pool.pop(),
        }
    };
    let mut buf = candidate.unwrap_or_default();
    if buf.len() < len {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        dlsr_trace::counter_add(dlsr_trace::report::keys::SCRATCH_ALLOCS, 1.0);
        buf.reserve_exact(len - buf.len());
        buf.resize(len, zero);
    }
    buf
}

/// Like [`take`], but the buffer is zero-filled.
pub fn take_zeroed(len: usize) -> ScratchBuf {
    let mut b = take(len);
    b.fill(0.0);
    b
}

/// Total number of `take` calls that had to allocate or grow storage since
/// process start. Flat across calls ⇒ the kernels hit the pool every time.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// `u16` twin of the f32 pool, backing bf16 packed panels. Kept separate so
/// the two element types never trade storage (a cast-based scheme would need
/// `unsafe`).
static POOL_U16: Mutex<Vec<Vec<u16>>> = Mutex::new(Vec::new());

/// A pooled `u16` scratch buffer; see [`ScratchBuf`].
pub struct ScratchBufU16 {
    buf: Vec<u16>,
    len: usize,
}

impl std::ops::Deref for ScratchBufU16 {
    type Target = [u16];

    fn deref(&self) -> &[u16] {
        &self.buf[..self.len]
    }
}

impl std::ops::DerefMut for ScratchBufU16 {
    fn deref_mut(&mut self) -> &mut [u16] {
        &mut self.buf[..self.len]
    }
}

impl Drop for ScratchBufU16 {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let mut pool = POOL_U16.lock();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// Acquire a `u16` scratch buffer of length `len` with unspecified contents
/// (bf16 packed-panel storage). Same pooling discipline as [`take`].
pub fn take_u16(len: usize) -> ScratchBufU16 {
    ScratchBufU16 {
        buf: take_from(&POOL_U16, len, 0),
        len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_have_requested_length() {
        let b = take(1000);
        assert_eq!(b.len(), 1000);
        let z = take_zeroed(64);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn concurrent_takes_are_distinct() {
        let mut a = take(100);
        let mut b = take(100);
        a[0] = 1.0;
        b[0] = 2.0;
        assert_eq!(a[0], 1.0);
    }

    /// A take writes nothing into the storage it hands out: what one taker
    /// left survives a shorter take of the same buffer and a longer one
    /// after it (other tests share the pool, so only rounds that got the
    /// same storage back are checked; one of them must).
    #[test]
    fn retakes_keep_what_the_last_taker_left() {
        const LEN: usize = 3 << 20;
        let mut checked = 0;
        for _ in 0..50 {
            let mut b = take(LEN);
            let at = b.as_ptr();
            (b[7], b[LEN - 1]) = (7.0, 42.0);
            drop(b);
            let short = take(LEN / 2);
            if short.as_ptr() != at {
                continue;
            }
            assert_eq!(short[7], 7.0, "the shorter take rewrote the buffer");
            drop(short);
            let long = take(LEN);
            if long.as_ptr() != at {
                continue;
            }
            assert_eq!(long[LEN - 1], 42.0, "the longer re-take zeroed the tail");
            checked += 1;
        }
        assert!(checked > 0, "the pool never handed the same buffer back");
    }

    // Steady-state reuse is asserted in `tests/scratch_pool.rs`, which runs
    // in its own process so concurrent in-binary tests cannot race the
    // global counter.
}
