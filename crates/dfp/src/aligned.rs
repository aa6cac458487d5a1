//! 64-byte-aligned byte storage — the one allocation primitive every
//! deployed weight buffer in the workspace sits on.
//!
//! The paper's deployment model (Fig. 2) is a host DMA-ing a packed
//! weight image into a fixed accelerator buffer: the bytes are laid out
//! once, aligned for the datapath, and never decoded or copied again.
//! [`AlignedBytes`] is the software rendition of that buffer — memory
//! allocated through an explicit [`std::alloc::Layout`] with
//! [`ALIGN`]-byte (cache-line / AVX-512-lane) alignment, plus safe typed
//! views (`&[i8]`, `&[u8]`, `&[i64]`, …) carved out at validated offsets.
//!
//! Two consumers build on it:
//!
//! * [`PackedPow2Matrix`](crate::PackedPow2Matrix) backs its nibble codes
//!   with either an owned [`AlignedBytes`] or a shared window into one
//!   (`Arc`-refcounted), so a deployment image can lend its weight bytes
//!   to the kernel with zero copies.
//! * [`I64Section`] does the same for bias vectors, which the datapath
//!   reads as little-endian `i64` accumulator constants.
//!
//! Alignment contract: the base pointer of every non-empty
//! [`AlignedBytes`] is [`ALIGN`]-byte aligned, so any interior offset that
//! is a multiple of `align_of::<T>()` yields a well-aligned `&[T]`.

use std::alloc::{alloc, dealloc, handle_alloc_error, realloc, Layout};
use std::ptr::NonNull;
use std::sync::Arc;

use crate::error::{DfpError, Result};

/// Alignment (bytes) of every [`AlignedBytes`] allocation: one x86 cache
/// line, which is also the widest vector lane (AVX-512) any planned
/// kernel loads.
pub const ALIGN: usize = 64;

mod sealed {
    pub trait Sealed {}
    impl Sealed for i8 {}
    impl Sealed for u8 {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
    impl Sealed for u32 {}
    impl Sealed for i64 {}
    impl Sealed for u64 {}
    impl Sealed for f32 {}
}

/// Plain-old-data element types that may view or populate an
/// [`AlignedBytes`] region: fixed-size numeric types with no padding,
/// no invalid bit patterns and no drop glue.
///
/// Sealed — implemented for `i8`, `u8`, `i16`, `i32`, `u32`, `i64`,
/// `u64`, `f32`.
pub trait Pod: sealed::Sealed + Copy + Send + Sync + 'static {}
impl Pod for i8 {}
impl Pod for u8 {}
impl Pod for i16 {}
impl Pod for i32 {}
impl Pod for u32 {}
impl Pod for i64 {}
impl Pod for u64 {}
impl Pod for f32 {}

/// An owned, grow-only byte buffer whose base pointer is always
/// [`ALIGN`]-byte aligned.
///
/// This is the storage cell behind deployment images, packed weight
/// matrices and (via `mfdfp-tensor`'s arena) every inference scratch
/// lane. Unlike `Vec<u8>` the alignment is part of the type's contract,
/// so a reader may reinterpret interior ranges as `&[i64]` or stream
/// rows into aligned SIMD loads without runtime checks beyond offset
/// arithmetic.
///
/// # Examples
///
/// ```
/// use mfdfp_dfp::aligned::{AlignedBytes, ALIGN};
///
/// let mut buf = AlignedBytes::new();
/// buf.extend_from_slice(&[1u8, 2, 3]);
/// buf.pad_to(8);
/// assert_eq!(buf.len(), 8);
/// assert_eq!(buf.as_ptr() as usize % ALIGN, 0);
/// let words: &[i64] = buf.view::<i64>(0, 1)?;
/// assert_eq!(words[0], i64::from_le_bytes([1, 2, 3, 0, 0, 0, 0, 0]));
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
pub struct AlignedBytes {
    ptr: NonNull<u8>,
    len: usize,
    cap: usize,
}

// SAFETY: `AlignedBytes` uniquely owns its heap allocation and exposes
// no interior mutability; moving it between threads or sharing `&self`
// is as safe as for `Vec<u8>`.
unsafe impl Send for AlignedBytes {}
unsafe impl Sync for AlignedBytes {}

impl AlignedBytes {
    /// An empty buffer; allocates nothing until bytes are appended.
    pub const fn new() -> Self {
        // A dangling-but-aligned pointer, same trick as `NonNull::dangling`
        // but for our 64-byte contract: valid for zero-length reads only.
        let ptr = unsafe { NonNull::new_unchecked(ALIGN as *mut u8) };
        AlignedBytes { ptr, len: 0, cap: 0 }
    }

    /// An empty buffer with room for `cap` bytes (rounded up to a
    /// multiple of [`ALIGN`]).
    pub fn with_capacity(cap: usize) -> Self {
        let mut b = Self::new();
        b.reserve(cap);
        b
    }

    /// Copies `bytes` into a fresh aligned buffer.
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut b = Self::with_capacity(bytes.len());
        b.extend_from_slice(bytes);
        b
    }

    /// Number of initialised bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer; [`ALIGN`]-byte aligned whenever the buffer is
    /// non-empty (and for the empty buffer it is a dangling aligned
    /// address, never to be dereferenced).
    pub fn as_ptr(&self) -> *const u8 {
        self.ptr.as_ptr()
    }

    /// Base pointer, mutably (see [`AlignedBytes::as_ptr`]).
    pub fn as_mut_ptr(&mut self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// The initialised bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `..len` is initialised (zeroed or copied on append) and
        // the allocation outlives `&self`.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// The initialised bytes, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as `as_slice`, plus `&mut self` guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }

    /// Ensures capacity for at least `total` bytes, preserving contents
    /// and alignment. Grow-only; never shrinks.
    pub fn reserve(&mut self, total: usize) {
        if total <= self.cap {
            return;
        }
        // Amortised doubling, rounded to the alignment quantum.
        let new_cap = total.max(self.cap * 2).next_multiple_of(ALIGN);
        let new_layout = Layout::from_size_align(new_cap, ALIGN).expect("valid aligned layout");
        let new_ptr = if self.cap == 0 {
            // SAFETY: `new_cap` is non-zero (total > cap = 0 and rounded up).
            unsafe { alloc(new_layout) }
        } else {
            let old_layout =
                Layout::from_size_align(self.cap, ALIGN).expect("valid aligned layout");
            // SAFETY: `ptr` was allocated with `old_layout`; `realloc`
            // preserves the layout's alignment.
            unsafe { realloc(self.ptr.as_ptr(), old_layout, new_cap) }
        };
        let Some(p) = NonNull::new(new_ptr) else { handle_alloc_error(new_layout) };
        debug_assert_eq!(p.as_ptr() as usize % ALIGN, 0);
        self.ptr = p;
        self.cap = new_cap;
    }

    /// Appends `bytes` at the end of the buffer.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.reserve(self.len + bytes.len());
        // SAFETY: capacity reserved above; source and destination are
        // distinct allocations.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                self.ptr.as_ptr().add(self.len),
                bytes.len(),
            );
        }
        self.len += bytes.len();
    }

    /// Grows the initialised region to `len` bytes, zero-filling the new
    /// tail. Grow-only: a smaller `len` is a no-op (typed arenas track
    /// their own logical length on top of this).
    pub fn grow_zeroed(&mut self, len: usize) {
        if len <= self.len {
            return;
        }
        self.reserve(len);
        // SAFETY: capacity reserved above.
        unsafe {
            std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, len - self.len);
        }
        self.len = len;
    }

    /// Appends zero bytes until `len()` is a multiple of `align`
    /// (a power of two). Image writers use this to start every section
    /// on an aligned boundary.
    pub fn pad_to(&mut self, align: usize) {
        debug_assert!(align.is_power_of_two());
        let target = self.len.next_multiple_of(align);
        if target == self.len {
            return;
        }
        self.reserve(target);
        // SAFETY: capacity reserved above.
        unsafe {
            std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, target - self.len);
        }
        self.len = target;
    }

    /// A typed view of `count` elements of `T` starting at byte
    /// `offset` — the zero-copy read path of the deployment image.
    ///
    /// # Errors
    ///
    /// [`DfpError::Misaligned`] if `offset` is not a multiple of
    /// `align_of::<T>()`; [`DfpError::LengthMismatch`] if the range runs
    /// past the initialised bytes.
    pub fn view<T: Pod>(&self, offset: usize, count: usize) -> Result<&[T]> {
        let size = std::mem::size_of::<T>();
        if !offset.is_multiple_of(std::mem::align_of::<T>()) {
            return Err(DfpError::Misaligned { offset, align: std::mem::align_of::<T>() });
        }
        let bytes = count.checked_mul(size).and_then(|b| b.checked_add(offset));
        match bytes {
            Some(end) if end <= self.len => {}
            _ => {
                return Err(DfpError::LengthMismatch {
                    expected: offset.saturating_add(count.saturating_mul(size)),
                    actual: self.len,
                })
            }
        }
        if count == 0 {
            return Ok(&[]);
        }
        // SAFETY: bounds and alignment checked above; base pointer is
        // ALIGN-aligned (>= align_of::<T>() for every Pod type) and the
        // bytes are initialised. Every Pod type accepts any bit pattern.
        Ok(unsafe { std::slice::from_raw_parts(self.ptr.as_ptr().add(offset).cast::<T>(), count) })
    }
}

impl Default for AlignedBytes {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AlignedBytes {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: `ptr` was allocated with exactly this layout.
            unsafe {
                dealloc(self.ptr.as_ptr(), Layout::from_size_align_unchecked(self.cap, ALIGN));
            }
        }
    }
}

impl Clone for AlignedBytes {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl std::fmt::Debug for AlignedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBytes").field("len", &self.len).field("cap", &self.cap).finish()
    }
}

impl PartialEq for AlignedBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for AlignedBytes {}

impl std::ops::Deref for AlignedBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<&[u8]> for AlignedBytes {
    fn from(bytes: &[u8]) -> Self {
        Self::from_slice(bytes)
    }
}

impl From<Vec<u8>> for AlignedBytes {
    fn from(bytes: Vec<u8>) -> Self {
        Self::from_slice(&bytes)
    }
}

/// A bias vector: either owned `i64` values or a zero-copy window into a
/// shared aligned buffer (a deployment image).
///
/// Both variants dereference to `&[i64]`, so the datapath is oblivious
/// to the backing. The shared variant is how `QuantizedNet::from_image`
/// (in `mfdfp-core`) lends image bytes to the accelerator layers without
/// copying them.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use mfdfp_dfp::aligned::{AlignedBytes, I64Section};
///
/// let owned: I64Section = vec![1i64, -2, 3].into();
/// let mut buf = AlignedBytes::new();
/// for v in [1i64, -2, 3] {
///     buf.extend_from_slice(&v.to_le_bytes());
/// }
/// let shared = I64Section::from_shared(Arc::new(buf), 0, 3)?;
/// assert_eq!(&owned[..], &shared[..]);
/// assert_eq!(owned, shared);
/// # Ok::<(), mfdfp_dfp::DfpError>(())
/// ```
#[derive(Debug, Clone)]
pub enum I64Section {
    /// Values held in a plain vector (the training / direct-construction
    /// path).
    Owned(Vec<i64>),
    /// A validated window into a shared aligned buffer (the deployment
    /// image path; zero bytes copied).
    Shared {
        /// The backing buffer, shared with the image and sibling layers.
        buf: Arc<AlignedBytes>,
        /// Byte offset of the first element; always a multiple of 8.
        offset: usize,
        /// Element count.
        len: usize,
    },
}

impl I64Section {
    /// A zero-copy window of `len` little-endian `i64` values at byte
    /// `offset` into `buf`.
    ///
    /// On big-endian targets the values are decoded into an owned vector
    /// instead (correct everywhere, zero-copy where the wire format
    /// matches memory).
    ///
    /// # Errors
    ///
    /// [`DfpError::Misaligned`] if `offset` is not 8-byte aligned;
    /// [`DfpError::LengthMismatch`] if the window runs past `buf`.
    pub fn from_shared(buf: Arc<AlignedBytes>, offset: usize, len: usize) -> Result<Self> {
        // Validate eagerly so `Deref` can be infallible.
        buf.view::<i64>(offset, len)?;
        #[cfg(target_endian = "little")]
        {
            Ok(I64Section::Shared { buf, offset, len })
        }
        #[cfg(not(target_endian = "little"))]
        {
            let bytes = &buf.as_slice()[offset..offset + len * 8];
            let vals = bytes
                .chunks_exact(8)
                .map(|c| i64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect();
            Ok(I64Section::Owned(vals))
        }
    }

    /// The values as a slice.
    pub fn as_slice(&self) -> &[i64] {
        match self {
            I64Section::Owned(v) => v,
            I64Section::Shared { buf, offset, len } => {
                buf.view::<i64>(*offset, *len).expect("validated at construction")
            }
        }
    }

    /// Whether this section borrows from a shared buffer (true) or owns
    /// its values (false).
    pub fn is_shared(&self) -> bool {
        matches!(self, I64Section::Shared { .. })
    }
}

impl std::ops::Deref for I64Section {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        self.as_slice()
    }
}

impl From<Vec<i64>> for I64Section {
    fn from(v: Vec<i64>) -> Self {
        I64Section::Owned(v)
    }
}

impl PartialEq for I64Section {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for I64Section {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_allocates_nothing() {
        let b = AlignedBytes::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert!(b.as_slice().is_empty());
        assert_eq!(b.as_ptr() as usize % ALIGN, 0);
    }

    #[test]
    fn base_pointer_is_always_aligned() {
        for n in [1usize, 63, 64, 65, 1000, 4096] {
            let b = AlignedBytes::from_slice(&vec![0xA5u8; n]);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0, "n={n}");
            assert_eq!(b.len(), n);
        }
    }

    #[test]
    fn growth_preserves_contents_and_alignment() {
        let mut b = AlignedBytes::new();
        let mut mirror = Vec::new();
        for i in 0..1000u32 {
            let bytes = i.to_le_bytes();
            b.extend_from_slice(&bytes);
            mirror.extend_from_slice(&bytes);
            assert_eq!(b.as_ptr() as usize % ALIGN, 0);
        }
        assert_eq!(b.as_slice(), mirror.as_slice());
    }

    #[test]
    fn pad_to_zero_fills() {
        let mut b = AlignedBytes::from_slice(&[0xFFu8; 5]);
        b.pad_to(64);
        assert_eq!(b.len(), 64);
        assert!(b.as_slice()[5..].iter().all(|&x| x == 0));
        b.pad_to(64); // already aligned: no-op
        assert_eq!(b.len(), 64);
    }

    #[test]
    fn typed_views_round_trip() {
        let vals: Vec<i64> = (0..9).map(|i| i * 1_000_000_007 - 4).collect();
        let mut b = AlignedBytes::new();
        for v in &vals {
            b.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(b.view::<i64>(0, vals.len()).unwrap(), vals.as_slice());
        assert_eq!(b.view::<i64>(8, 2).unwrap(), &vals[1..3]);
        assert_eq!(b.view::<u8>(0, b.len()).unwrap(), b.as_slice());
        let i8s = b.view::<i8>(0, b.len()).unwrap();
        assert_eq!(i8s.len(), b.len());
    }

    #[test]
    fn view_rejects_misalignment_and_overrun() {
        let b = AlignedBytes::from_slice(&[0u8; 32]);
        assert!(matches!(b.view::<i64>(4, 1), Err(DfpError::Misaligned { offset: 4, align: 8 })));
        assert!(matches!(b.view::<i64>(0, 5), Err(DfpError::LengthMismatch { .. })));
        assert!(matches!(b.view::<i64>(32, 1), Err(DfpError::LengthMismatch { .. })));
        // Zero-length views at the end are fine.
        assert_eq!(b.view::<i64>(32, 0).unwrap(), &[] as &[i64]);
        // Overflowing arithmetic must error, not wrap.
        assert!(b.view::<i64>(8, usize::MAX / 4).is_err());
    }

    #[test]
    fn clone_eq_debug() {
        let a = AlignedBytes::from_slice(b"hello world");
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, AlignedBytes::from_slice(b"hello worlb"));
        assert!(format!("{a:?}").contains("len"));
    }

    #[test]
    fn i64_section_owned_and_shared_agree() {
        let vals = vec![i64::MIN, -1, 0, 1, i64::MAX];
        let owned = I64Section::from(vals.clone());
        assert!(!owned.is_shared());
        let mut buf = AlignedBytes::new();
        for v in &vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let shared = I64Section::from_shared(Arc::new(buf), 0, vals.len()).unwrap();
        assert_eq!(&owned[..], vals.as_slice());
        assert_eq!(&shared[..], vals.as_slice());
        assert_eq!(owned, shared);
    }

    #[test]
    fn i64_section_rejects_bad_windows() {
        let buf = Arc::new(AlignedBytes::from_slice(&[0u8; 24]));
        assert!(I64Section::from_shared(Arc::clone(&buf), 4, 1).is_err());
        assert!(I64Section::from_shared(Arc::clone(&buf), 0, 4).is_err());
        assert!(I64Section::from_shared(Arc::clone(&buf), 24, 1).is_err());
        assert!(I64Section::from_shared(buf, 24, 0).is_ok());
    }

    #[test]
    fn aligned_bytes_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedBytes>();
        assert_send_sync::<I64Section>();
    }
}
