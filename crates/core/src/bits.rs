//! Branch bitstrings for path-based multicast, backed by a network-owned slab.
//!
//! The Quarc multicast header carries one bit per downstream hop: bit `i`
//! says "the node reached after `i + 1` hops absorbs a copy".  Early
//! revisions stored that word inline in [`crate::flit::PacketMeta`] as a
//! `u128`, which capped explicit-target multicast at 128 hops and therefore
//! the whole simulator at n = 4096.  This module lifts the representation
//! into a [`BitSlab`]: packets carry a compact [`Bits`] handle and routers
//! shift/test/clone against slab rows of `[u64; W]` words sized to the
//! network's longest branch.
//!
//! # Representation
//!
//! [`Bits`] is a single `u64` with a tag in bit 63:
//!
//! * **Inline** (tag 0): the bitstring value itself lives in bits `[62:0]`.
//!   Every branch whose furthest delivery is within 63 hops — which includes
//!   *all* branches on networks up to n = 64 plus short branches on larger
//!   ones — never touches the slab, so the paper-scale configurations pay
//!   zero indirection.
//! * **Slab handle** (tag 1): bits `[32:1]` hold the row index, bits
//!   `[62:33]` a 30-bit generation, and bit 0 a *cached copy of the row's
//!   current bit 0*.  The cache is refreshed by every mutation
//!   ([`BitSlab::shift`], [`BitSlab::set_bit`]), so the hot per-hop question
//!   "does the current node absorb?" ([`Bits::bit0`]) is answered without
//!   touching slab memory at all — better than the one-cache-line budget.
//!
//! # Lifecycle
//!
//! Rows are allocated by [`BitSlab::set_bit`] (on inline overflow) or
//! [`BitSlab::clone_bits`], and freed by [`BitSlab::release`].  The sim's
//! `PacketTable` owns one slab per network and releases a packet's row when
//! the packet itself is released, so rows recycle with the existing packet
//! lifecycle and the steady-state hot path performs no allocation.  The
//! generation field is bumped on each free; a stale handle (released row
//! reused by another packet) is caught by debug assertions.
//!
//! Logical right-shift is O(1): each row keeps a cursor and a shift merely
//! advances it.  Bits below the cursor are dead; [`BitSlab::popcount`] and
//! [`BitSlab::bit_at`] mask them off.

/// Compact bitstring: inline value or slab handle. See module docs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Bits(u64);

const TAG_BIT: u64 = 1 << 63;
/// Number of value bits an inline `Bits` can hold.
const INLINE_BITS: usize = 63;
const INLINE_MASK: u64 = (1 << INLINE_BITS) - 1;
const ROW_SHIFT: u32 = 1;
const ROW_BITS: u32 = 32;
const ROW_MASK: u64 = (1 << ROW_BITS) - 1;
const GEN_SHIFT: u32 = ROW_SHIFT + ROW_BITS; // 33
const GEN_BITS: u32 = 30;
const GEN_MASK: u32 = (1 << GEN_BITS) - 1;

impl Bits {
    /// The empty bitstring (inline zero). Unicast/broadcast packets carry
    /// this: Quarc broadcast headers are consumed by hop *count*, not bits.
    pub const ZERO: Bits = Bits(0);

    /// An inline bitstring. `v` must fit in 63 bits.
    #[inline]
    pub fn inline(v: u64) -> Bits {
        debug_assert!(v <= INLINE_MASK, "inline bitstring overflows 63 bits");
        Bits(v & INLINE_MASK)
    }

    #[inline]
    fn handle(row: u32, generation: u32, bit0: bool) -> Bits {
        Bits(
            TAG_BIT
                | (u64::from(generation & GEN_MASK) << GEN_SHIFT)
                | (u64::from(row) << ROW_SHIFT)
                | u64::from(bit0),
        )
    }

    /// Does this value live inline (no slab row)?
    #[inline]
    pub fn is_inline(self) -> bool {
        self.0 & TAG_BIT == 0
    }

    /// Inline value. Must only be called on inline bitstrings; the
    /// Spidergon chain counter and the RTL wire format rely on this.
    #[inline]
    pub fn inline_value(self) -> u64 {
        debug_assert!(self.is_inline(), "inline_value on a slab handle");
        self.0 & INLINE_MASK
    }

    /// Current bit 0: "does the node one hop ahead absorb a copy?".
    ///
    /// Free for both representations — slab handles cache the row's bit 0
    /// in the handle word itself (refreshed on every mutation).
    #[inline]
    pub fn bit0(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn row(self) -> usize {
        debug_assert!(!self.is_inline());
        ((self.0 >> ROW_SHIFT) & ROW_MASK) as usize
    }

    #[inline]
    fn generation(self) -> u32 {
        ((self.0 >> GEN_SHIFT) as u32) & GEN_MASK
    }
}

impl Default for Bits {
    fn default() -> Self {
        Bits::ZERO
    }
}

impl core::fmt::Debug for Bits {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_inline() {
            write!(f, "Bits::inline({:#b})", self.inline_value())
        } else {
            write!(
                f,
                "Bits::handle(row={}, gen={}, bit0={})",
                self.row(),
                self.generation(),
                self.bit0()
            )
        }
    }
}

/// Fixed-stride slab of bitstring rows. One per network (owned by the
/// sim's `PacketTable`); rows recycle through a free list.
#[derive(Clone, Debug)]
pub struct BitSlab {
    /// Words per row: `ceil(capacity_bits / 64)`.
    stride: usize,
    /// Longest branch this network can plan, in bits.
    capacity_bits: usize,
    /// Row storage, `stride` words per row.
    data: Vec<u64>,
    /// Per-row logical shift offset (bits below it are dead).
    cursor: Vec<u32>,
    /// Per-row generation, bumped on free; mirrored into handles.
    generation: Vec<u32>,
    free: Vec<u32>,
}

impl BitSlab {
    /// A slab able to hold bitstrings of up to `max_bits` bits.
    ///
    /// `max_bits <= INLINE_BITS` (including 0) yields a zero-stride slab:
    /// every bitstring stays inline and the slab never allocates.
    pub fn new(max_bits: usize) -> BitSlab {
        let stride = if max_bits <= INLINE_BITS { 0 } else { max_bits.div_ceil(64) };
        BitSlab {
            stride,
            capacity_bits: max_bits,
            data: Vec::new(),
            cursor: Vec::new(),
            generation: Vec::new(),
            free: Vec::new(),
        }
    }

    /// A slab for networks that never plan multi-hop bitstrings
    /// (Spidergon, unicast-only RTL harnesses).
    pub fn inline_only() -> BitSlab {
        BitSlab::new(0)
    }

    /// Longest bitstring this slab was sized for.
    #[inline]
    pub fn capacity_bits(&self) -> usize {
        self.capacity_bits
    }

    /// Rows currently checked out (0 in an idle network).
    #[inline]
    pub fn live_rows(&self) -> usize {
        self.cursor.len() - self.free.len()
    }

    fn alloc_row(&mut self) -> u32 {
        if let Some(row) = self.free.pop() {
            let base = row as usize * self.stride;
            self.data[base..base + self.stride].fill(0);
            self.cursor[row as usize] = 0;
            return row;
        }
        let row = self.cursor.len() as u32;
        assert!(u64::from(row) <= ROW_MASK, "bitstring slab row index overflow");
        self.data.extend(std::iter::repeat_n(0u64, self.stride));
        self.cursor.push(0);
        self.generation.push(0);
        row
    }

    #[inline]
    fn check(&self, b: Bits) -> usize {
        let row = b.row();
        debug_assert!(
            self.generation[row] & GEN_MASK == b.generation(),
            "stale bitstring handle: row {row} was released and reused"
        );
        row
    }

    /// Set logical bit `i` (relative to the current cursor), upgrading an
    /// inline value to a slab row when `i` no longer fits inline.
    ///
    /// Planners call this with cursor 0; the upgrade path is the *only*
    /// place a packet acquires a row outside of [`BitSlab::clone_bits`].
    pub fn set_bit(&mut self, b: &mut Bits, i: usize) {
        if b.is_inline() {
            if i < INLINE_BITS {
                *b = Bits(b.0 | (1 << i));
                return;
            }
            assert!(
                i < self.capacity_bits,
                "bit {i} exceeds slab capacity {} — network mis-sized its PacketTable",
                self.capacity_bits
            );
            let inline = b.inline_value();
            let row = self.alloc_row();
            self.data[row as usize * self.stride] = inline;
            *b = Bits::handle(row, self.generation[row as usize], inline & 1 == 1);
        }
        let row = self.check(*b);
        let pos = self.cursor[row] as usize + i;
        assert!(pos < self.stride * 64, "bit {i} exceeds slab row width");
        self.data[row * self.stride + pos / 64] |= 1 << (pos % 64);
        if i == 0 {
            *b = Bits(b.0 | 1);
        }
    }

    /// Clear logical bit `i` (relative to the current cursor). A no-op on
    /// bits that are already clear or past the row width.
    ///
    /// The recovery layer's outstanding-receiver sets shrink bit by bit as
    /// ACKs arrive; rows never downgrade back to inline (the handle stays
    /// valid until [`BitSlab::release`]).
    pub fn clear_bit(&mut self, b: &mut Bits, i: usize) {
        if b.is_inline() {
            if i < INLINE_BITS {
                *b = Bits(b.0 & !(1 << i));
            }
            return;
        }
        let row = self.check(*b);
        let pos = self.cursor[row] as usize + i;
        if pos >= self.stride * 64 {
            return;
        }
        self.data[row * self.stride + pos / 64] &= !(1 << (pos % 64));
        if i == 0 {
            *b = Bits(b.0 & !1);
        }
    }

    /// Logical bit `k` positions above the current cursor. Positions past
    /// the row width read as zero, matching `u128 >> k` semantics.
    #[inline]
    pub fn bit_at(&self, b: Bits, k: usize) -> bool {
        if b.is_inline() {
            return k < 64 && (b.inline_value() >> k) & 1 == 1;
        }
        let row = self.check(b);
        let pos = self.cursor[row] as usize + k;
        if pos >= self.stride * 64 {
            return false;
        }
        (self.data[row * self.stride + pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Logical right-shift by one — the per-hop header advance. O(1) for
    /// slab rows (cursor bump + cached-bit0 refresh).
    #[inline]
    pub fn shift(&mut self, b: &mut Bits) {
        if b.is_inline() {
            *b = Bits(b.0 >> 1);
            return;
        }
        let row = self.check(*b);
        self.cursor[row] += 1;
        let bit0 = self.bit_at(*b, 0);
        *b = Bits((b.0 & !1) | u64::from(bit0));
    }

    /// Remaining deliveries encoded in the bitstring (bits at or above the
    /// cursor).
    pub fn popcount(&self, b: Bits) -> u32 {
        if b.is_inline() {
            return b.inline_value().count_ones();
        }
        let row = self.check(b);
        let cur = self.cursor[row] as usize;
        let base = row * self.stride;
        let mut total = 0u32;
        for w in cur / 64..self.stride {
            let mut word = self.data[base + w];
            if w == cur / 64 {
                word &= !0u64 << (cur % 64);
            }
            total += word.count_ones();
        }
        total
    }

    /// Deep-copy a bitstring for a forwarded clone. Inline values copy for
    /// free; slab handles get their own row (words + cursor).
    pub fn clone_bits(&mut self, b: Bits) -> Bits {
        if b.is_inline() {
            return b;
        }
        let src_row = self.check(b);
        let row = self.alloc_row() as usize;
        let (src_base, dst_base) = (src_row * self.stride, row * self.stride);
        // Split the borrow: rows are disjoint (alloc never returns src_row
        // because src is still live).
        debug_assert_ne!(src_row, row);
        for w in 0..self.stride {
            self.data[dst_base + w] = self.data[src_base + w];
        }
        self.cursor[row] = self.cursor[src_row];
        Bits::handle(row as u32, self.generation[row], b.bit0())
    }

    /// Return a bitstring's row to the free list. Inline values are a
    /// no-op; callers may pass every retiring packet's bitstring blindly.
    pub fn release(&mut self, b: Bits) {
        if b.is_inline() {
            return;
        }
        let row = self.check(b);
        self.generation[row] = (self.generation[row] + 1) & GEN_MASK;
        self.free.push(row as u32);
    }

    /// Remaining logical value as a `u128` (test/debug helper; panics if
    /// bits ≥ 128 positions above the cursor are set).
    pub fn to_u128(&self, b: Bits) -> u128 {
        if b.is_inline() {
            return u128::from(b.inline_value());
        }
        let mut v = 0u128;
        for k in 0..self.stride * 64 {
            if self.bit_at(b, k) {
                assert!(k < 128, "bitstring does not fit in u128");
                v |= 1 << k;
            }
        }
        v
    }
}

impl Default for BitSlab {
    fn default() -> Self {
        BitSlab::inline_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_set_shift_popcount() {
        let mut slab = BitSlab::new(40);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 0);
        slab.set_bit(&mut b, 3);
        assert!(b.is_inline());
        assert!(b.bit0());
        assert_eq!(slab.popcount(b), 2);
        slab.shift(&mut b);
        assert!(!b.bit0());
        assert!(slab.bit_at(b, 2));
        assert_eq!(slab.to_u128(b), 0b100);
        assert_eq!(slab.live_rows(), 0);
    }

    #[test]
    fn upgrade_to_slab_preserves_low_bits() {
        let mut slab = BitSlab::new(200);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 0);
        slab.set_bit(&mut b, 62);
        assert!(b.is_inline());
        slab.set_bit(&mut b, 130);
        assert!(!b.is_inline());
        assert!(b.bit0());
        assert!(slab.bit_at(b, 62));
        assert!(slab.bit_at(b, 130));
        assert_eq!(slab.popcount(b), 3);
        assert_eq!(slab.live_rows(), 1);
        slab.release(b);
        assert_eq!(slab.live_rows(), 0);
    }

    #[test]
    fn shift_walks_the_row_and_caches_bit0() {
        let mut slab = BitSlab::new(256);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 100);
        slab.set_bit(&mut b, 101);
        assert!(!b.bit0());
        for _ in 0..100 {
            slab.shift(&mut b);
        }
        assert!(b.bit0());
        assert_eq!(slab.popcount(b), 2);
        slab.shift(&mut b);
        assert!(b.bit0());
        assert_eq!(slab.popcount(b), 1);
        slab.shift(&mut b);
        assert!(!b.bit0());
        assert_eq!(slab.popcount(b), 0);
        slab.release(b);
    }

    #[test]
    fn clone_is_independent() {
        let mut slab = BitSlab::new(256);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 70);
        slab.set_bit(&mut b, 71);
        let mut c = slab.clone_bits(b);
        slab.shift(&mut c);
        assert_eq!(slab.popcount(b), 2);
        assert_eq!(slab.popcount(c), 2);
        assert!(slab.bit_at(c, 69));
        assert!(!slab.bit_at(b, 69));
        slab.release(b);
        slab.release(c);
        assert_eq!(slab.live_rows(), 0);
    }

    #[test]
    fn clear_bit_shrinks_both_representations() {
        let mut slab = BitSlab::new(200);
        // Inline: set and clear around bit 0 (the cached hot bit).
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 0);
        slab.set_bit(&mut b, 5);
        slab.clear_bit(&mut b, 0);
        assert!(!b.bit0());
        assert_eq!(slab.popcount(b), 1);
        slab.clear_bit(&mut b, 5);
        assert_eq!(slab.popcount(b), 0);
        // Slab row: the cached bit 0 in the handle must track clears too.
        let mut r = Bits::ZERO;
        slab.set_bit(&mut r, 0);
        slab.set_bit(&mut r, 150);
        assert!(!r.is_inline() && r.bit0());
        slab.clear_bit(&mut r, 0);
        assert!(!r.bit0());
        assert_eq!(slab.popcount(r), 1);
        slab.clear_bit(&mut r, 150);
        assert_eq!(slab.popcount(r), 0);
        // Clearing past the row width is a harmless no-op.
        slab.clear_bit(&mut r, 100_000);
        slab.release(r);
        assert_eq!(slab.live_rows(), 0);
    }

    #[test]
    fn rows_recycle_without_growing() {
        let mut slab = BitSlab::new(128);
        for _ in 0..100 {
            let mut b = Bits::ZERO;
            slab.set_bit(&mut b, 90);
            slab.release(b);
        }
        assert_eq!(slab.cursor.len(), 1, "free list must recycle the row");
        assert_eq!(slab.live_rows(), 0);
    }

    #[test]
    fn recycled_row_starts_clean() {
        let mut slab = BitSlab::new(128);
        let mut a = Bits::ZERO;
        slab.set_bit(&mut a, 64);
        slab.set_bit(&mut a, 65);
        slab.shift(&mut a);
        slab.release(a);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 70);
        assert_eq!(slab.popcount(b), 1);
        assert_eq!(slab.to_u128(b), 1u128 << 70);
        slab.release(b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale bitstring handle")]
    fn stale_handle_is_caught() {
        let mut slab = BitSlab::new(128);
        let mut a = Bits::ZERO;
        slab.set_bit(&mut a, 64);
        slab.release(a);
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 64); // reuses the row, new generation
        let _ = slab.popcount(a);
    }

    #[test]
    fn inline_only_slab_never_allocates() {
        let mut slab = BitSlab::inline_only();
        let mut b = Bits::ZERO;
        slab.set_bit(&mut b, 5);
        slab.shift(&mut b);
        assert_eq!(slab.to_u128(b), 0b10000);
        assert!(slab.data.is_empty());
    }

    #[test]
    fn zero_handle_roundtrip_via_wire_value() {
        // RTL wire format packs 16-bit inline values.
        let b = Bits::inline(0b1011);
        assert_eq!(b.inline_value(), 0b1011);
        assert!(b.bit0());
        assert!(Bits::ZERO.is_inline() && Bits::ZERO.inline_value() == 0);
    }
}
