//! Addresses, alignment, and the page-attribute address map.
//!
//! The paper (§3.1) avoids adding a `store combine` instruction by encoding
//! the combining property in page-table entries, the same way the MIPS R10000
//! enables its uncached-accelerated buffer. [`AddressMap`] models exactly
//! that: page-granular regions carrying an [`AddressSpace`] attribute.

use std::fmt;

use serde::Serialize;

/// Page granularity of [`AddressMap`] regions (4 KiB, a typical 1998 page).
pub const PAGE_SIZE: u64 = 4096;

/// A physical/virtual address in the simulated machine.
///
/// A thin newtype over `u64` so that addresses cannot be confused with data
/// values, cycle counts, or sizes.
///
/// # Examples
///
/// ```
/// use csb_isa::Addr;
///
/// let a = Addr::new(0x1_0038);
/// assert_eq!(a.align_down(64), Addr::new(0x1_0000));
/// assert_eq!(a.offset_in(64), 0x38);
/// assert!(a.is_aligned(8));
/// assert!(!a.is_aligned(16));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct Addr(u64);

impl Addr {
    /// Creates an address from a raw value.
    pub const fn new(raw: u64) -> Self {
        Addr(raw)
    }

    /// Returns the raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rounds the address down to a multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn align_down(self, align: u64) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        Addr(self.0 & !(align - 1))
    }

    /// Returns the byte offset of the address within its `align`-sized block.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn offset_in(self, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        self.0 & (align - 1)
    }

    /// Returns `true` if the address is a multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn is_aligned(self, align: u64) -> bool {
        self.offset_in(align) == 0
    }

    /// Returns the address advanced by `delta` bytes.
    pub fn offset(self, delta: i64) -> Self {
        Addr(self.0.wrapping_add(delta as u64))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(raw: u64) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u64 {
    fn from(a: Addr) -> Self {
        a.0
    }
}

/// Memory attribute of a page, per the paper's TLB-extension scheme (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AddressSpace {
    /// Ordinary cacheable memory: speculative loads allowed, handled by the
    /// cache hierarchy.
    Cached,
    /// Uncached I/O space: accesses are strictly ordered, non-speculative,
    /// issued exactly once, and handled by the uncached buffer.
    Uncached,
    /// Uncached *combining* space: stores are accumulated in the conditional
    /// store buffer; an atomic `swap` to this space is the conditional flush.
    UncachedCombining,
}

impl AddressSpace {
    /// Returns `true` for both uncached variants.
    pub fn is_uncached(self) -> bool {
        !matches!(self, AddressSpace::Cached)
    }
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressSpace::Cached => "cached",
            AddressSpace::Uncached => "uncached",
            AddressSpace::UncachedCombining => "uncached-combining",
        };
        f.write_str(s)
    }
}

/// Error returned when constructing an invalid [`AddressMap`] region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// Region start or length was not page aligned.
    Unaligned {
        /// Offending region start.
        start: Addr,
        /// Offending region length.
        len: u64,
    },
    /// Region overlaps one already in the map.
    Overlap {
        /// Offending region start.
        start: Addr,
    },
    /// Region length was zero.
    Empty,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Unaligned { start, len } => {
                write!(f, "region {start}+{len:#x} is not page aligned")
            }
            MapError::Overlap { start } => {
                write!(f, "region starting at {start} overlaps an existing region")
            }
            MapError::Empty => f.write_str("region length is zero"),
        }
    }
}

impl std::error::Error for MapError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
struct Region {
    start: u64,
    end: u64, // exclusive
    space: AddressSpace,
}

/// Page-granular map from address ranges to [`AddressSpace`] attributes.
///
/// Addresses not covered by any region default to [`AddressSpace::Cached`],
/// matching the conventional "everything is memory unless mapped otherwise"
/// behaviour.
///
/// # Examples
///
/// ```
/// use csb_isa::{Addr, AddressMap, AddressSpace};
///
/// # fn main() -> Result<(), csb_isa::MapError> {
/// let mut map = AddressMap::new();
/// map.add_region(Addr::new(0x1000_0000), 0x1000, AddressSpace::Uncached)?;
/// map.add_region(Addr::new(0x2000_0000), 0x1000, AddressSpace::UncachedCombining)?;
///
/// assert_eq!(map.space_of(Addr::new(0x42)), AddressSpace::Cached);
/// assert_eq!(map.space_of(Addr::new(0x1000_0008)), AddressSpace::Uncached);
/// assert_eq!(
///     map.space_of(Addr::new(0x2000_0FF8)),
///     AddressSpace::UncachedCombining
/// );
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct AddressMap {
    regions: Vec<Region>,
}

impl AddressMap {
    /// Creates an empty map (every address is cached).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a page-aligned region with the given attribute.
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if `start`/`len` are not multiples of
    /// [`PAGE_SIZE`], `len` is zero, or the region overlaps an existing one.
    pub fn add_region(
        &mut self,
        start: Addr,
        len: u64,
        space: AddressSpace,
    ) -> Result<(), MapError> {
        if len == 0 {
            return Err(MapError::Empty);
        }
        if !start.is_aligned(PAGE_SIZE) || !len.is_multiple_of(PAGE_SIZE) {
            return Err(MapError::Unaligned { start, len });
        }
        let (s, e) = (start.raw(), start.raw() + len);
        if self.regions.iter().any(|r| s < r.end && r.start < e) {
            return Err(MapError::Overlap { start });
        }
        self.regions.push(Region {
            start: s,
            end: e,
            space,
        });
        self.regions.sort_by_key(|r| r.start);
        Ok(())
    }

    /// Returns the attribute of the page containing `addr`.
    pub fn space_of(&self, addr: Addr) -> AddressSpace {
        let a = addr.raw();
        match self.regions.binary_search_by(|r| {
            if a < r.start {
                std::cmp::Ordering::Greater
            } else if a >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.regions[i].space,
            Err(_) => AddressSpace::Cached,
        }
    }

    /// Iterates over `(start, len, space)` for each mapped region, in
    /// ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, u64, AddressSpace)> + '_ {
        self.regions
            .iter()
            .map(|r| (Addr::new(r.start), r.end - r.start, r.space))
    }

    /// Number of mapped regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Returns `true` if no regions are mapped.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_helpers() {
        let a = Addr::new(0x1234);
        assert_eq!(a.align_down(16).raw(), 0x1230);
        assert_eq!(a.offset_in(16), 4);
        assert!(Addr::new(0x40).is_aligned(64));
        assert!(!Addr::new(0x48).is_aligned(64));
        assert_eq!(a.offset(-4).raw(), 0x1230);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn align_down_rejects_non_power_of_two() {
        Addr::new(8).align_down(3);
    }

    #[test]
    fn default_space_is_cached() {
        let map = AddressMap::new();
        assert_eq!(map.space_of(Addr::new(0)), AddressSpace::Cached);
        assert_eq!(map.space_of(Addr::new(u64::MAX)), AddressSpace::Cached);
        assert!(map.is_empty());
    }

    #[test]
    fn regions_resolve() {
        let mut map = AddressMap::new();
        map.add_region(Addr::new(0x1000), 0x1000, AddressSpace::Uncached)
            .unwrap();
        map.add_region(Addr::new(0x3000), 0x2000, AddressSpace::UncachedCombining)
            .unwrap();
        assert_eq!(map.space_of(Addr::new(0x0fff)), AddressSpace::Cached);
        assert_eq!(map.space_of(Addr::new(0x1000)), AddressSpace::Uncached);
        assert_eq!(map.space_of(Addr::new(0x1fff)), AddressSpace::Uncached);
        assert_eq!(map.space_of(Addr::new(0x2000)), AddressSpace::Cached);
        assert_eq!(
            map.space_of(Addr::new(0x4fff)),
            AddressSpace::UncachedCombining
        );
        assert_eq!(map.space_of(Addr::new(0x5000)), AddressSpace::Cached);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn rejects_unaligned() {
        let mut map = AddressMap::new();
        assert!(matches!(
            map.add_region(Addr::new(0x100), 0x1000, AddressSpace::Uncached),
            Err(MapError::Unaligned { .. })
        ));
        assert!(matches!(
            map.add_region(Addr::new(0x1000), 0x100, AddressSpace::Uncached),
            Err(MapError::Unaligned { .. })
        ));
        assert_eq!(
            map.add_region(Addr::new(0x1000), 0, AddressSpace::Uncached),
            Err(MapError::Empty)
        );
    }

    #[test]
    fn rejects_overlap() {
        let mut map = AddressMap::new();
        map.add_region(Addr::new(0x1000), 0x2000, AddressSpace::Uncached)
            .unwrap();
        assert!(matches!(
            map.add_region(Addr::new(0x2000), 0x1000, AddressSpace::Cached),
            Err(MapError::Overlap { .. })
        ));
        // Adjacent is fine.
        map.add_region(Addr::new(0x3000), 0x1000, AddressSpace::Cached)
            .unwrap();
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::new(0x40).to_string(), "0x40");
        assert_eq!(
            AddressSpace::UncachedCombining.to_string(),
            "uncached-combining"
        );
        let err = MapError::Empty;
        assert!(!err.to_string().is_empty());
    }
}
