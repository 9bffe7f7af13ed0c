//! Process memory and VIA memory registration.
//!
//! Each provider owns an abstract user address space with real backing
//! bytes, so data transfers move actual data (fragmentation, scatter/gather
//! and RDMA placement are testable end-to-end). `register`/`deregister`
//! model the spec's mandatory registration step: pinning cost per page and
//! a handle the NIC uses for protection checks and translation.

use std::collections::BTreeMap;

use crate::types::{MemHandle, ViaError, ViaResult};

/// Memory protection attributes given at registration
/// (`VIP_MEM_ATTRIBUTES`).
#[derive(Clone, Copy, Debug)]
pub struct MemAttributes {
    /// Region may be the target of inbound RDMA writes.
    pub enable_rdma_write: bool,
    /// Region may be the source of inbound RDMA reads.
    pub enable_rdma_read: bool,
}

impl Default for MemAttributes {
    fn default() -> Self {
        MemAttributes {
            enable_rdma_write: true,
            enable_rdma_read: false,
        }
    }
}

#[derive(Clone, Debug)]
struct Registration {
    start: u64,
    len: u64,
    attrs: MemAttributes,
}

/// One process's memory: a bump allocator of page-aligned regions with
/// backing bytes, plus the registration table.
pub struct ProcessMem {
    page_size: u64,
    next_va: u64,
    regions: BTreeMap<u64, Vec<u8>>, // start va -> backing
    registrations: Vec<Option<Registration>>,
}

impl ProcessMem {
    /// Fresh address space. Addresses start away from zero so that a null
    /// address is always invalid.
    pub fn new(page_size: u32) -> Self {
        assert!(
            page_size.is_power_of_two(),
            "page size must be a power of two"
        );
        ProcessMem {
            page_size: page_size as u64,
            next_va: 0x1000_0000,
            regions: BTreeMap::new(),
            registrations: Vec::new(),
        }
    }

    /// Allocate `len` bytes of zeroed, page-aligned memory; returns the
    /// virtual address.
    pub fn malloc(&mut self, len: u64) -> u64 {
        assert!(len > 0, "malloc(0)");
        let va = self.next_va;
        let span = len.div_ceil(self.page_size) * self.page_size;
        self.next_va += span + self.page_size; // guard page between regions
        self.regions.insert(va, vec![0u8; len as usize]);
        va
    }

    fn region_containing(&self, va: u64, len: u64) -> Option<(u64, &Vec<u8>)> {
        let (&start, backing) = self.regions.range(..=va).next_back()?;
        let end = start + backing.len() as u64;
        if va >= start && va.checked_add(len)? <= end {
            Some((start, backing))
        } else {
            None
        }
    }

    /// Borrow `len` bytes at `va`. Panics on wild addresses (a simulation
    /// bug, not a simulated error).
    pub fn slice(&self, va: u64, len: u64) -> &[u8] {
        let (start, backing) = self
            .region_containing(va, len)
            .unwrap_or_else(|| panic!("read outside any allocation: va={va:#x} len={len}"));
        let off = (va - start) as usize;
        &backing[off..off + len as usize]
    }

    /// Copy out `len` bytes at `va`; panics like [`ProcessMem::slice`].
    pub fn read(&self, va: u64, len: u64) -> Vec<u8> {
        self.slice(va, len).to_vec()
    }

    /// Write `data` at `va`.
    pub fn write(&mut self, va: u64, data: &[u8]) {
        let (&start, backing) = self
            .regions
            .range_mut(..=va)
            .next_back()
            .unwrap_or_else(|| panic!("write outside any allocation: va={va:#x}"));
        let end = start + backing.len() as u64;
        assert!(
            va >= start && va + data.len() as u64 <= end,
            "write outside allocation: va={va:#x} len={}",
            data.len()
        );
        let off = (va - start) as usize;
        backing[off..off + data.len()].copy_from_slice(data);
    }

    /// Register `[va, va+len)` for VIA use. The range must lie inside one
    /// allocation. Returns the handle. (Cost accounting is the provider's
    /// job; this is the bookkeeping.)
    pub fn register(&mut self, va: u64, len: u64, attrs: MemAttributes) -> ViaResult<MemHandle> {
        if len == 0 {
            return Err(ViaError::InvalidParameter);
        }
        if self.region_containing(va, len).is_none() {
            return Err(ViaError::InvalidParameter);
        }
        let handle = MemHandle(self.registrations.len() as u32);
        self.registrations.push(Some(Registration {
            start: va,
            len,
            attrs,
        }));
        Ok(handle)
    }

    /// Deregister a handle. Returns the page span it covered (for cache
    /// invalidation). Double-deregistration is an error.
    pub fn deregister(&mut self, handle: MemHandle) -> ViaResult<(u64, u64)> {
        let slot = self
            .registrations
            .get_mut(handle.index())
            .ok_or(ViaError::InvalidMemHandle)?;
        let reg = slot.take().ok_or(ViaError::InvalidMemHandle)?;
        Ok(self.page_span(reg.start, reg.len))
    }

    /// Validate that `[va, va+len)` lies inside `handle`'s registered range.
    pub fn check_registered(&self, handle: MemHandle, va: u64, len: u64) -> ViaResult<()> {
        let reg = self
            .registrations
            .get(handle.index())
            .and_then(|r| r.as_ref())
            .ok_or(ViaError::InvalidMemHandle)?;
        let end = reg.start + reg.len;
        let req_end = va.checked_add(len).ok_or(ViaError::DescriptorError)?;
        if va >= reg.start && req_end <= end {
            Ok(())
        } else {
            Err(ViaError::DescriptorError)
        }
    }

    /// The registration's protection attributes.
    pub fn attrs(&self, handle: MemHandle) -> ViaResult<MemAttributes> {
        self.registrations
            .get(handle.index())
            .and_then(|r| r.as_ref())
            .map(|r| r.attrs)
            .ok_or(ViaError::InvalidMemHandle)
    }

    /// Global page numbers `(first, last)` spanned by `[va, va+len)`.
    pub fn page_span(&self, va: u64, len: u64) -> (u64, u64) {
        let first = va / self.page_size;
        let last = if len == 0 {
            first
        } else {
            (va + len - 1) / self.page_size
        };
        (first, last)
    }

    /// Number of pages spanned by `[va, va+len)`.
    pub fn page_count(&self, va: u64, len: u64) -> u64 {
        let (first, last) = self.page_span(va, len);
        last - first + 1
    }

    /// Number of live (registered, not yet deregistered) handles.
    pub fn live_registrations(&self) -> usize {
        self.registrations.iter().filter(|r| r.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> ProcessMem {
        ProcessMem::new(4096)
    }

    #[test]
    fn malloc_read_write_roundtrip() {
        let mut m = mem();
        let va = m.malloc(100);
        m.write(va + 10, b"hello");
        assert_eq!(m.read(va + 10, 5), b"hello");
        assert_eq!(m.read(va, 1), vec![0]); // zero-initialized
    }

    #[test]
    fn slice_borrows_the_backing_bytes_read_copies_them() {
        let mut m = mem();
        let va = m.malloc(100);
        m.write(va + 90, b"0123456789");
        assert_eq!(m.slice(va + 92, 3), b"234");
        assert_eq!(m.slice(va + 100, 0), b"");
        let copy = m.read(va + 90, 10);
        m.write(va + 90, b"__________");
        assert_eq!(copy, b"0123456789");
        assert_eq!(m.slice(va + 90, 10), b"__________");
    }

    #[test]
    #[should_panic(expected = "outside any allocation")]
    fn a_slice_may_not_run_off_its_allocation() {
        let mut m = mem();
        let va = m.malloc(16);
        m.slice(va + 10, 7);
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut m = mem();
        let a = m.malloc(1);
        let b = m.malloc(10_000);
        assert_eq!(a % 4096, 0);
        assert_eq!(b % 4096, 0);
        assert!(b >= a + 4096);
    }

    #[test]
    #[should_panic(expected = "outside any allocation")]
    fn wild_read_panics() {
        let m = mem();
        m.read(0x42, 1);
    }

    #[test]
    #[should_panic(expected = "outside allocation")]
    fn overrun_write_panics() {
        let mut m = mem();
        let va = m.malloc(16);
        m.write(va + 10, b"0123456789"); // 10 bytes at offset 10 of a 16-byte region
    }

    #[test]
    fn register_validates_range() {
        let mut m = mem();
        let va = m.malloc(8192);
        assert!(m.register(va, 8192, MemAttributes::default()).is_ok());
        assert_eq!(
            m.register(va, 8193, MemAttributes::default()),
            Err(ViaError::InvalidParameter)
        );
        assert_eq!(
            m.register(0xdead_0000, 16, MemAttributes::default()),
            Err(ViaError::InvalidParameter)
        );
        assert_eq!(
            m.register(va, 0, MemAttributes::default()),
            Err(ViaError::InvalidParameter)
        );
    }

    #[test]
    fn check_registered_enforces_bounds() {
        let mut m = mem();
        let va = m.malloc(4096);
        let h = m
            .register(va + 100, 1000, MemAttributes::default())
            .unwrap();
        assert!(m.check_registered(h, va + 100, 1000).is_ok());
        assert!(m.check_registered(h, va + 500, 600).is_ok());
        assert_eq!(
            m.check_registered(h, va + 50, 100),
            Err(ViaError::DescriptorError)
        );
        assert_eq!(
            m.check_registered(h, va + 100, 1001),
            Err(ViaError::DescriptorError)
        );
    }

    #[test]
    fn deregister_invalidates_handle() {
        let mut m = mem();
        let va = m.malloc(4096);
        let h = m.register(va, 4096, MemAttributes::default()).unwrap();
        assert_eq!(m.live_registrations(), 1);
        let (first, last) = m.deregister(h).unwrap();
        assert_eq!(first, va / 4096);
        assert_eq!(last, va / 4096);
        assert_eq!(m.live_registrations(), 0);
        assert_eq!(m.deregister(h), Err(ViaError::InvalidMemHandle));
        assert_eq!(
            m.check_registered(h, va, 1),
            Err(ViaError::InvalidMemHandle)
        );
    }

    #[test]
    fn page_span_math() {
        let m = mem();
        assert_eq!(m.page_count(0x1000_0000, 1), 1);
        assert_eq!(m.page_count(0x1000_0000, 4096), 1);
        assert_eq!(m.page_count(0x1000_0000, 4097), 2);
        assert_eq!(m.page_count(0x1000_0FFF, 2), 2); // straddles a boundary
        assert_eq!(m.page_count(0x1000_0000, 0), 1);
    }

    #[test]
    fn attrs_reflect_registration() {
        let mut m = mem();
        let va = m.malloc(4096);
        let h = m
            .register(
                va,
                4096,
                MemAttributes {
                    enable_rdma_write: false,
                    enable_rdma_read: true,
                },
            )
            .unwrap();
        let a = m.attrs(h).unwrap();
        assert!(!a.enable_rdma_write);
        assert!(a.enable_rdma_read);
    }
}
