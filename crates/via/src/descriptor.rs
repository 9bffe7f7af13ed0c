//! VIA descriptors: Control Segment, Data Segments, Address Segment.
//!
//! A descriptor describes one work request. Its layout drives two costs the
//! benchmarks see: the host-side build cost (per segment) and the size of
//! the descriptor-fetch DMA the NIC performs (`wire_size`).

use crate::types::{MemHandle, ViaError, ViaResult};

/// Spec limit on data segments per descriptor.
pub const MAX_DATA_SEGMENTS: usize = 252;

/// Modeled size of the control segment in bytes (as DMA'd by the NIC).
pub const CONTROL_SEGMENT_BYTES: u64 = 64;
/// Modeled size of each data/address segment in bytes.
pub const SEGMENT_BYTES: u64 = 16;

/// The operation a descriptor requests.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DescOp {
    /// Send a message (consumes one remote receive descriptor).
    Send,
    /// Receive a message (matched by one remote send).
    Recv,
    /// Write local data directly into remote registered memory.
    RdmaWrite,
    /// Read remote registered memory into local buffers.
    RdmaRead,
}

/// A local gather/scatter element: `len` bytes at `va` under `handle`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataSegment {
    /// User virtual address.
    pub va: u64,
    /// Memory handle covering the address range.
    pub handle: MemHandle,
    /// Length in bytes.
    pub len: u32,
}

/// The Address Segment of an RDMA descriptor: where on the remote node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RemoteSegment {
    /// Remote user virtual address.
    pub va: u64,
    /// Remote memory handle (as communicated out of band).
    pub handle: MemHandle,
}

/// A work request, built with the fluent constructors.
///
/// ```
/// use via::descriptor::Descriptor;
/// use via::mem::{MemAttributes, ProcessMem};
///
/// let mut mem = ProcessMem::new(4096);
/// let va = mem.malloc(4096);
/// let h = mem.register(va, 4096, MemAttributes::default()).unwrap();
/// let d = Descriptor::send().segment(va, h, 4096).immediate(0xBEEF);
/// assert_eq!(d.total_len(), 4096);
/// assert!(d.validate_shape().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct Descriptor {
    /// Requested operation.
    pub op: DescOp,
    /// Local gather (send/RDMA-write source; recv/RDMA-read scatter target).
    pub segments: Vec<DataSegment>,
    /// RDMA address segment.
    pub remote: Option<RemoteSegment>,
    /// Immediate data carried in the control segment.
    pub immediate: Option<u32>,
}

impl Descriptor {
    fn new(op: DescOp) -> Self {
        Descriptor {
            op,
            segments: Vec::new(),
            remote: None,
            immediate: None,
        }
    }

    /// A send descriptor.
    pub fn send() -> Self {
        Self::new(DescOp::Send)
    }

    /// A receive descriptor.
    pub fn recv() -> Self {
        Self::new(DescOp::Recv)
    }

    /// An RDMA-write descriptor targeting remote `(va, handle)`.
    pub fn rdma_write(remote_va: u64, remote_handle: MemHandle) -> Self {
        let mut d = Self::new(DescOp::RdmaWrite);
        d.remote = Some(RemoteSegment {
            va: remote_va,
            handle: remote_handle,
        });
        d
    }

    /// An RDMA-read descriptor sourcing from remote `(va, handle)`.
    pub fn rdma_read(remote_va: u64, remote_handle: MemHandle) -> Self {
        let mut d = Self::new(DescOp::RdmaRead);
        d.remote = Some(RemoteSegment {
            va: remote_va,
            handle: remote_handle,
        });
        d
    }

    /// Append a local data segment.
    pub fn segment(mut self, va: u64, handle: MemHandle, len: u32) -> Self {
        self.segments.push(DataSegment { va, handle, len });
        self
    }

    /// Attach immediate data.
    pub fn immediate(mut self, imm: u32) -> Self {
        self.immediate = Some(imm);
        self
    }

    /// Sum of segment lengths.
    pub fn total_len(&self) -> u64 {
        self.segments.iter().map(|s| s.len as u64).sum()
    }

    /// Modeled on-host descriptor footprint (what the NIC DMA-fetches).
    pub fn wire_size(&self) -> u64 {
        let segs = self.segments.len() as u64 + self.remote.is_some() as u64;
        CONTROL_SEGMENT_BYTES + SEGMENT_BYTES * segs
    }

    /// Structural validation independent of any provider: segment count,
    /// op/shape coherence.
    pub fn validate_shape(&self) -> ViaResult<()> {
        if self.segments.len() > MAX_DATA_SEGMENTS {
            return Err(ViaError::DescriptorError);
        }
        match self.op {
            DescOp::Send | DescOp::Recv => {
                if self.remote.is_some() {
                    return Err(ViaError::DescriptorError);
                }
            }
            DescOp::RdmaWrite | DescOp::RdmaRead => {
                if self.remote.is_none() {
                    return Err(ViaError::DescriptorError);
                }
                if self.op == DescOp::RdmaRead && self.immediate.is_some() {
                    // The spec forbids immediate data on RDMA reads.
                    return Err(ViaError::DescriptorError);
                }
            }
        }
        Ok(())
    }
}

/// The completed form of a descriptor, as returned by `*_done`/`*_wait`
/// (the spec writes completion into the descriptor's control segment; we
/// hand back a value instead).
#[derive(Clone, Debug)]
pub struct Completion {
    /// Operation that completed.
    pub op: DescOp,
    /// Final status.
    pub status: ViaResult<()>,
    /// Bytes transferred. For receives: the incoming message's size.
    pub length: u64,
    /// Immediate data delivered with the message, if any.
    pub immediate: Option<u32>,
}

impl Completion {
    /// True if the operation succeeded.
    pub fn is_ok(&self) -> bool {
        self.status.is_ok()
    }

    /// A completion of `op` that failed with `error`, having moved nothing.
    pub(crate) fn failed(op: DescOp, error: ViaError) -> Completion {
        Completion {
            op,
            status: Err(error),
            length: 0,
            immediate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MemHandle {
        /// Test-only constructor for unit tests.
        pub fn test(v: u32) -> Self {
            MemHandle(v)
        }
    }

    fn h(v: u32) -> MemHandle {
        MemHandle::test(v)
    }

    #[test]
    fn builder_accumulates_segments() {
        let d = Descriptor::send()
            .segment(0x1000, h(0), 100)
            .segment(0x2000, h(1), 200);
        assert_eq!(d.total_len(), 300);
        assert_eq!(d.segments.len(), 2);
        assert!(d.validate_shape().is_ok());
    }

    #[test]
    fn wire_size_grows_per_segment() {
        let base = Descriptor::send().wire_size();
        let one = Descriptor::send().segment(0, h(0), 1).wire_size();
        let rdma = Descriptor::rdma_write(0, h(0))
            .segment(0, h(0), 1)
            .wire_size();
        assert_eq!(one - base, SEGMENT_BYTES);
        assert_eq!(rdma - one, SEGMENT_BYTES); // the address segment
    }

    #[test]
    fn too_many_segments_rejected() {
        let mut d = Descriptor::send();
        for _ in 0..=MAX_DATA_SEGMENTS {
            d = d.segment(0x1000, h(0), 1);
        }
        assert_eq!(d.validate_shape(), Err(ViaError::DescriptorError));
    }

    #[test]
    fn send_with_remote_segment_rejected() {
        let mut d = Descriptor::send().segment(0x1000, h(0), 8);
        d.remote = Some(RemoteSegment {
            va: 0,
            handle: h(1),
        });
        assert_eq!(d.validate_shape(), Err(ViaError::DescriptorError));
    }

    #[test]
    fn rdma_requires_remote_segment() {
        let mut d = Descriptor::rdma_write(0x9000, h(2)).segment(0x1000, h(0), 8);
        assert!(d.validate_shape().is_ok());
        d.remote = None;
        assert_eq!(d.validate_shape(), Err(ViaError::DescriptorError));
    }

    #[test]
    fn rdma_read_rejects_immediate() {
        let d = Descriptor::rdma_read(0x9000, h(2))
            .segment(0x1000, h(0), 8)
            .immediate(1);
        assert_eq!(d.validate_shape(), Err(ViaError::DescriptorError));
    }

    #[test]
    fn zero_segment_send_is_valid() {
        // A zero-length send (control-segment-only, e.g. immediate ping).
        let d = Descriptor::send().immediate(42);
        assert!(d.validate_shape().is_ok());
        assert_eq!(d.total_len(), 0);
    }
}
