//! On-the-wire frame formats exchanged between providers.
//!
//! Frames travel as the opaque body of a [`fabric::Delivery`]; the receive
//! handler downcasts back. `payload_bytes` handed to the fabric counts the
//! framing header so serialization times are honest.

use std::sync::Arc;

use fabric::NodeId;

use crate::types::{Discriminator, Reliability, ViId};
use crate::vi::TxBuffers;

/// A fragment's bytes: a window into the snapshot its message's post took.
/// Every fragment of every (re)transmission shares that one allocation, and
/// a frame in flight keeps it alive until it lands.
#[derive(Clone)]
pub(crate) struct Window {
    bufs: Arc<TxBuffers>,
    off: u32,
    len: u32,
}

impl Window {
    /// `len` bytes of `bufs.data` starting at `off`.
    pub(crate) fn new(bufs: Arc<TxBuffers>, off: u64, len: u32) -> Self {
        debug_assert!(off + len as u64 <= bufs.data.len() as u64);
        Window {
            bufs,
            off: off as u32,
            len,
        }
    }
}

impl std::ops::Deref for Window {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.bufs.data[self.off as usize..][..self.len as usize]
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Window({}+{})", self.off, self.len)
    }
}

/// What kind of message a data fragment belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MsgKind {
    /// Send/receive-model message; `imm` delivered into the matched
    /// receive descriptor's completion.
    Send {
        /// Immediate data from the sender's control segment.
        imm: Option<u32>,
    },
    /// RDMA write into `(remote va, remote handle)`; `imm` (if any)
    /// additionally consumes and completes a receive descriptor.
    RdmaWrite {
        /// Target virtual address on the destination node.
        remote_va: u64,
        /// Memory-handle id the target range was registered under.
        remote_handle: u32,
        /// Immediate data, if any.
        imm: Option<u32>,
    },
    /// Data streamed back by an RDMA-read responder; placed into the
    /// *initiator's* local segments of send-queue descriptor `req_seq`.
    RdmaReadResp {
        /// The initiator-side sequence number of the RDMA-read descriptor.
        req_seq: u64,
    },
}

/// One fragment of a data transfer.
#[derive(Clone, Debug)]
pub(crate) struct DataFrame {
    /// VI on the sending node.
    pub src_vi: ViId,
    /// VI on the receiving node.
    pub dst_vi: ViId,
    /// Per-(sending VI) message sequence number.
    pub seq: u64,
    /// Fragment index within the message, 0-based.
    pub frag_idx: u32,
    /// Total fragments in the message.
    pub frag_count: u32,
    /// Total message length in bytes.
    pub msg_len: u64,
    /// Byte offset of this fragment within the message.
    pub offset: u64,
    /// The fragment's bytes.
    pub payload: Window,
    /// Message kind.
    pub kind: MsgKind,
    /// Reliability mode of the sending connection.
    pub reliability: Reliability,
}

/// Connection-manager control frames.
#[derive(Clone, Debug)]
pub(crate) enum ConnFrame {
    /// Client → server: ask to connect to whoever listens on `disc`.
    Request {
        /// Server-side discriminator being addressed.
        disc: Discriminator,
        /// Client's node.
        client_node: NodeId,
        /// Client's VI.
        client_vi: ViId,
        /// Client's reliability level (must match the server's).
        reliability: Reliability,
        /// Client's maximum transfer size (connection MTU negotiates min).
        max_transfer_size: u32,
    },
    /// Server → client: accepted; carries the server's endpoint + attrs.
    Accept {
        /// The client VI this answers.
        client_vi: ViId,
        /// Server's node.
        server_node: NodeId,
        /// Server's VI.
        server_vi: ViId,
        /// Server's maximum transfer size.
        max_transfer_size: u32,
    },
    /// Server → client: refused (attribute mismatch or no listener).
    Reject {
        /// The client VI this answers.
        client_vi: ViId,
    },
    /// Either side: tear the connection down.
    Disconnect {
        /// VI on the receiving node.
        dst_vi: ViId,
    },
    /// Periodic keepalive (both directions, only when the profile enables
    /// heartbeats). Receipt refreshes the destination VI's liveness clock;
    /// silence past the configured tolerance drives the VI into
    /// `ConnState::Error { cause: PeerDown }`.
    Heartbeat {
        /// VI on the receiving node.
        dst_vi: ViId,
    },
}

/// An RDMA-read request travelling initiator → responder.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RdmaReadReq {
    /// Responder's VI.
    pub dst_vi: ViId,
    /// Initiator-side descriptor sequence (echoed in the response).
    pub req_seq: u64,
    /// Responder-side source address.
    pub remote_va: u64,
    /// Responder-side memory handle id.
    pub remote_handle: u32,
    /// Bytes requested.
    pub len: u64,
}

/// Everything a provider can receive.
#[derive(Clone, Debug)]
pub(crate) enum Frame {
    /// A data fragment.
    Data(DataFrame),
    /// Message-level acknowledgment (reliable modes).
    Ack {
        /// VI on the receiving (original sender's) node.
        dst_vi: ViId,
        /// Acknowledged message sequence.
        seq: u64,
        /// Piggybacked flow-control grant: the cumulative count of receive
        /// descriptors the acknowledging VI has made available since it
        /// connected. Cumulative (not a delta) so a lost ACK never loses
        /// credits — the next ACK's total covers it.
        credit_total: u64,
    },
    /// Connection management.
    Conn(ConnFrame),
    /// RDMA-read request.
    RdmaRead(RdmaReadReq),
}

/// Wire size of a control frame (request/accept/reject/disconnect).
pub(crate) const CONN_FRAME_BYTES: u32 = 64;
/// Wire size of an RDMA-read request frame.
pub(crate) const RDMA_READ_REQ_BYTES: u32 = 48;

#[cfg(test)]
mod tests {
    use super::*;

    /// A whole buffer as one window (frames built by hand in tests).
    impl From<Vec<u8>> for Window {
        fn from(data: Vec<u8>) -> Self {
            let len = data.len() as u32;
            let pages = Vec::new();
            Window::new(Arc::new(TxBuffers { data, pages }), 0, len)
        }
    }

    #[test]
    fn a_window_reads_its_slice_of_the_shared_snapshot() {
        let data: Vec<u8> = (0..=255).collect();
        let bufs = Arc::new(TxBuffers {
            data,
            pages: Vec::new(),
        });
        let w = Window::new(Arc::clone(&bufs), 100, 50);
        assert_eq!(&*w, &bufs.data[100..150]);
        assert_eq!(Window::new(Arc::clone(&bufs), 256, 0).len(), 0);
        // Windows share the snapshot; none owns a copy.
        assert_eq!(Arc::strong_count(&bufs), 2);
        fn is_send_sync<T: Send + Sync>() {}
        is_send_sync::<Window>();
    }

    #[test]
    fn frames_are_cloneable_and_carry_payload() {
        let f = Frame::Data(DataFrame {
            src_vi: ViId(0),
            dst_vi: ViId(1),
            seq: 7,
            frag_idx: 0,
            frag_count: 2,
            msg_len: 6000,
            offset: 0,
            payload: vec![0xAB; 4096].into(),
            kind: MsgKind::Send { imm: Some(9) },
            reliability: Reliability::Unreliable,
        });
        let g = f.clone();
        match g {
            Frame::Data(d) => {
                assert_eq!(d.payload.len(), 4096);
                assert_eq!(d.kind, MsgKind::Send { imm: Some(9) });
            }
            _ => panic!("wrong variant"),
        }
    }
}
