//! Frames: the unit of data handed to a network for transmission.
//!
//! A frame is what a NIC would put on the wire: a protocol tag used for
//! demultiplexing at the receiving node, an opaque payload, and an
//! accounting of header bytes added by the layers above (used by the
//! network model to compute wire occupancy).

use bytes::Bytes;

use crate::node::NodeId;

/// Protocol tag carried by every frame, used to select the receive handler
/// registered on the destination node.
///
/// Well-known values are defined as associated constants; layers are free
/// to allocate their own tags above [`ProtoId::USER_BASE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProtoId(pub u16);

impl ProtoId {
    /// Raw datagram service (UDP-like).
    pub const DATAGRAM: ProtoId = ProtoId(1);
    /// Simulated TCP segments.
    pub const TCP: ProtoId = ProtoId(2);
    /// Madeleine messages on a SAN.
    pub const MADELEINE: ProtoId = ProtoId(3);
    /// VRP (Variable Reliability Protocol) frames.
    pub const VRP: ProtoId = ProtoId(4);
    /// First tag available for user/test protocols.
    pub const USER_BASE: ProtoId = ProtoId(1000);

    /// Returns the `n`-th user protocol tag.
    pub fn user(n: u16) -> ProtoId {
        ProtoId(Self::USER_BASE.0 + n)
    }
}

/// A frame in flight on a simulated network.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Protocol demultiplexing tag.
    pub proto: ProtoId,
    /// Opaque payload bytes.
    pub payload: Bytes,
    /// Header bytes accounted in addition to the payload when computing
    /// serialization time (e.g. TCP/IP headers, Madeleine headers).
    pub header_bytes: u32,
}

impl Frame {
    /// Builds a frame with no extra header accounting.
    pub fn new(src: NodeId, dst: NodeId, proto: ProtoId, payload: impl Into<Bytes>) -> Self {
        Frame {
            src,
            dst,
            proto,
            payload: payload.into(),
            header_bytes: 0,
        }
    }

    /// Sets the number of header bytes accounted on the wire.
    pub fn with_header_bytes(mut self, header_bytes: u32) -> Self {
        self.header_bytes = header_bytes;
        self
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Total bytes occupying the wire: payload plus headers.
    pub fn wire_bytes(&self) -> u64 {
        self.payload.len() as u64 + self.header_bytes as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_accounts_headers() {
        let f =
            Frame::new(NodeId(0), NodeId(1), ProtoId::TCP, vec![0u8; 100]).with_header_bytes(40);
        assert_eq!(f.payload_len(), 100);
        assert_eq!(f.wire_bytes(), 140);
    }

    #[test]
    fn user_proto_ids_do_not_collide_with_builtin() {
        assert!(ProtoId::user(0) >= ProtoId::USER_BASE);
        assert_ne!(ProtoId::user(0), ProtoId::TCP);
        assert_ne!(ProtoId::user(1), ProtoId::user(2));
    }
}
