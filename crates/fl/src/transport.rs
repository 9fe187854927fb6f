//! Byte-movement abstraction between clients and the server.
//!
//! The round engine is transport-agnostic: it hands payloads to a
//! [`Transport`] and gets back the bytes "the other side" observes, plus
//! the wire cost of moving them. [`InMemoryTransport`] is the analytic
//! path: payloads pass through untouched and the wire cost is the
//! payload size. Framed FMSG bytes over real sockets are the job of
//! the multi-process runtime ([`crate::net`]), whose checksums the
//! `net_loopback` and `net_churn` tests pin to this engine's.

use fedsz_codec::Result;

/// Bytes delivered to the far side of a transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The payload as the receiver observes it. Left empty on a
    /// broadcast: delivery is lossless, so the receiver reads the
    /// sender's bytes and no copy is materialized.
    pub payload: Vec<u8>,
    /// Whether the payload is a FedSZ stream (a compressed upload, or a
    /// downlink-encoded broadcast).
    pub compressed: bool,
    /// Bytes that crossed the wire, including any framing.
    pub wire_bytes: usize,
}

/// Moves bytes between the server and a client, reporting wire cost.
/// Delivery is lossless: the receiver observes exactly the bytes the
/// sender handed in, which lets the engine decode one broadcast for
/// the whole cohort.
pub trait Transport {
    /// Ships the (possibly downlink-encoded) global model to one
    /// client; `compressed` states whether `dict_bytes` is a FedSZ
    /// stream rather than raw state-dict bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`](fedsz_codec::CodecError) when the
    /// transport rejects the payload (cannot happen on the in-memory
    /// path).
    fn broadcast(
        &mut self,
        round: u32,
        client_id: u64,
        dict_bytes: &[u8],
        compressed: bool,
    ) -> Result<Delivered>;

    /// Ships one client's (possibly compressed) update to the server.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`](fedsz_codec::CodecError) when the
    /// transport rejects the payload.
    fn upload(
        &mut self,
        round: u32,
        client_id: u64,
        payload: Vec<u8>,
        compressed: bool,
    ) -> Result<Delivered>;
}

/// The analytic transport: payloads are handed over untouched and wire
/// cost equals payload size. Zero overhead, zero copies beyond the
/// payload itself.
#[derive(Debug, Default, Clone)]
pub struct InMemoryTransport;

impl Transport for InMemoryTransport {
    fn broadcast(
        &mut self,
        _round: u32,
        _client_id: u64,
        dict_bytes: &[u8],
        compressed: bool,
    ) -> Result<Delivered> {
        // The receiver reads the sender's bytes, so copying them here
        // would be O(model) dead allocation per client.
        Ok(Delivered { payload: Vec::new(), compressed, wire_bytes: dict_bytes.len() })
    }

    fn upload(
        &mut self,
        _round: u32,
        _client_id: u64,
        payload: Vec<u8>,
        compressed: bool,
    ) -> Result<Delivered> {
        let wire_bytes = payload.len();
        Ok(Delivered { payload, compressed, wire_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_is_identity_with_payload_cost() {
        let mut transport = InMemoryTransport;
        let delivered = transport.upload(3, 1, vec![9u8; 100], true).unwrap();
        assert_eq!(delivered.payload, vec![9u8; 100]);
        assert!(delivered.compressed);
        assert_eq!(delivered.wire_bytes, 100);
        let b = transport.broadcast(3, 1, &[1, 2, 3], false).unwrap();
        assert!(b.payload.is_empty(), "a lossless broadcast skips the copy");
        assert_eq!(b.wire_bytes, 3);
        let enc = transport.broadcast(3, 1, &[1, 2, 3], true).unwrap();
        assert!(enc.compressed, "the encoded flag must survive delivery");
    }
}
