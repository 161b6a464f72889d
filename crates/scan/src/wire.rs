//! Ethernet II frame codecs for IPv4 and IPv6 probes.
//!
//! The simulated scanner builds genuine probe frames and the simulated
//! network parses and validates them — checksums included — so the probe
//! path exercises the same encode/decode work a real ZMap-class scanner
//! performs, in both address families. The codec is parameterised over the
//! [`WireFamily`]: the Ethernet and TCP layers are shared bit for bit,
//! only the network header in the middle differs.
//!
//! ## Frame layouts
//!
//! **IPv4 TCP-SYN — 54 bytes** (unchanged from the pre-generic codec):
//!
//! ```text
//! | Ethernet II (14) | IPv4 header (20, no options) | TCP header (20) |
//! ```
//!
//! ethertype `0x0800`; the IPv4 header carries its own RFC 1071 checksum,
//! and the TCP checksum covers the RFC 793 pseudo-header
//! (src, dst, zero, protocol, TCP length).
//!
//! **IPv6 TCP-SYN — 74 bytes**:
//!
//! ```text
//! | Ethernet II (14) | IPv6 header (40, fixed) | TCP header (20) |
//! ```
//!
//! ethertype `0x86DD`; the fixed 40-byte header follows RFC 2460 —
//! version/traffic-class/flow-label word, payload length, next header,
//! hop limit, then the two 128-bit addresses. IPv6 deliberately has **no
//! header checksum**; instead the TCP checksum covers the RFC 2460 §8.1
//! pseudo-header: the 16-byte source and destination addresses, the
//! 32-bit upper-layer packet length, three zero bytes, and the next-header
//! value.
//!
//! ## The allocation-free hot path
//!
//! Every codec encodes into caller-provided storage
//! ([`encode_frame_into`]); the `Bytes`-returning builders are thin
//! copying wrappers for tests and one-off frames. Two stack types carry
//! frames through the per-probe hot path without touching the heap:
//!
//! * [`FrameBuf`] — one frame in fixed `[u8; MAX_FRAME_LEN]` storage
//!   (74 bytes covers both families), used for responder replies;
//! * [`SynTemplate`] — a preconstructed SYN probe whose constant bytes
//!   are encoded **once**. Retargeting a probe
//!   ([`SynTemplate::set_target`]) patches only the destination
//!   address, source port, and sequence number, and updates the
//!   checksums *incrementally*: the one's-complement sum of every
//!   constant word is precomputed, so each probe folds in just the
//!   handful of words that changed instead of re-summing the whole
//!   pseudo-header and segment. In a prefix walk only those bytes
//!   change between probes, which is exactly the trick ZMap-class
//!   senders use to hit line rate.
//!
//! All checksum arithmetic is allocation-free: pseudo-headers are summed
//! word-wise from their parts ([`WireFamily::transport_checksum`]),
//! never materialised.

use bytes::Bytes;
use std::fmt;
use std::marker::PhantomData;
use tass_net::{AddrFamily, V4, V6};

/// Errors while parsing a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Frame shorter than the fixed header layout requires.
    Truncated,
    /// EtherType other than IPv4 (0x0800) on the v4 parse path.
    NotIpv4,
    /// EtherType other than IPv6 (0x86DD) on the v6 parse path.
    NotIpv6,
    /// IP version/length fields malformed (v4: version ≠ 4 or IHL < 5;
    /// v6: version ≠ 6 or payload length inconsistent with the frame).
    BadIpHeader,
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// Layer-4 protocol other than TCP (6).
    NotTcp,
    /// TCP checksum mismatch (over the family's pseudo-header).
    BadTcpChecksum,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireError::Truncated => "frame truncated",
            WireError::NotIpv4 => "not an IPv4 frame",
            WireError::NotIpv6 => "not an IPv6 frame",
            WireError::BadIpHeader => "malformed IP header",
            WireError::BadIpChecksum => "IPv4 checksum mismatch",
            WireError::NotTcp => "not a TCP segment",
            WireError::BadTcpChecksum => "TCP checksum mismatch",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for WireError {}

/// TCP flag bits.
pub mod tcp_flags {
    /// Synchronise sequence numbers.
    pub const SYN: u8 = 0x02;
    /// Acknowledgement field significant.
    pub const ACK: u8 = 0x10;
    /// Reset the connection.
    pub const RST: u8 = 0x04;
    /// No more data from sender.
    pub const FIN: u8 = 0x01;
}

/// Frame layout constants.
pub const ETH_HDR_LEN: usize = 14;
/// IPv4 header length without options.
pub const IP_HDR_LEN: usize = 20;
/// IPv6 header length (always fixed, RFC 2460).
pub const IPV6_HDR_LEN: usize = 40;
/// TCP header length without options.
pub const TCP_HDR_LEN: usize = 20;
/// Total length of the IPv4 TCP probe frames this crate builds.
pub const FRAME_LEN: usize = ETH_HDR_LEN + IP_HDR_LEN + TCP_HDR_LEN;
/// Total length of the IPv6 TCP probe frames this crate builds.
pub const FRAME_LEN_V6: usize = ETH_HDR_LEN + IPV6_HDR_LEN + TCP_HDR_LEN;
/// The longest frame any codec in this module emits (the IPv6 TCP SYN);
/// sizes the fixed storage of [`FrameBuf`] and [`SynTemplate`].
pub const MAX_FRAME_LEN: usize = FRAME_LEN_V6;

/// The per-family half of the codec: ethertype, network-header layout,
/// and the pseudo-header checksum. Everything else — Ethernet framing,
/// the TCP header, validation order — is shared, so the IPv4 byte stream
/// is exactly the pre-generic codec's and IPv6 differs only in the
/// 40-byte header in the middle.
pub trait WireFamily: AddrFamily {
    /// EtherType of the family (`0x0800` / `0x86DD`).
    const ETHERTYPE: u16;
    /// Total probe frame length (Ethernet + minimal IP + TCP).
    const TCP_FRAME_LEN: usize;
    /// The error reported when the ethertype belongs to another family.
    const WRONG_ETHERTYPE: WireError;
    /// Network header length (20 for v4, 40 for v6).
    const NET_HDR_LEN: usize;
    /// Offset of the header checksum within the network header, if the
    /// family has one (v4: 10; v6: none — RFC 2460 dropped it).
    const NET_CSUM_OFF: Option<usize>;
    /// Offset of the destination address within the network header
    /// (v4: 16; v6: 24) — the one address field a probe template patches.
    const DST_ADDR_OFF: usize;

    /// Write the family's network header for a TCP payload of `tcp_len`
    /// bytes into `out` (exactly [`Self::NET_HDR_LEN`] bytes,
    /// checksummed in place where the family has a header checksum).
    fn write_net_header(out: &mut [u8], spec: &FrameSpec<Self>, tcp_len: usize);

    /// Parse and validate the network header at the start of `ip`
    /// (everything after the Ethernet header). Returns
    /// `(header_len, ttl/hop-limit, src, dst)`.
    fn parse_net_header(ip: &[u8]) -> Result<(usize, u8, Self::Addr, Self::Addr), WireError>;

    /// Upper-layer checksum over the family's pseudo-header (RFC 793 for
    /// v4, RFC 2460 §8.1 for v6) followed by the segment. Computed
    /// word-wise from the parts — the pseudo-header is never
    /// materialised, so this allocates nothing.
    fn transport_checksum(src: Self::Addr, dst: Self::Addr, proto: u8, segment: &[u8]) -> u16 {
        checksum_finish(
            Self::addr_csum(src)
                + Self::addr_csum(dst)
                + u32::from(proto)
                + len_words(segment.len())
                + checksum_add(segment),
        )
    }

    /// The one's-complement word sum of an address in network byte
    /// order — its contribution to any checksum covering it.
    fn addr_csum(addr: Self::Addr) -> u32;

    /// Write an address in network byte order at the start of `out`.
    fn write_addr_be(out: &mut [u8], addr: Self::Addr);

    /// The little-endian byte array of one address (`[u8; 4]` / `[u8; 16]`).
    type AddrBytes: AsRef<[u8]> + Copy;

    /// The address as little-endian bytes — the form hashed for
    /// stateless validation state and responder ISNs, stack-allocated
    /// (this sits on the per-probe hot path). v4 keeps the pre-generic
    /// 4-byte form so all derived values are bit-identical.
    fn addr_bytes_le(addr: Self::Addr) -> Self::AddrBytes;
}

/// A parsed (Ethernet+IP+TCP) frame, borrowing nothing: all fields copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFrame<F: WireFamily = V4> {
    /// Destination MAC.
    pub eth_dst: [u8; 6],
    /// Source MAC.
    pub eth_src: [u8; 6],
    /// IPv4 TTL / IPv6 hop limit.
    pub ttl: u8,
    /// Source address (host order).
    pub src_ip: F::Addr,
    /// Destination address (host order).
    pub dst_ip: F::Addr,
    /// TCP source port.
    pub src_port: u16,
    /// TCP destination port.
    pub dst_port: u16,
    /// TCP sequence number.
    pub seq: u32,
    /// TCP acknowledgement number.
    pub ack: u32,
    /// TCP flags byte.
    pub flags: u8,
    /// TCP window.
    pub window: u16,
}

/// One's-complement sum of big-endian 16-bit words (odd lengths padded),
/// left unfolded. The sum is associative and commutative, so partial
/// sums over disjoint (even-offset) parts can be precomputed and added —
/// the foundation of [`SynTemplate`]'s incremental checksums.
fn checksum_add(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold a one's-complement word sum to 16 bits and complement it.
fn checksum_finish(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// The one's-complement contribution of a length field: a 32-bit value
/// summed as two 16-bit words (for v4's 16-bit length the high word is
/// zero, so the formula is shared by both pseudo-headers).
fn len_words(len: usize) -> u32 {
    let l = len as u32;
    (l >> 16) + (l & 0xFFFF)
}

/// RFC 1071 Internet checksum over a byte slice (odd lengths padded).
pub fn internet_checksum(data: &[u8]) -> u16 {
    checksum_finish(checksum_add(data))
}

/// TCP checksum over pseudo-header + segment (RFC 793). IPv4 form.
pub fn tcp_checksum(src_ip: u32, dst_ip: u32, segment: &[u8]) -> u16 {
    V4::transport_checksum(src_ip, dst_ip, 6, segment)
}

/// TCP checksum over the IPv6 pseudo-header + segment (RFC 2460 §8.1).
pub fn tcp_checksum_v6(src_ip: u128, dst_ip: u128, segment: &[u8]) -> u16 {
    V6::transport_checksum(src_ip, dst_ip, 6, segment)
}

/// Parameters for building a TCP frame.
#[derive(Debug, Clone, Copy)]
pub struct FrameSpec<F: WireFamily = V4> {
    /// Destination MAC (the simulated gateway).
    pub eth_dst: [u8; 6],
    /// Source MAC.
    pub eth_src: [u8; 6],
    /// IPv4 TTL / IPv6 hop limit (ZMap uses 255 by default).
    pub ttl: u8,
    /// Source address (host order).
    pub src_ip: F::Addr,
    /// Destination address (host order).
    pub dst_ip: F::Addr,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags byte (see [`tcp_flags`]).
    pub flags: u8,
    /// Advertised window.
    pub window: u16,
    /// IPv4 identification field; unused by IPv6 (whose header has no
    /// identification — the flow label is built as zero).
    pub ip_id: u16,
}

impl<F: WireFamily> Default for FrameSpec<F> {
    fn default() -> Self {
        FrameSpec {
            eth_dst: [0x02, 0, 0, 0, 0, 0x01],
            eth_src: [0x02, 0, 0, 0, 0, 0x02],
            ttl: 255,
            src_ip: F::Addr::default(),
            dst_ip: F::Addr::default(),
            src_port: 0,
            dst_port: 0,
            seq: 0,
            ack: 0,
            flags: tcp_flags::SYN,
            window: 65535,
            ip_id: 54321,
        }
    }
}

impl WireFamily for V4 {
    const ETHERTYPE: u16 = 0x0800;
    const TCP_FRAME_LEN: usize = FRAME_LEN;
    const WRONG_ETHERTYPE: WireError = WireError::NotIpv4;
    const NET_HDR_LEN: usize = IP_HDR_LEN;
    const NET_CSUM_OFF: Option<usize> = Some(10);
    const DST_ADDR_OFF: usize = 16;

    fn write_net_header(out: &mut [u8], spec: &FrameSpec<V4>, tcp_len: usize) {
        out[0] = 0x45; // version 4, IHL 5
        out[1] = 0; // DSCP/ECN
        out[2..4].copy_from_slice(&((IP_HDR_LEN + tcp_len) as u16).to_be_bytes());
        out[4..6].copy_from_slice(&spec.ip_id.to_be_bytes());
        out[6..8].copy_from_slice(&[0, 0]); // flags+fragment offset
        out[8] = spec.ttl;
        out[9] = 6; // TCP
        out[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        out[12..16].copy_from_slice(&spec.src_ip.to_be_bytes());
        out[16..20].copy_from_slice(&spec.dst_ip.to_be_bytes());
        let ip_csum = internet_checksum(&out[..IP_HDR_LEN]);
        out[10..12].copy_from_slice(&ip_csum.to_be_bytes());
    }

    fn parse_net_header(ip: &[u8]) -> Result<(usize, u8, u32, u32), WireError> {
        if ip[0] >> 4 != 4 || (ip[0] & 0x0F) < 5 {
            return Err(WireError::BadIpHeader);
        }
        let ihl = usize::from(ip[0] & 0x0F) * 4;
        if ip.len() < ihl + TCP_HDR_LEN {
            return Err(WireError::Truncated);
        }
        if internet_checksum(&ip[..ihl]) != 0 {
            return Err(WireError::BadIpChecksum);
        }
        if ip[9] != 6 {
            return Err(WireError::NotTcp);
        }
        let src = u32::from_be_bytes(ip[12..16].try_into().expect("4 bytes"));
        let dst = u32::from_be_bytes(ip[16..20].try_into().expect("4 bytes"));
        Ok((ihl, ip[8], src, dst))
    }

    fn addr_csum(addr: u32) -> u32 {
        (addr >> 16) + (addr & 0xFFFF)
    }

    fn write_addr_be(out: &mut [u8], addr: u32) {
        out[..4].copy_from_slice(&addr.to_be_bytes());
    }

    type AddrBytes = [u8; 4];

    fn addr_bytes_le(addr: u32) -> [u8; 4] {
        addr.to_le_bytes()
    }
}

impl WireFamily for V6 {
    const ETHERTYPE: u16 = 0x86DD;
    const TCP_FRAME_LEN: usize = FRAME_LEN_V6;
    const WRONG_ETHERTYPE: WireError = WireError::NotIpv6;
    const NET_HDR_LEN: usize = IPV6_HDR_LEN;
    const NET_CSUM_OFF: Option<usize> = None;
    const DST_ADDR_OFF: usize = 24;

    fn write_net_header(out: &mut [u8], spec: &FrameSpec<V6>, tcp_len: usize) {
        out[0..4].copy_from_slice(&(6u32 << 28).to_be_bytes()); // version 6, tc 0, flow 0
        out[4..6].copy_from_slice(&(tcp_len as u16).to_be_bytes());
        out[6] = 6; // next header TCP
        out[7] = spec.ttl;
        out[8..24].copy_from_slice(&spec.src_ip.to_be_bytes());
        out[24..40].copy_from_slice(&spec.dst_ip.to_be_bytes());
    }

    // IPv6 has no header checksum; the payload-length field is the only
    // integrity cross-check the header itself offers, so the frame is
    // held to it exactly (our frames carry no trailing padding).
    fn parse_net_header(ip: &[u8]) -> Result<(usize, u8, u128, u128), WireError> {
        if ip[0] >> 4 != 6 {
            return Err(WireError::BadIpHeader);
        }
        let payload_len = usize::from(u16::from_be_bytes([ip[4], ip[5]]));
        if ip.len() != IPV6_HDR_LEN + payload_len {
            return Err(WireError::BadIpHeader);
        }
        if ip[6] != 6 {
            return Err(WireError::NotTcp);
        }
        let src = u128::from_be_bytes(ip[8..24].try_into().expect("16 bytes"));
        let dst = u128::from_be_bytes(ip[24..40].try_into().expect("16 bytes"));
        Ok((IPV6_HDR_LEN, ip[7], src, dst))
    }

    fn addr_csum(addr: u128) -> u32 {
        let mut sum = 0u32;
        for shift in [112, 96, 80, 64, 48, 32, 16, 0] {
            sum += ((addr >> shift) & 0xFFFF) as u32;
        }
        sum
    }

    fn write_addr_be(out: &mut [u8], addr: u128) {
        out[..16].copy_from_slice(&addr.to_be_bytes());
    }

    type AddrBytes = [u8; 16];

    fn addr_bytes_le(addr: u128) -> [u8; 16] {
        addr.to_le_bytes()
    }
}

/// Encode a checksummed Ethernet+IP+TCP frame from a spec into the
/// start of `out` (which must hold at least
/// [`WireFamily::TCP_FRAME_LEN`] bytes). Returns the frame length. The
/// IPv4 byte stream is identical to the pre-generic codec's.
pub fn encode_frame_into<F: WireFamily>(spec: &FrameSpec<F>, out: &mut [u8]) -> usize {
    // Ethernet
    out[0..6].copy_from_slice(&spec.eth_dst);
    out[6..12].copy_from_slice(&spec.eth_src);
    out[12..14].copy_from_slice(&F::ETHERTYPE.to_be_bytes());
    // IP
    F::write_net_header(
        &mut out[ETH_HDR_LEN..ETH_HDR_LEN + F::NET_HDR_LEN],
        spec,
        TCP_HDR_LEN,
    );
    // TCP
    let t = ETH_HDR_LEN + F::NET_HDR_LEN;
    let tcp = &mut out[t..t + TCP_HDR_LEN];
    tcp[0..2].copy_from_slice(&spec.src_port.to_be_bytes());
    tcp[2..4].copy_from_slice(&spec.dst_port.to_be_bytes());
    tcp[4..8].copy_from_slice(&spec.seq.to_be_bytes());
    tcp[8..12].copy_from_slice(&spec.ack.to_be_bytes());
    tcp[12] = 0x50; // data offset 5, reserved 0
    tcp[13] = spec.flags;
    tcp[14..16].copy_from_slice(&spec.window.to_be_bytes());
    tcp[16..18].copy_from_slice(&[0, 0]); // checksum placeholder
    tcp[18..20].copy_from_slice(&[0, 0]); // urgent pointer
    let tcp_csum = F::transport_checksum(spec.src_ip, spec.dst_ip, 6, &out[t..t + TCP_HDR_LEN]);
    out[t + 16..t + 18].copy_from_slice(&tcp_csum.to_be_bytes());
    F::TCP_FRAME_LEN
}

/// Build a checksummed Ethernet+IP+TCP frame from a spec, in the spec's
/// family, as freshly allocated [`Bytes`]. Convenience wrapper over
/// [`encode_frame_into`] for tests and one-off frames; the hot path
/// uses [`SynTemplate`] / [`FrameBuf`] instead.
pub fn build_frame<F: WireFamily>(spec: &FrameSpec<F>) -> Bytes {
    let mut buf = [0u8; MAX_FRAME_LEN];
    let len = encode_frame_into(spec, &mut buf);
    Bytes::copy_from_slice(&buf[..len])
}

/// One frame in fixed stack storage: `MAX_FRAME_LEN` bytes plus a
/// length. `Copy`, heap-free, and `Deref<Target = [u8]>` — the reply
/// currency of the simulated network's allocation-free receive path.
#[derive(Debug, Clone, Copy)]
pub struct FrameBuf {
    buf: [u8; MAX_FRAME_LEN],
    len: u8,
}

impl FrameBuf {
    /// Encode `spec` into a fresh `FrameBuf`.
    pub fn encode<F: WireFamily>(spec: &FrameSpec<F>) -> FrameBuf {
        let mut buf = [0u8; MAX_FRAME_LEN];
        let len = encode_frame_into(spec, &mut buf);
        FrameBuf {
            buf,
            len: len as u8,
        }
    }

    /// Copy an already-encoded frame (at most `MAX_FRAME_LEN` bytes).
    pub fn from_slice(frame: &[u8]) -> FrameBuf {
        let mut buf = [0u8; MAX_FRAME_LEN];
        buf[..frame.len()].copy_from_slice(frame);
        FrameBuf {
            buf,
            len: frame.len() as u8,
        }
    }

    /// The encoded frame bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }
}

impl std::ops::Deref for FrameBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// A reusable SYN probe frame with incremental checksum updates.
///
/// Constructed once per worker from the scan's fixed parameters
/// (source address, destination port, MACs, TTL), then retargeted per
/// probe with [`set_target`](SynTemplate::set_target), which rewrites
/// only the destination address, source port, and sequence number and
/// folds just those words into the precomputed constant checksum sums.
/// The resulting bytes are identical to a full [`encode_frame_into`] of
/// the same spec: the RFC 1071 sum is associative and commutative, and
/// every patched field sits at an even offset, so constant-part +
/// delta-part word sums partition the full sum exactly.
#[derive(Debug, Clone, Copy)]
pub struct SynTemplate<F: WireFamily> {
    buf: [u8; MAX_FRAME_LEN],
    /// Word sum of the network header with the destination address and
    /// header checksum zeroed (v4 only consults it; v6 has no header
    /// checksum).
    net_const_sum: u32,
    /// Word sum of pseudo-header + TCP header with destination address,
    /// source port, sequence number, and checksum zeroed.
    tcp_const_sum: u32,
    _family: PhantomData<F>,
}

impl<F: WireFamily> SynTemplate<F> {
    /// Build the template. `spec`'s `dst_ip`, `src_port`, and `seq` are
    /// ignored — they are per-probe and set by
    /// [`set_target`](SynTemplate::set_target).
    pub fn new(spec: &FrameSpec<F>) -> SynTemplate<F> {
        let mut zeroed = *spec;
        zeroed.dst_ip = F::Addr::default();
        zeroed.src_port = 0;
        zeroed.seq = 0;
        let mut buf = [0u8; MAX_FRAME_LEN];
        encode_frame_into(&zeroed, &mut buf);
        let t = ETH_HDR_LEN + F::NET_HDR_LEN;
        // zero the checksum fields so the constant sums exclude them —
        // set_target recomputes both from the sums
        if let Some(off) = F::NET_CSUM_OFF {
            buf[ETH_HDR_LEN + off] = 0;
            buf[ETH_HDR_LEN + off + 1] = 0;
        }
        buf[t + 16] = 0;
        buf[t + 17] = 0;
        // the zeroed dst/src_port/seq fields contribute 0 to both sums
        let net_const_sum = checksum_add(&buf[ETH_HDR_LEN..t]);
        let tcp_const_sum = F::addr_csum(spec.src_ip)
            + 6
            + len_words(TCP_HDR_LEN)
            + checksum_add(&buf[t..t + TCP_HDR_LEN]);
        SynTemplate {
            buf,
            net_const_sum,
            tcp_const_sum,
            _family: PhantomData,
        }
    }

    /// Retarget the probe: patch destination address, source port, and
    /// sequence number, then refresh both checksums incrementally.
    pub fn set_target(&mut self, dst_ip: F::Addr, src_port: u16, seq: u32) {
        let t = ETH_HDR_LEN + F::NET_HDR_LEN;
        F::write_addr_be(&mut self.buf[ETH_HDR_LEN + F::DST_ADDR_OFF..], dst_ip);
        self.buf[t..t + 2].copy_from_slice(&src_port.to_be_bytes());
        self.buf[t + 4..t + 8].copy_from_slice(&seq.to_be_bytes());
        let dst_sum = F::addr_csum(dst_ip);
        if let Some(off) = F::NET_CSUM_OFF {
            let csum = checksum_finish(self.net_const_sum + dst_sum);
            self.buf[ETH_HDR_LEN + off..ETH_HDR_LEN + off + 2].copy_from_slice(&csum.to_be_bytes());
        }
        let delta = dst_sum + u32::from(src_port) + (seq >> 16) + (seq & 0xFFFF);
        let tcp_csum = checksum_finish(self.tcp_const_sum + delta);
        self.buf[t + 16..t + 18].copy_from_slice(&tcp_csum.to_be_bytes());
    }

    /// The current frame bytes ([`WireFamily::TCP_FRAME_LEN`] long).
    pub fn frame(&self) -> &[u8] {
        &self.buf[..F::TCP_FRAME_LEN]
    }
}

/// Build an IPv4 TCP SYN probe (the scanner's packet).
pub fn build_syn(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, seq: u32) -> Bytes {
    build_syn_for::<V4>(src_ip, dst_ip, src_port, dst_port, seq)
}

/// Build an IPv6 TCP SYN probe (74 bytes).
pub fn build_syn_v6(src_ip: u128, dst_ip: u128, src_port: u16, dst_port: u16, seq: u32) -> Bytes {
    build_syn_for::<V6>(src_ip, dst_ip, src_port, dst_port, seq)
}

/// Build a TCP SYN probe in any wire family.
pub fn build_syn_for<F: WireFamily>(
    src_ip: F::Addr,
    dst_ip: F::Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
) -> Bytes {
    build_frame(&FrameSpec::<F> {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        seq,
        flags: tcp_flags::SYN,
        ..FrameSpec::default()
    })
}

/// The spec of a SYN-ACK answering a parsed SYN: endpoints swapped,
/// `server_isn` as the sequence number, probe seq + 1 acknowledged.
pub fn syn_ack_spec<F: WireFamily>(probe: &TcpFrame<F>, server_isn: u32) -> FrameSpec<F> {
    FrameSpec {
        eth_dst: probe.eth_src,
        eth_src: probe.eth_dst,
        src_ip: probe.dst_ip,
        dst_ip: probe.src_ip,
        src_port: probe.dst_port,
        dst_port: probe.src_port,
        seq: server_isn,
        ack: probe.seq.wrapping_add(1),
        flags: tcp_flags::SYN | tcp_flags::ACK,
        ttl: 64,
        ..FrameSpec::default()
    }
}

/// The spec of a RST answering a parsed SYN (closed port).
pub fn rst_spec<F: WireFamily>(probe: &TcpFrame<F>) -> FrameSpec<F> {
    FrameSpec {
        eth_dst: probe.eth_src,
        eth_src: probe.eth_dst,
        src_ip: probe.dst_ip,
        dst_ip: probe.src_ip,
        src_port: probe.dst_port,
        dst_port: probe.src_port,
        seq: 0,
        ack: probe.seq.wrapping_add(1),
        flags: tcp_flags::RST | tcp_flags::ACK,
        ttl: 64,
        ..FrameSpec::default()
    }
}

/// Parse and validate an IPv4 frame (checksums verified).
pub fn parse_frame(frame: &[u8]) -> Result<TcpFrame, WireError> {
    parse_frame_for::<V4>(frame)
}

/// Parse and validate an IPv6 frame (TCP checksum over the v6
/// pseudo-header verified).
pub fn parse_frame_v6(frame: &[u8]) -> Result<TcpFrame<V6>, WireError> {
    parse_frame_for::<V6>(frame)
}

/// Parse and validate a frame in any wire family. A frame of the other
/// family is rejected at the ethertype ([`WireFamily::WRONG_ETHERTYPE`]).
pub fn parse_frame_for<F: WireFamily>(frame: &[u8]) -> Result<TcpFrame<F>, WireError> {
    if frame.len() < F::TCP_FRAME_LEN {
        return Err(WireError::Truncated);
    }
    let eth_dst: [u8; 6] = frame[0..6].try_into().expect("6 bytes");
    let eth_src: [u8; 6] = frame[6..12].try_into().expect("6 bytes");
    let ethertype = u16::from_be_bytes([frame[12], frame[13]]);
    if ethertype != F::ETHERTYPE {
        return Err(F::WRONG_ETHERTYPE);
    }
    let ip = &frame[ETH_HDR_LEN..];
    let (hdr_len, ttl, src_ip, dst_ip) = F::parse_net_header(ip)?;
    let tcp = &frame[ETH_HDR_LEN + hdr_len..];
    // verify the TCP checksum over the whole remaining segment
    if F::transport_checksum(src_ip, dst_ip, 6, tcp) != 0 {
        return Err(WireError::BadTcpChecksum);
    }
    Ok(TcpFrame {
        eth_dst,
        eth_src,
        ttl,
        src_ip,
        dst_ip,
        src_port: u16::from_be_bytes([tcp[0], tcp[1]]),
        dst_port: u16::from_be_bytes([tcp[2], tcp[3]]),
        seq: u32::from_be_bytes(tcp[4..8].try_into().expect("4 bytes")),
        ack: u32::from_be_bytes(tcp[8..12].try_into().expect("4 bytes")),
        flags: tcp[13],
        window: u16::from_be_bytes([tcp[14], tcp[15]]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_style_checksum() {
        // Classic worked example: checksum of 00 01 f2 03 f4 f5 f6 f7
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> 0xddf2 ->
        // complement 0x220d
        assert_eq!(internet_checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_odd_length_pads_zero() {
        assert_eq!(internet_checksum(&[0xFF]), !0xFF00u16);
    }

    #[test]
    fn checksum_of_zeroes_is_ffff() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
    }

    #[test]
    fn build_parse_roundtrip() {
        let syn = build_syn(0x0A000001, 0xC0A80001, 40000, 443, 0xDEADBEEF);
        assert_eq!(syn.len(), FRAME_LEN);
        let f = parse_frame(&syn).unwrap();
        assert_eq!(f.src_ip, 0x0A000001);
        assert_eq!(f.dst_ip, 0xC0A80001);
        assert_eq!(f.src_port, 40000);
        assert_eq!(f.dst_port, 443);
        assert_eq!(f.seq, 0xDEADBEEF);
        assert_eq!(f.flags, tcp_flags::SYN);
        assert_eq!(f.ttl, 255);
    }

    #[test]
    fn v6_build_parse_roundtrip() {
        let src = (0x2001_0db8u128 << 96) | 1;
        let dst = (0x2600u128 << 112) | 0xBEEF;
        let syn = build_syn_v6(src, dst, 40000, 443, 0xDEADBEEF);
        assert_eq!(syn.len(), FRAME_LEN_V6);
        let f = parse_frame_v6(&syn).unwrap();
        assert_eq!(f.src_ip, src);
        assert_eq!(f.dst_ip, dst);
        assert_eq!(f.src_port, 40000);
        assert_eq!(f.dst_port, 443);
        assert_eq!(f.seq, 0xDEADBEEF);
        assert_eq!(f.flags, tcp_flags::SYN);
        assert_eq!(f.ttl, 255, "hop limit");
    }

    #[test]
    fn v6_layout_is_rfc2460() {
        let syn = build_syn_v6(7, 9, 1, 2, 3);
        // ethertype
        assert_eq!(&syn[12..14], &[0x86, 0xDD]);
        let ip = &syn[ETH_HDR_LEN..];
        assert_eq!(ip[0] >> 4, 6, "version");
        assert_eq!(
            u16::from_be_bytes([ip[4], ip[5]]),
            TCP_HDR_LEN as u16,
            "payload length"
        );
        assert_eq!(ip[6], 6, "next header TCP");
        assert_eq!(ip[7], 255, "hop limit");
        assert_eq!(u128::from_be_bytes(ip[8..24].try_into().unwrap()), 7);
        assert_eq!(u128::from_be_bytes(ip[24..40].try_into().unwrap()), 9);
        // the TCP segment checksums to zero over the v6 pseudo-header
        assert_eq!(tcp_checksum_v6(7, 9, &ip[IPV6_HDR_LEN..]), 0);
    }

    #[test]
    fn syn_ack_swaps_endpoints_and_acks() {
        let syn = build_syn(1, 2, 3, 4, 100);
        let probe = parse_frame(&syn).unwrap();
        let sa = build_frame(&syn_ack_spec(&probe, 5555));
        let f = parse_frame(&sa).unwrap();
        assert_eq!(f.src_ip, 2);
        assert_eq!(f.dst_ip, 1);
        assert_eq!(f.src_port, 4);
        assert_eq!(f.dst_port, 3);
        assert_eq!(f.seq, 5555);
        assert_eq!(f.ack, 101);
        assert_eq!(f.flags, tcp_flags::SYN | tcp_flags::ACK);
        assert_eq!(f.eth_dst, probe.eth_src);
    }

    #[test]
    fn v6_syn_ack_and_rst_swap_endpoints() {
        let syn = build_syn_v6(1, 2, 3, 4, 100);
        let probe = parse_frame_v6(&syn).unwrap();
        let sa = build_frame(&syn_ack_spec(&probe, 5555));
        let f = parse_frame_v6(&sa).unwrap();
        assert_eq!(f.src_ip, 2);
        assert_eq!(f.dst_ip, 1);
        assert_eq!(f.seq, 5555);
        assert_eq!(f.ack, 101);
        assert_eq!(f.flags, tcp_flags::SYN | tcp_flags::ACK);
        let rst = build_frame(&rst_spec(&probe));
        let r = parse_frame_v6(&rst).unwrap();
        assert_eq!(r.flags, tcp_flags::RST | tcp_flags::ACK);
    }

    #[test]
    fn rst_answer() {
        let syn = build_syn(1, 2, 3, 4, u32::MAX);
        let probe = parse_frame(&syn).unwrap();
        let rst = build_frame(&rst_spec(&probe));
        let f = parse_frame(&rst).unwrap();
        assert_eq!(f.flags, tcp_flags::RST | tcp_flags::ACK);
        assert_eq!(f.ack, 0, "seq u32::MAX + 1 wraps to 0");
    }

    #[test]
    fn parse_rejects_corruption() {
        let syn = build_syn(0x01020304, 0x05060708, 1000, 80, 42);
        // truncation
        assert_eq!(parse_frame(&syn[..10]), Err(WireError::Truncated));
        // wrong ethertype
        let mut bad = syn.to_vec();
        bad[12] = 0x86;
        bad[13] = 0xDD; // IPv6
        assert_eq!(parse_frame(&bad), Err(WireError::NotIpv4));
        // IP version
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN] = 0x65;
        assert_eq!(parse_frame(&bad), Err(WireError::BadIpHeader));
        // flip a bit in the IP header -> checksum fails
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN + 8] ^= 0xFF; // ttl
        assert_eq!(parse_frame(&bad), Err(WireError::BadIpChecksum));
        // flip a TCP payload bit -> TCP checksum fails
        let mut bad = syn.to_vec();
        bad[FRAME_LEN - 3] ^= 0x01; // window low byte
        assert_eq!(parse_frame(&bad), Err(WireError::BadTcpChecksum));
        // non-TCP protocol (fix IP checksum accordingly)
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN + 9] = 17; // UDP
        bad[ETH_HDR_LEN + 10] = 0;
        bad[ETH_HDR_LEN + 11] = 0;
        let csum = internet_checksum(&bad[ETH_HDR_LEN..ETH_HDR_LEN + IP_HDR_LEN]);
        bad[ETH_HDR_LEN + 10..ETH_HDR_LEN + 12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(parse_frame(&bad), Err(WireError::NotTcp));
    }

    #[test]
    fn v6_parse_rejects_corruption() {
        let syn = build_syn_v6(0x0102, 0x0506, 1000, 80, 42);
        assert_eq!(parse_frame_v6(&syn[..20]), Err(WireError::Truncated));
        // version nibble
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN] = 0x45;
        assert_eq!(parse_frame_v6(&bad), Err(WireError::BadIpHeader));
        // payload length inconsistent with the frame
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN + 5] ^= 0x01;
        assert_eq!(parse_frame_v6(&bad), Err(WireError::BadIpHeader));
        // next header not TCP
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN + 6] = 17; // UDP
        assert_eq!(parse_frame_v6(&bad), Err(WireError::NotTcp));
        // flip an address bit -> pseudo-header checksum fails
        let mut bad = syn.to_vec();
        bad[ETH_HDR_LEN + 20] ^= 0x01;
        assert_eq!(parse_frame_v6(&bad), Err(WireError::BadTcpChecksum));
        // flip a TCP field bit
        let mut bad = syn.to_vec();
        bad[FRAME_LEN_V6 - 3] ^= 0x01; // window low byte
        assert_eq!(parse_frame_v6(&bad), Err(WireError::BadTcpChecksum));
    }

    #[test]
    fn cross_family_frames_are_rejected_at_the_ethertype() {
        let v4 = build_syn(1, 2, 3, 4, 5);
        // a v4 frame padded to v6 length still fails the ethertype check
        let mut padded = v4.to_vec();
        padded.resize(FRAME_LEN_V6, 0);
        assert_eq!(parse_frame_v6(&padded), Err(WireError::NotIpv6));
        let v6 = build_syn_v6(1, 2, 3, 4, 5);
        assert_eq!(parse_frame(&v6), Err(WireError::NotIpv4));
    }

    #[test]
    fn ip_and_tcp_checksums_self_verify() {
        let syn = build_syn(0xAABBCCDD, 0x11223344, 55555, 7547, 7);
        let ip = &syn[ETH_HDR_LEN..ETH_HDR_LEN + IP_HDR_LEN];
        assert_eq!(internet_checksum(ip), 0, "IP header must checksum to 0");
        let tcp = &syn[ETH_HDR_LEN + IP_HDR_LEN..];
        assert_eq!(
            tcp_checksum(0xAABBCCDD, 0x11223344, tcp),
            0,
            "TCP segment must checksum to 0 over pseudo-header"
        );
    }

    /// The template's incrementally-checksummed frame must be
    /// byte-identical to a full encode of the same spec, across
    /// retargets — including checksum values that need extra folding.
    fn assert_template_matches_full_encode<F: WireFamily>(
        spec: &FrameSpec<F>,
        targets: &[(F::Addr, u16, u32)],
    ) {
        let mut tmpl = SynTemplate::new(spec);
        for &(dst_ip, src_port, seq) in targets {
            tmpl.set_target(dst_ip, src_port, seq);
            let full = build_frame(&FrameSpec {
                dst_ip,
                src_port,
                seq,
                ..*spec
            });
            assert_eq!(
                tmpl.frame(),
                &full[..],
                "template diverged from full encode"
            );
        }
    }

    #[test]
    fn v4_template_is_byte_identical_to_full_encode() {
        let spec = FrameSpec::<V4> {
            src_ip: 0x0A00_0001,
            dst_port: 443,
            ..FrameSpec::default()
        };
        assert_template_matches_full_encode(
            &spec,
            &[
                (0xC0A8_0001, 40000, 0xDEADBEEF),
                (0, 32768, 0),
                (u32::MAX, 60999, u32::MAX),
                (0xC0A8_0001, 40000, 0xDEADBEEF), // retarget back
                (0x0808_0808, 50123, 1),
            ],
        );
    }

    #[test]
    fn v6_template_is_byte_identical_to_full_encode() {
        let spec = FrameSpec::<V6> {
            src_ip: (0x2001_0db8u128 << 96) | 1,
            dst_port: 443,
            ..FrameSpec::default()
        };
        assert_template_matches_full_encode(
            &spec,
            &[
                ((0x2600u128 << 112) | 0xBEEF, 40000, 0xDEADBEEF),
                (0, 32768, 0),
                (u128::MAX, 60999, u32::MAX),
                (1, 50123, 7),
            ],
        );
    }

    #[test]
    fn template_frames_parse_and_validate() {
        let mut tmpl = SynTemplate::new(&FrameSpec::<V4> {
            src_ip: 0x0A00_0001,
            dst_port: 80,
            ..FrameSpec::default()
        });
        tmpl.set_target(0xC0A8_0001, 40000, 77);
        let f = parse_frame(tmpl.frame()).unwrap();
        assert_eq!(f.dst_ip, 0xC0A8_0001);
        assert_eq!(f.src_port, 40000);
        assert_eq!(f.seq, 77);
        assert_eq!(f.dst_port, 80);
    }

    #[test]
    fn framebuf_roundtrips_both_families() {
        let spec = FrameSpec::<V4> {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            seq: 5,
            ..FrameSpec::default()
        };
        let fb = FrameBuf::encode(&spec);
        assert_eq!(fb.len(), FRAME_LEN);
        assert_eq!(&*fb, &build_frame(&spec)[..]);
        let spec6 = FrameSpec::<V6> {
            src_ip: 1,
            dst_ip: 2,
            src_port: 3,
            dst_port: 4,
            seq: 5,
            ..FrameSpec::default()
        };
        let fb6 = FrameBuf::encode(&spec6);
        assert_eq!(fb6.len(), FRAME_LEN_V6);
        assert_eq!(&*fb6, &build_frame(&spec6)[..]);
        let copied = FrameBuf::from_slice(&fb6);
        assert_eq!(&*copied, &*fb6);
    }

    #[test]
    fn error_display() {
        for e in [
            WireError::Truncated,
            WireError::NotIpv4,
            WireError::NotIpv6,
            WireError::BadIpHeader,
            WireError::BadIpChecksum,
            WireError::NotTcp,
            WireError::BadTcpChecksum,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
