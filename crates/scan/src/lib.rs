//! # tass-scan — ZMap-style scanner simulator substrate
//!
//! The paper's measurements were taken with ZMap-class Internet-wide
//! scanners feeding censys.io. This crate reproduces that instrument as a
//! packet-level simulation so the TASS pipeline can be exercised end to
//! end — permutation, probing, validation, rate control, banner grabs —
//! without sending a single real packet:
//!
//! * [`siphash`] — SipHash-2-4, used (as in ZMap) to derive probe
//!   validation state from the destination address so the scanner stays
//!   stateless;
//! * [`wire`] — family-parameterised Ethernet/IP/TCP codecs with real
//!   header checksums (54-byte v4 and 74-byte v6 TCP-SYN frames); the
//!   simulated network parses and validates actual frames;
//! * [`rate`] — token-bucket rate limiting on a virtual clock, so scan
//!   duration is simulated (packets / rate), not wall-clock;
//! * [`blocklist`] — CIDR exclusion lists per family (the IANA
//!   special-purpose registries are blocked by default, as any
//!   responsible scanner must);
//! * [`net`] — the simulated network with smoltcp-style fault injection
//!   (loss, duplication);
//! * [`responder`] — answers SYNs and banner requests from ground-truth
//!   host sets;
//! * [`engine`] — the multi-threaded scan engine tying it all together.
//!
//! ZMap's cyclic address permutation lives in [`tass_net::cyclic`]
//! (shared with the streaming probe-plan iterators); the engine consumes
//! it through plan streams.
//!
//! The whole substrate is generic over the address family
//! ([`engine::ScanFamily`]): `ScanEngine` written bare is the IPv4
//! engine (wire frames, blocklist, permutation — the pre-generic
//! behaviour exactly), and `ScanEngine<V6>` performs the same per-probe
//! work at 128 bits — encoded/checksummed v6 frames, the v6 IANA
//! blocklist, streaming/sharding/validation/dedup all shared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocklist;
pub mod engine;
pub mod net;
pub mod rate;
pub mod responder;
pub mod siphash;
pub mod wire;

pub use blocklist::{Blocklist, BlocklistParseError};
pub use engine::{ScanConfig, ScanEngine, ScanFamily, ScanReport, WireReplies};
pub use net::{FaultConfig, LogicalReply, NetStats, Replies, SimNetwork};
pub use responder::{Responder, Verdict};
pub use wire::{FrameBuf, SynTemplate, WireFamily};
