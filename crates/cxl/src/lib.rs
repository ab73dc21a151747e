//! CXL.mem protocol model for the SkyByte CXL-SSD.
//!
//! The host CPU accesses the SSD as a Type-3 device through CXL.mem: reads are
//! `MemRd` master-to-slave requests answered either by a `MemData` response
//! carrying the cacheline or by a *No Data Response* (NDR). SkyByte extends
//! the NDR opcode space with `SkyByte-Delay` (Figure 8): when the SSD
//! controller predicts a long access delay it completes the transaction with
//! this opcode, and the host turns it into a *Long Delay Exception* that lets
//! the OS context-switch the blocked thread (Figure 7).
//!
//! This crate provides [`port`], the link/protocol timing model (40 ns
//! protocol latency, PCIe 5.0 ×4 bandwidth). The simulator carries the
//! `SkyByte-Delay` completion as a `delay_hint` flag on the SSD access
//! outcome rather than as an encoded NDR message.
//!
//! Page promotions (§III-C) use the same port: a promoted page's 4 KiB copy
//! occupies link bandwidth like any other payload, and the page is
//! host-readable as soon as the promotion returns. No copy latency is
//! charged, so there is no in-flight window for a Promotion Look-aside
//! Buffer to cover, and none is modelled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod port;

pub use port::{CxlPort, CxlPortStats};
