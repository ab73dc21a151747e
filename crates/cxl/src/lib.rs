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
//! This crate provides:
//!
//! * [`port`] — the link/protocol timing model (40 ns protocol latency,
//!   PCIe 5.0 ×4 bandwidth); the simulator carries the `SkyByte-Delay`
//!   completion as a `delay_hint` flag on the SSD access outcome rather than
//!   as an encoded NDR message,
//! * [`plb`] — the Promotion Look-aside Buffer in the host bridge that keeps
//!   reads/writes consistent while a page migrates between the SSD and host
//!   DRAM (§III-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plb;
pub mod port;

pub use plb::{PlbEntry, PromotionLookasideBuffer, WriteRoute};
pub use port::{CxlPort, CxlPortStats};
