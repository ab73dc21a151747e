//! The SkyByte CXL-SSD controller.
//!
//! This crate assembles the substrates — the NAND array ([`skybyte_flash`]),
//! the FTL ([`skybyte_ftl`]) and the CXL-aware SSD DRAM ([`skybyte_cache`]) —
//! into the device-side half of SkyByte:
//!
//! * [`SsdController`] serves cacheline reads and writes arriving over
//!   CXL.mem, following the R1/R2/R3 and W1/W2/W3 paths of Figure 11 when the
//!   write log is enabled, or the conventional page-granular cache of the
//!   Base-CSSD baseline when it is not;
//! * [`ThresholdPolicy`] implements Algorithm 1, estimating the delay of a
//!   flash access from the per-channel queue occupancy and deciding whether to
//!   answer with the `SkyByte-Delay` NDR opcode (the controller asks it only
//!   when the variant enables the coordinated context switch);
//! * [`HotnessTracker`] nominates promotion candidates for the adaptive
//!   page-migration mechanism (§III-C) — the configured hotness policy picks
//!   the paper's exact threshold counter ([`hotness::HotPageTracker`]) or
//!   one of two memory-bounded contenders
//!   ([`hotness::DecayTracker`], [`hotness::TopKTracker`]);
//! * background **log compaction** (Figure 13) and **garbage collection** are
//!   executed against the flash channel queues so that their interference with
//!   foreground reads is visible in the latency estimates.
//!
//! # Example
//!
//! ```
//! use skybyte_ssd::{ServedBy, SsdController};
//! use skybyte_types::prelude::*;
//!
//! let mut cfg = SimConfig::default().with_variant(VariantKind::SkyByteFull);
//! // Shrink the device so the example runs instantly.
//! cfg.ssd.geometry.blocks_per_plane = 8;
//! cfg.ssd.dram.data_cache_bytes = 1 << 20;
//! cfg.ssd.dram.write_log_bytes = 1 << 16;
//! let mut ssd = SsdController::new(&cfg);
//!
//! // A write is absorbed by the write log without flash access.
//! let w = ssd.handle_write(Lpa::new(3), 5, Nanos::ZERO);
//! assert_eq!(w.served_by, ServedBy::WriteLog);
//!
//! // Reading the same cacheline hits the log.
//! let r = ssd.handle_read(Lpa::new(3), 5, Nanos::new(500));
//! assert_eq!(r.served_by, ServedBy::WriteLog);
//! assert!(!r.delay_hint);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
pub mod hotness;
mod stats;
mod trigger;

pub use controller::SsdController;
pub use hotness::HotnessTracker;
pub use stats::{AccessBreakdown, ServedBy, SsdStats};
pub use trigger::{ThresholdPolicy, TriggerDecision};

// Re-exported so the simulation core can snapshot every device layer's
// counters into its per-run `LayerCounters` (the conservation audit's input)
// without depending on each device crate directly.
pub use skybyte_cache::WriteLogStats;
pub use skybyte_flash::FlashStats;
pub use skybyte_ftl::FtlStats;
