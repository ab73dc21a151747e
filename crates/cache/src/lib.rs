//! CXL-aware SSD DRAM management (SkyByte §III-B).
//!
//! Modern SSDs organise their internal DRAM as a page-granular cache because
//! flash chips only support page-granular access. For a CXL-SSD this wastes
//! DRAM capacity and amplifies writes, because the host accesses the device in
//! 64-byte cachelines and most workloads touch fewer than 40 % of the
//! cachelines of a page. SkyByte re-architects the SSD DRAM into:
//!
//! * a **cacheline-granular, double-buffered write log** ([`WriteLog`]) — all
//!   host writes are appended to the log without fetching the page from
//!   flash; a **two-level hash index** ([`LogIndex`]) finds the latest copy of
//!   any cacheline and enumerates all logged cachelines of a page during
//!   compaction;
//! * a **page-granular read-write data cache** ([`DataCache`]) — pages fetched
//!   from flash on read misses, set-associative with pluggable eviction and
//!   admission policies ([`policy`], default pseudo-LRU / admit-all);
//! * **log compaction** ([`CompactionPlan`]) — when a log fills up it is
//!   frozen, writes continue in the other buffer, and the frozen log is
//!   coalesced page-by-page and flushed to flash in the background;
//! * **per-tenant log partitions** ([`WriteLogPartitions`]) — windowed
//!   append accounting per tenant, feeding the `qos` tenant scheduler so a
//!   log-hungry neighbour can be deprioritised at placement time.
//!
//! # Example
//!
//! ```
//! use skybyte_cache::{DataCache, WriteLog};
//! use skybyte_types::prelude::*;
//!
//! // 1 MiB write log, 4 MiB / 8-way data cache.
//! let mut log = WriteLog::new(1 << 20, 0.75);
//! let mut cache = DataCache::new(4 << 20, 8);
//!
//! // A host write appends to the log without touching flash.
//! log.append(Lpa::new(3), 5, 0xAB);
//! assert_eq!(log.lookup(Lpa::new(3), 5), Some(0xAB));
//!
//! // A read miss loads the whole page into the data cache.
//! assert!(!cache.contains(Lpa::new(3)));
//! cache.insert(Lpa::new(3));
//! assert!(cache.contains(Lpa::new(3)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod data_cache;
mod log_index;
mod partition;
pub mod policy;
mod write_log;

pub use data_cache::{DataCache, DataCacheStats, EvictedPage};
pub use log_index::{LogIndex, LogIndexStats};
pub use partition::WriteLogPartitions;
pub use policy::{Admission, Eviction};
pub use write_log::{AppendOutcome, CompactionPlan, PageFlush, WriteLog, WriteLogStats};
