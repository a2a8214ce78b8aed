//! # pc-pagestore — paged secondary-storage engine
//!
//! This crate is the external-memory substrate for the path-caching
//! reproduction. It models a disk as an array of fixed-size *pages* and
//! charges one I/O per page transferred, exactly matching the cost model of
//! Ramaswamy & Subramanian (PODS 1994): "each secondary memory access
//! transmits one page or `B` units of data, and we count this as one I/O."
//!
//! ## Components
//!
//! * [`PageStore`] — allocation, checksummed page frames, I/O statistics,
//!   and an optional buffer pool. With the pool disabled (the volatile
//!   default) the store implements the *strict* I/O model used by every
//!   experiment: each logical page read/write is one backend transfer. The
//!   pool is a [`ShardedPool`]: per-shard CLOCK rings behind independent
//!   read-write locks, with zero-copy `Arc` hand-out on hits taken under a
//!   shared lock (see DESIGN.md §"Buffer manager"). A durable store always
//!   reads through one, and counts its hits as `cache_hits`.
//! * [`backend`] — where the bytes live: [`backend::MemBackend`] (RAM) or
//!   [`backend::FileBackend`] (a real file, positional I/O).
//! * [`fault`] — deterministic seeded fault injection ([`FaultBackend`]):
//!   transient errors, frame loss, torn writes, bit rot. The store checks
//!   every frame's checksum and hands any backend error to its caller
//!   unchanged (see DESIGN.md §9 "Fault model & recovery"); recovery from
//!   a failed read is the router's replica groups', one level up
//!   (DESIGN.md §15).
//! * [`codec`] — bounds-checked little-endian cursors for page layouts.
//! * [`layout`] — the self-describing block codec every list of data
//!   records is stored in (a base, a bit width and an offset-or-gap mode
//!   per column and block, so `B` follows the data block by block), and
//!   [`layout::BlockList`], the blocked linked list that implements every
//!   cover-list, cache, A/S/X/Y list in the paper; [`layout::scan_chain`]
//!   is the one loop a query reads a chain of blocks with.
//! * [`skeleton`] — skeletal pages (Figure 2): the fixed-width record
//!   format every tree's navigation pages share, its writer and walker,
//!   and the pagination of a binary tree into them.
//! * [`types`] — the geometric records ([`types::Point`],
//!   [`types::Interval`]) shared by all index crates.
//!
//! ## Example
//!
//! ```
//! use pc_pagestore::PageStore;
//!
//! let store = PageStore::in_memory(4096);
//! let id = store.alloc().unwrap();
//! store.write(id, b"hello page").unwrap();
//! let page = store.read(id).unwrap();
//! assert_eq!(&page[..10], b"hello page");
//! assert_eq!(store.stats().reads, 1);
//! ```

pub mod backend;
pub mod codec;
pub mod crash;
pub mod error;
pub mod fault;
pub mod layout;
pub mod page;
pub mod pool;
pub mod recovery;
pub mod skeleton;
pub mod stats;
pub mod store;
pub mod types;
pub mod version;
pub mod wal;

pub use backend::{ResilienceStats, ScrubReport};
pub use crash::{CrashBackend, CrashController, CrashLog, CrashPlan};
pub use error::{Result, StoreError};
pub use fault::{FaultBackend, FaultHandle, FaultLog, FaultPlan, InjectionStats};
pub use page::Page;
pub use pool::{ShardStats, ShardedPool};
pub use recovery::RecoveryReport;
pub use stats::IoStats;
pub use store::{PageId, PageStore, StoreConfig, WalConfig, NULL_PAGE};
pub use types::{Interval, Point, Record, UpdateOp};
pub use version::{
    decode_version_meta, encode_version_meta, ApplyGuard, Snapshot, SnapshotGuard, VersionConfig,
    VersionMeta, VersionMetrics, VersionedStore,
};
pub use wal::{FileLog, LogMedium, MemLog, Wal, WalStats};
