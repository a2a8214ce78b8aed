//! Builds one workload's store and structures on disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use pc_btree::BTree;
use pc_intervaltree::ExternalIntervalTree;
use pc_pagestore::backend::FileBackend;
use pc_pagestore::store::CHECKSUM_LEN;
use pc_pagestore::{FileLog, PageStore, StoreConfig, WalConfig};
use pc_pst::{DynamicPst, ThreeSidedPst};
use pc_serve::{BTreeTarget, DynamicPstTarget, IntervalTreeTarget, Registry, ThreeSidedTarget};

use crate::data::Dataset;
use crate::spec::{Sizes, Workload, PAGE_SIZE};
use crate::trace::{TimedBackend, TimedLog};

/// The run's scratch directory; removed when dropped, so a failed run
/// leaves nothing behind.
pub struct DataDir(pub PathBuf);

impl DataDir {
    pub fn create(parent: &Path, workload: Workload) -> std::io::Result<DataDir> {
        let dir = parent.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(DataDir(dir))
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build times and page counts per structure.
#[derive(Debug, Default, Clone, Copy)]
pub struct BuildInfo {
    pub pst_build_s: f64,
    pub itree_build_s: f64,
    pub btree_build_s: f64,
    pub dyn_pages: u64,
    pub pst3_pages: u64,
    pub itree_pages: u64,
    pub btree_pages: u64,
    /// Records stored across all structures.
    pub records: u64,
    /// The closing `PageStore::sync`: the device's time, not the program's.
    pub sync_s: f64,
}

pub struct Built {
    pub store: Arc<PageStore>,
    pub registry: Registry,
    pub info: BuildInfo,
    /// Bytes handed to the log medium so far (see [`TimedLog`]).
    pub log_bytes: Arc<AtomicU64>,
}

fn err<E: std::fmt::Debug>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e:?}")
}

/// Opens the workload's store under `dir` and builds its structures:
/// a pooled file store for the read workloads, a WAL-backed (strict)
/// one for `mixed_durable`. Ends with a sync, so every page is in the
/// data file, and - for the warm workloads - with every page resident.
pub fn build(w: Workload, sizes: &Sizes, data: &Dataset, dir: &Path) -> Result<Built, String> {
    let path = dir.join("data.bin");
    let backend = TimedBackend(
        FileBackend::open(&path, PAGE_SIZE + CHECKSUM_LEN).map_err(err("open data file"))?,
    );
    let log_bytes = Arc::new(AtomicU64::new(0));
    let store = if w.has_updates() {
        let log = FileLog::open(&dir.join("data.bin.wal")).map_err(err("open log"))?;
        let log = TimedLog { inner: log, bytes: Arc::clone(&log_bytes) };
        PageStore::new_durable(
            StoreConfig::strict(PAGE_SIZE),
            Box::new(backend),
            Box::new(log),
            WalConfig::default(),
        )
        .map_err(err("open durable store"))?
        .0
    } else {
        PageStore::new(StoreConfig::pooled(PAGE_SIZE, sizes.pool_pages(w)), Box::new(backend))
    };
    let store = Arc::new(store);

    let mut info = BuildInfo::default();
    let mut registry = Registry::new();
    let mut pages_before = 0;
    let mut built = |store: &PageStore| {
        let now = store.live_pages();
        let delta = now - pages_before;
        pages_before = now;
        delta
    };

    let t = Instant::now();
    let dynamic = DynamicPst::build(&store, &data.points).map_err(err("build dyn"))?;
    info.dyn_pages = built(&store);
    info.records += data.points.len() as u64;
    registry.register("dyn", Box::new(DynamicPstTarget::new(dynamic)));
    if !w.has_updates() {
        let pst3 = ThreeSidedPst::build(&store, &data.points).map_err(err("build pst3"))?;
        info.pst3_pages = built(&store);
        info.pst_build_s = t.elapsed().as_secs_f64();
        registry.register("pst3", Box::new(ThreeSidedTarget(pst3)));

        let t = Instant::now();
        let itree =
            ExternalIntervalTree::build(&store, &data.intervals).map_err(err("build itree"))?;
        info.itree_pages = built(&store);
        info.itree_build_s = t.elapsed().as_secs_f64();
        registry.register("itree", Box::new(IntervalTreeTarget(itree)));

        let t = Instant::now();
        let btree = BTree::bulk_build(&store, &data.keys).map_err(err("build btree"))?;
        info.btree_pages = built(&store);
        info.btree_build_s = t.elapsed().as_secs_f64();
        registry.register("btree", Box::new(BTreeTarget(btree)));
        info.records += (data.points.len() + data.intervals.len() + data.keys.len()) as u64;
    } else {
        info.pst_build_s = t.elapsed().as_secs_f64();
    }

    let t = Instant::now();
    store.sync().map_err(err("sync"))?;
    info.sync_s = t.elapsed().as_secs_f64();
    if matches!(w, Workload::PointWarm | Workload::ScanWarm) {
        for id in store.allocated_pages() {
            store.read(id).map_err(err("warm-up read"))?;
        }
        let io = store.stats();
        if io.pool_evictions > 0 {
            return Err(format!(
                "warm pool of {} pages evicted {} of {} pages",
                sizes.pool_pages(w),
                io.pool_evictions,
                store.live_pages()
            ));
        }
    }
    store.reset_stats();
    Ok(Built { store, registry, info, log_bytes })
}
