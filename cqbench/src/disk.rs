//! [`MeteredDisk`]: the benchmark's storage device.
//!
//! A [`WalDir`] over `cqu-testutil`'s in-memory [`SimDisk`] that counts
//! what the log does to the device (appends, bytes, flushes) and models
//! a device flush as a fixed sleep. The sleep — not a spin — matters: a
//! real flush frees the CPU, so a second writer can run during it, and
//! a change that overlaps flushes with work must be able to show that.
//! The sandbox's own disk is not measured anywhere; flush latency is a
//! stated model parameter, the same on every run.

use cq_updates::wal::{WalDir, WalFile};
use cqu_testutil::SimDisk;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Device-side counters. Exact with one writer; with two they are still
/// exact totals, but their split between writers is not recorded.
#[derive(Debug, Default)]
pub struct DiskCounters {
    appends: AtomicU64,
    append_bytes: AtomicU64,
    syncs: AtomicU64,
    sync_wait_ns: AtomicU64,
}

/// A point-in-time copy of [`DiskCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// `WalFile::append` calls.
    pub appends: u64,
    /// Bytes passed to `append`.
    pub append_bytes: u64,
    /// File and directory flushes.
    pub syncs: u64,
    /// Wall time spent inside flushes, modelled latency included.
    pub sync_wait_ns: u64,
}

impl DiskStats {
    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &DiskStats) -> DiskStats {
        DiskStats {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            sync_wait_ns: self.sync_wait_ns - earlier.sync_wait_ns,
        }
    }
}

/// The metered device. Clones share the disk and its counters: hand one
/// clone to the WAL, keep another to read counters and cut the
/// post-crash view.
#[derive(Clone)]
pub struct MeteredDisk {
    disk: SimDisk,
    flush: Duration,
    counters: Arc<DiskCounters>,
}

impl MeteredDisk {
    /// An empty device whose every flush takes `flush` (zero for the
    /// ladder's zero-latency rungs).
    pub fn new(flush: Duration) -> MeteredDisk {
        MeteredDisk {
            disk: SimDisk::new(),
            flush,
            counters: Arc::default(),
        }
    }

    /// Current counter values. All counters are statistics that publish
    /// no other data, hence `Relaxed`.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            appends: self.counters.appends.load(Ordering::Relaxed),
            append_bytes: self.counters.append_bytes.load(Ordering::Relaxed),
            syncs: self.counters.syncs.load(Ordering::Relaxed),
            sync_wait_ns: self.counters.sync_wait_ns.load(Ordering::Relaxed),
        }
    }

    /// What a power cut would leave: only flushed bytes. Recovery in the
    /// benchmark always reads this view, so an acknowledged commit that
    /// was never flushed would be lost and the durability check fails.
    pub fn strict_view(&self) -> SimDisk {
        self.disk.strict_view()
    }

    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let t0 = Instant::now();
        if !self.flush.is_zero() {
            std::thread::sleep(self.flush);
        }
        let result = sync();
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.counters
            .sync_wait_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }
}

struct MeteredFile {
    file: Box<dyn WalFile>,
    disk: MeteredDisk,
}

impl WalFile for MeteredFile {
    fn append(&mut self, buf: &[u8]) -> io::Result<()> {
        self.disk.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.disk
            .counters
            .append_bytes
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.file.append(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        let MeteredFile { file, disk } = self;
        disk.timed_sync(|| file.sync())
    }
}

impl WalDir for MeteredDisk {
    fn create(&self, name: &str) -> io::Result<Box<dyn WalFile>> {
        Ok(Box::new(MeteredFile {
            file: self.disk.create(name)?,
            disk: self.clone(),
        }))
    }

    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.disk.read(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.disk.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.disk.remove(name)
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.disk.rename(from, to)
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.disk.truncate(name, len)
    }

    fn sync_dir(&self) -> io::Result<()> {
        self.timed_sync(|| self.disk.sync_dir())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_appends_bytes_and_syncs() {
        let disk = MeteredDisk::new(Duration::ZERO);
        let mut f = disk.create("seg").unwrap();
        f.append(b"hello").unwrap();
        f.append(b"world!").unwrap();
        f.sync().unwrap();
        disk.sync_dir().unwrap();
        let s = disk.stats();
        assert_eq!((s.appends, s.append_bytes, s.syncs), (2, 11, 2));
        assert_eq!(disk.read("seg").unwrap(), b"helloworld!");
    }

    #[test]
    fn strict_view_discards_unflushed_bytes() {
        let disk = MeteredDisk::new(Duration::ZERO);
        let mut f = disk.create("seg").unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        f.append(b" lost").unwrap();
        assert_eq!(disk.strict_view().read("seg").unwrap(), b"durable");
    }

    #[test]
    fn flush_latency_is_slept_and_accounted() {
        let disk = MeteredDisk::new(Duration::from_micros(300));
        let mut f = disk.create("seg").unwrap();
        let before = disk.stats();
        let t0 = Instant::now();
        for _ in 0..4 {
            f.sync().unwrap();
        }
        assert!(t0.elapsed() >= Duration::from_micros(1200));
        let d = disk.stats().since(&before);
        assert_eq!(d.syncs, 4);
        assert!(d.sync_wait_ns >= 1_200_000, "{d:?}");
    }
}
