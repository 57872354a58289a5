//! A counting, timing [`Disk`] around [`MemDisk`] for the durable meta
//! index: WAL and snapshot bytes, syncs, and time spent in disk calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mqp_catalog::durable::{Disk, DiskError, MemDisk};

/// Shared counters; read while the peer owning the disk runs elsewhere.
#[derive(Debug, Default)]
pub struct DiskCounters {
    pub wal_bytes: AtomicU64,
    pub snapshot_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub appends: AtomicU64,
    pub busy_ns: AtomicU64,
}

/// Plain copy of [`DiskCounters`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskSnapshot {
    pub wal_bytes: u64,
    pub snapshot_bytes: u64,
    pub syncs: u64,
    pub appends: u64,
    pub busy_ns: u64,
}

impl DiskCounters {
    pub fn snapshot(&self) -> DiskSnapshot {
        DiskSnapshot {
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            snapshot_bytes: self.snapshot_bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
pub struct CountingDisk {
    inner: MemDisk,
    counters: Arc<DiskCounters>,
}

impl CountingDisk {
    pub fn new(counters: Arc<DiskCounters>) -> Self {
        CountingDisk {
            inner: MemDisk::new(),
            counters,
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut MemDisk) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.counters
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }
}

impl Disk for CountingDisk {
    fn wal_read(&mut self) -> Result<Vec<u8>, DiskError> {
        self.timed(|d| d.wal_read())
    }

    fn wal_append(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .wal_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|d| d.wal_append(bytes))
    }

    fn wal_truncate(&mut self) -> Result<(), DiskError> {
        self.timed(|d| d.wal_truncate())
    }

    fn sync(&mut self) -> Result<(), DiskError> {
        self.counters.syncs.fetch_add(1, Ordering::Relaxed);
        self.timed(|d| d.sync())
    }

    fn snapshot_read(&mut self) -> Result<Option<Vec<u8>>, DiskError> {
        self.timed(|d| d.snapshot_read())
    }

    fn snapshot_write(&mut self, bytes: &[u8]) -> Result<(), DiskError> {
        self.counters
            .snapshot_bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.timed(|d| d.snapshot_write(bytes))
    }

    fn crash(&mut self) {
        self.inner.crash();
    }
}
