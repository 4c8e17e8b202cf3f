//! A [`Storage`] owned by the benchmark: [`RealStorage`] with a ledger.
//!
//! Untraced, it reads the clock at most once per operation: when the
//! fsync that follows a segment append returns, which is the moment a
//! step is committed. That gives the step-commit times behind the
//! serve/recover latency metrics. Byte counts need no clock. Traced, it
//! also times every operation.

use deepcat::{RealStorage, Storage, StorageError};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What one session's storage did.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// End of each segment fsync: one per committed step, in order.
    pub commits: Vec<Instant>,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub fsyncs: u64,
    /// Traced only: seconds in `fsync` and `sync_dir`.
    pub fsync_s: f64,
    /// Traced only: seconds in `append` and `write_all`.
    pub write_s: f64,
    /// Traced only: seconds in `read` and `list`.
    pub read_s: f64,
    /// Traced only: seconds in every operation.
    pub op_s: f64,
}

impl Ledger {
    /// Fold another session's ledger into this total (commit times are
    /// per session and are not merged).
    pub fn add(&mut self, other: &Ledger) {
        self.bytes_written += other.bytes_written;
        self.bytes_read += other.bytes_read;
        self.fsyncs += other.fsyncs;
        self.fsync_s += other.fsync_s;
        self.write_s += other.write_s;
        self.read_s += other.read_s;
        self.op_s += other.op_s;
    }
}

pub type SharedLedger = Arc<Mutex<Ledger>>;

#[derive(Clone, Copy)]
enum Op {
    Write(usize),
    Read,
    Fsync,
    Other,
}

#[derive(Debug)]
pub struct TimedStorage {
    inner: RealStorage,
    ledger: SharedLedger,
    traced: bool,
}

impl TimedStorage {
    pub fn new(ledger: SharedLedger, traced: bool) -> Self {
        Self {
            inner: RealStorage::new(),
            ledger,
            traced,
        }
    }

    fn run<T>(
        &mut self,
        op: Op,
        path: &Path,
        f: impl FnOnce(&mut RealStorage) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let start = self.traced.then(Instant::now);
        let out = f(&mut self.inner)?;
        let is_commit = matches!(op, Op::Fsync)
            && path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("segment-"));
        let end = (is_commit || self.traced).then(Instant::now);
        let mut ledger = self.ledger.lock().expect("ledger lock poisoned");
        match op {
            Op::Write(bytes) => ledger.bytes_written += bytes as u64,
            Op::Fsync => ledger.fsyncs += 1,
            Op::Read | Op::Other => {}
        }
        if is_commit {
            if let Some(end) = end {
                ledger.commits.push(end);
            }
        }
        if let (Some(start), Some(end)) = (start, end) {
            let s = (end - start).as_secs_f64();
            ledger.op_s += s;
            match op {
                Op::Write(_) => ledger.write_s += s,
                Op::Read => ledger.read_s += s,
                Op::Fsync => ledger.fsync_s += s,
                Op::Other => {}
            }
        }
        Ok(out)
    }
}

impl Storage for TimedStorage {
    fn create_dir_all(&mut self, dir: &Path) -> Result<(), StorageError> {
        self.run(Op::Other, dir, |s| s.create_dir_all(dir))
    }

    fn list(&mut self, dir: &Path) -> Result<Vec<String>, StorageError> {
        self.run(Op::Read, dir, |s| s.list(dir))
    }

    fn read(&mut self, path: &Path) -> Result<Vec<u8>, StorageError> {
        let bytes = self.run(Op::Read, path, |s| s.read(path))?;
        self.ledger.lock().expect("ledger lock poisoned").bytes_read += bytes.len() as u64;
        Ok(bytes)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.run(Op::Write(bytes.len()), path, |s| s.append(path, bytes))
    }

    fn write_all(&mut self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        self.run(Op::Write(bytes.len()), path, |s| s.write_all(path, bytes))
    }

    fn fsync(&mut self, path: &Path) -> Result<(), StorageError> {
        self.run(Op::Fsync, path, |s| s.fsync(path))
    }

    fn sync_dir(&mut self, dir: &Path) -> Result<(), StorageError> {
        self.run(Op::Fsync, dir, |s| s.sync_dir(dir))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StorageError> {
        self.run(Op::Other, to, |s| s.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> Result<(), StorageError> {
        self.run(Op::Other, path, |s| s.remove(path))
    }

    fn truncate(&mut self, path: &Path, len: u64) -> Result<(), StorageError> {
        self.run(Op::Other, path, |s| s.truncate(path, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn untraced_counts_bytes_and_commits_without_timing() {
        let dir = scratch("untraced");
        let ledger = SharedLedger::default();
        let mut s = TimedStorage::new(ledger.clone(), false);
        let seg = dir.join("segment-000000000000.log");
        s.append(&seg, b"abcd").unwrap();
        s.fsync(&seg).unwrap();
        let snap = dir.join("snapshot-000000000000.json");
        s.write_all(&snap, b"xy").unwrap();
        s.fsync(&snap).unwrap();
        assert_eq!(s.read(&seg).unwrap(), b"abcd");
        let l = ledger.lock().unwrap().clone();
        assert_eq!(l.bytes_written, 6);
        assert_eq!(l.bytes_read, 4);
        assert_eq!(l.fsyncs, 2);
        assert_eq!(l.commits.len(), 1, "only the segment fsync is a commit");
        assert_eq!(l.op_s, 0.0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn traced_times_every_op() {
        let dir = scratch("traced");
        let ledger = SharedLedger::default();
        let mut s = TimedStorage::new(ledger.clone(), true);
        let seg = dir.join("segment-000000000000.log");
        s.append(&seg, b"abcd").unwrap();
        s.fsync(&seg).unwrap();
        s.list(&dir).unwrap();
        let l = ledger.lock().unwrap().clone();
        assert!(l.write_s > 0.0 && l.fsync_s > 0.0 && l.read_s > 0.0);
        assert!(l.op_s >= l.write_s + l.fsync_s + l.read_s - 1e-12);
        std::fs::remove_dir_all(dir).unwrap();
    }
}
