//! Byte-counting wrappers around the durable media, so write
//! amplification is measured in every run, including untraced ones where
//! the program's own metrics registry is off.

use idb_core::CheckpointStore;
use idb_store::wal::{ReclaimReport, RollReport, WAL_HEADER_LEN};
use idb_store::DurableSink;
use std::io;

/// A [`DurableSink`] that counts appended bytes and syncs.
#[derive(Debug)]
pub struct CountingSink<S> {
    inner: S,
    /// Bytes durably appended, including headers stamped on rotation.
    pub bytes: u64,
    pub syncs: u64,
}

impl<S> CountingSink<S> {
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            bytes: 0,
            syncs: 0,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: DurableSink> DurableSink for CountingSink<S> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner.append(bytes)?;
        self.bytes += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()?;
        self.syncs += 1;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }

    fn roll(&mut self, dim: usize, next_base: u64) -> io::Result<Option<RollReport>> {
        let report = self.inner.roll(dim, next_base)?;
        if report.is_some() {
            // The successor's header is written by the medium itself.
            self.bytes += WAL_HEADER_LEN as u64;
        }
        Ok(report)
    }

    fn reclaim(&mut self, covered_seq: u64) -> io::Result<ReclaimReport> {
        self.inner.reclaim(covered_seq)
    }

    fn live_bytes(&self) -> Option<u64> {
        self.inner.live_bytes()
    }
}

/// A [`CheckpointStore`] that counts published checkpoints and the bytes
/// written for them.
#[derive(Debug)]
pub struct CountingCheckpoints<C> {
    inner: C,
    pub bytes: u64,
    pub published: u64,
}

impl<C> CountingCheckpoints<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            bytes: 0,
            published: 0,
        }
    }

    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: CheckpointStore> CheckpointStore for CountingCheckpoints<C> {
    fn save(&mut self, seq: u64, bytes: &[u8]) -> io::Result<()> {
        self.inner.save(seq, bytes)?;
        self.bytes += bytes.len() as u64;
        self.published += 1;
        Ok(())
    }

    fn seqs(&self) -> io::Result<Vec<u64>> {
        self.inner.seqs()
    }

    fn load(&self, seq: u64) -> io::Result<Vec<u8>> {
        self.inner.load(seq)
    }

    fn supports_streaming(&self) -> bool {
        self.inner.supports_streaming()
    }

    fn begin_stream(&mut self, seq: u64) -> io::Result<()> {
        self.inner.begin_stream(seq)
    }

    fn stream_chunk(&mut self, seq: u64, chunk: &[u8]) -> io::Result<()> {
        self.inner.stream_chunk(seq, chunk)?;
        self.bytes += chunk.len() as u64;
        Ok(())
    }

    fn finish_stream(&mut self, seq: u64) -> io::Result<()> {
        self.inner.finish_stream(seq)?;
        self.published += 1;
        Ok(())
    }

    fn abort_stream(&mut self, seq: u64) {
        self.inner.abort_stream(seq);
    }
}
