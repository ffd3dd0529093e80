//! The write-ahead log: an append-only file of length-prefixed,
//! checksummed records.
//!
//! Record layout: `[u32 payload_len LE][u32 fnv1a(payload) LE][payload]`.
//! Replay walks records from the front and stops at the first record
//! that is short or fails its checksum — a torn tail from a crash
//! mid-append — then truncates the file back to the last intact record
//! so the next append starts clean. Everything before a torn tail is
//! trusted (checksums passed), which is exactly the prefix the writer
//! had acknowledged.
//!
//! # Durability model
//!
//! Records are appended in batches: the caller encodes each payload in
//! place into a reusable [`WalBatch`], which frames it, and
//! [`WriteAheadLog::append_batch`] hands the whole batch to the OS in
//! one `write_all` — one write per acknowledgment point, however many
//! records it acknowledges; a single record is a batch of one. A kill during that write can tear it anywhere, even inside an
//! earlier record of the batch; replay keeps the intact prefix, which
//! is a prefix of the batch. Nothing in a batch is acknowledged before
//! the whole batch is written.
//!
//! An append is write-through to the OS but does **not** fsync: an
//! acknowledged record survives a **process kill** (the tested crash
//! model), not necessarily an OS crash or power loss. Callers that
//! need machine-crash durability call [`WriteAheadLog::sync_data`] at
//! their acknowledgment points and pay the fsync per batch; checkpoints
//! are always fsync'd (`crate::checkpoint`).

use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// 32-bit FNV-1a over a byte slice — the record checksum.
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c9dc5;
    for &b in bytes {
        hash ^= b as u32;
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// Record header bytes: payload length, then checksum.
const HEADER: usize = 8;

/// A reusable buffer of framed records, written by
/// [`WriteAheadLog::append_batch`] in one write. It keeps its capacity
/// across batches, so a caller that writes records as large as their
/// input (a bulk load) gives them a batch of their own.
#[derive(Default)]
pub struct WalBatch {
    buf: Vec<u8>,
    records: u64,
}

impl WalBatch {
    /// Appends one record whose payload `encode` writes in place: it
    /// must only append to the buffer it is given. The batch frames it
    /// (length, checksum) around what `encode` wrote.
    pub fn record(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; HEADER]);
        encode(&mut self.buf);
        assert!(
            self.buf.len() >= start + HEADER,
            "a WAL record encoder must only append"
        );
        let payload = &self.buf[start + HEADER..];
        let len = u32::try_from(payload.len()).expect("WAL record over 4 GiB");
        let sum = fnv1a(payload);
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.buf[start + 4..start + HEADER].copy_from_slice(&sum.to_le_bytes());
        self.records += 1;
    }

    /// Appends one record with an already-encoded payload.
    pub fn push(&mut self, payload: &[u8]) {
        self.record(|out| out.extend_from_slice(payload));
    }

    /// True if the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    fn clear(&mut self) {
        self.records = 0;
        self.buf.clear();
    }
}

/// An open write-ahead log.
pub struct WriteAheadLog {
    file: File,
    len: u64,
    /// `write` calls made by [`WriteAheadLog::append_batch`].
    writes: u64,
    /// Records those writes carried.
    records: u64,
}

impl WriteAheadLog {
    /// Opens the log (creating it if absent), replays every intact
    /// record, truncates any torn tail, and returns the log positioned
    /// for appending plus the replayed payloads in append order.
    pub fn open(path: &Path) -> Result<(WriteAheadLog, Vec<Vec<u8>>), StoreError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let mut records = Vec::new();
        let mut offset = 0usize;
        while bytes.len() - offset >= HEADER {
            let len = u32::from_le_bytes([
                bytes[offset],
                bytes[offset + 1],
                bytes[offset + 2],
                bytes[offset + 3],
            ]) as usize;
            let sum = u32::from_le_bytes([
                bytes[offset + 4],
                bytes[offset + 5],
                bytes[offset + 6],
                bytes[offset + 7],
            ]);
            if bytes.len() - offset - HEADER < len {
                break; // torn tail: record body never finished
            }
            let payload = &bytes[offset + HEADER..offset + HEADER + len];
            if fnv1a(payload) != sum {
                break; // torn or corrupted tail
            }
            records.push(payload.to_vec());
            offset += HEADER + len;
        }
        if (offset as u64) < bytes.len() as u64 {
            file.set_len(offset as u64)?;
        }
        file.seek(SeekFrom::Start(offset as u64))?;
        Ok((
            WriteAheadLog {
                file,
                len: offset as u64,
                writes: 0,
                records: 0,
            },
            records,
        ))
    }

    /// Writes every record in `batch` with one `write_all` and empties
    /// the batch for reuse — also when the write fails, so records that
    /// were never acknowledged cannot ride along with the next batch.
    /// An empty batch writes nothing. The records
    /// are on the OS side of the write when this returns —
    /// process-kill durable, not power-loss durable (see the module
    /// docs; [`WriteAheadLog::sync_data`] is the opt-in for the
    /// latter).
    pub fn append_batch(&mut self, batch: &mut WalBatch) -> Result<(), StoreError> {
        if batch.is_empty() {
            return Ok(());
        }
        let written = self.file.write_all(&batch.buf);
        let (bytes, records) = (batch.buf.len() as u64, batch.records);
        batch.clear();
        written?;
        self.len += bytes;
        self.writes += 1;
        self.records += records;
        Ok(())
    }

    /// Flushes every appended record to stable storage (`fdatasync`).
    /// Opt-in: appends alone survive a process kill; call this at an
    /// acknowledgment point when records must also survive an OS crash
    /// or power loss.
    pub fn sync_data(&mut self) -> Result<(), StoreError> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Empties the log — called right after a checkpoint supersedes
    /// every record in it.
    pub fn truncate(&mut self) -> Result<(), StoreError> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        Ok(())
    }

    /// Bytes of intact records currently in the log.
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// `write` calls made by appends since this log was opened (a
    /// truncation does not reset it).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Records appended since this log was opened.
    pub fn records(&self) -> u64 {
        self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl WriteAheadLog {
        /// Appends one record: a batch of one.
        fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
            let mut batch = WalBatch::default();
            batch.push(payload);
            self.append_batch(&mut batch)
        }
    }

    #[test]
    fn records_round_trip() {
        let dir = crate::scratch_dir("wal-test");
        let path = dir.join("log.wal");
        {
            let (mut wal, replayed) = WriteAheadLog::open(&path).unwrap();
            assert!(replayed.is_empty());
            wal.append(b"alpha").unwrap();
            wal.append(b"").unwrap();
            wal.append(b"gamma-record").unwrap();
            wal.sync_data().unwrap();
        }
        let (_, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![b"alpha".to_vec(), vec![], b"gamma-record".to_vec()]
        );
        crate::purge_dir(&dir);
    }

    #[test]
    fn record_framing_matches_golden_bytes() {
        let dir = crate::scratch_dir("wal-golden");
        let path = dir.join("log.wal");
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"alpha").unwrap();
        }
        let mut golden = vec![0x05, 0, 0, 0, 0xab, 0x6d, 0x8b, 0x5d];
        golden.extend_from_slice(b"alpha");
        assert_eq!(std::fs::read(&path).unwrap(), golden);
        crate::purge_dir(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let dir = crate::scratch_dir("wal-torn");
        let path = dir.join("log.wal");
        let intact_len;
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"keep-me").unwrap();
            intact_len = wal.len_bytes();
            wal.append(b"torn-record").unwrap();
        }
        // Chop mid-way through the second record's payload.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 4).unwrap();
        drop(f);

        let (wal, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(replayed, vec![b"keep-me".to_vec()]);
        assert_eq!(wal.len_bytes(), intact_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
        crate::purge_dir(&dir);
    }

    #[test]
    fn a_batch_is_one_write_and_a_tear_inside_it_keeps_a_prefix() {
        let dir = crate::scratch_dir("wal-batch");
        let path = dir.join("log.wal");
        let payloads: [&[u8]; 3] = [b"first", b"", b"third-record"];
        let boundaries;
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            let mut batch = WalBatch::default();
            wal.append_batch(&mut batch).unwrap();
            assert_eq!((wal.writes(), wal.records()), (0, 0), "empty batch");
            for p in payloads {
                batch.record(|out| out.extend_from_slice(p));
            }
            assert_eq!(batch.records, 3);
            wal.append_batch(&mut batch).unwrap();
            assert!(batch.is_empty(), "a written batch is emptied for reuse");
            assert_eq!((wal.writes(), wal.records()), (1, 3));
            boundaries = [8 + 5, 8 + 5 + 8, wal.len_bytes()];
        }
        // Same bytes as three single appends: batching is not a format.
        let single = dir.join("single.wal");
        {
            let (mut wal, _) = WriteAheadLog::open(&single).unwrap();
            for p in payloads {
                wal.append(p).unwrap();
            }
            assert_eq!((wal.writes(), wal.records()), (3, 3));
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, std::fs::read(&single).unwrap());
        // A cut anywhere in the batched write replays the records that
        // end at or before it.
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (wal, replayed) = WriteAheadLog::open(&path).unwrap();
            let whole = boundaries.iter().filter(|&&b| b as usize <= cut).count();
            let expected: Vec<Vec<u8>> = payloads[..whole].iter().map(|p| p.to_vec()).collect();
            assert_eq!(replayed, expected, "cut at {cut}");
            assert_eq!(
                wal.len_bytes(),
                if whole == 0 { 0 } else { boundaries[whole - 1] }
            );
        }
        crate::purge_dir(&dir);
    }

    #[test]
    fn a_failed_write_empties_its_batch() {
        let dir = crate::scratch_dir("wal-failed");
        let path = dir.join("log.wal");
        drop(WriteAheadLog::open(&path).unwrap());
        // A read-only handle: every write to it fails.
        let mut wal = WriteAheadLog {
            file: File::open(&path).unwrap(),
            len: 0,
            writes: 0,
            records: 0,
        };
        let mut batch = WalBatch::default();
        batch.push(b"never-acknowledged");
        assert!(wal.append_batch(&mut batch).is_err());
        assert!(batch.is_empty(), "a failed batch leaves nothing behind");
        assert_eq!((wal.len_bytes(), wal.writes(), wal.records()), (0, 0, 0));
        crate::purge_dir(&dir);
    }

    #[test]
    fn truncate_resets_for_post_checkpoint_appends() {
        let dir = crate::scratch_dir("wal-trunc");
        let path = dir.join("log.wal");
        {
            let (mut wal, _) = WriteAheadLog::open(&path).unwrap();
            wal.append(b"old").unwrap();
            wal.truncate().unwrap();
            wal.append(b"new").unwrap();
        }
        let (_, replayed) = WriteAheadLog::open(&path).unwrap();
        assert_eq!(replayed, vec![b"new".to_vec()]);
        crate::purge_dir(&dir);
    }
}
