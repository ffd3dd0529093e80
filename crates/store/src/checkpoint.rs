//! Checkpoints: a whole-state image written atomically (temp file +
//! rename), superseding every WAL record written before it.
//!
//! File layout: `[8-byte magic][u32 fnv1a(payload) LE][u64 payload_len
//! LE][payload]`. The payload codec belongs to the caller (`eq_core`'s
//! durable coordinator encodes tables + pending entanglements + the
//! outcome log); this module only guarantees the image on disk is
//! either a complete previous checkpoint or a complete new one.

use crate::error::StoreError;
use crate::wal::fnv1a;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"EQCHKP01";

/// Writes a checkpoint atomically: the payload goes to `<path>.tmp`
/// and is renamed over `path` only once fully written.
pub fn write_checkpoint(path: &Path, payload: &[u8]) -> Result<(), StoreError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let tmp = path.with_extension("ckpt-tmp");
    {
        let mut file = File::create(&tmp)?;
        file.write_all(MAGIC)?;
        file.write_all(&fnv1a(payload).to_le_bytes())?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(payload)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // fsync the directory so the rename itself survives power loss —
    // without this the image is complete but may not be *reachable*
    // after a machine crash.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            File::open(dir)?.sync_all()?;
        }
    }
    Ok(())
}

/// Header bytes before the payload: magic, checksum, payload length.
const HEADER: usize = 20;

/// Reads a checkpoint and returns its payload, read straight into one
/// buffer of its exact size. `Ok(None)` when no checkpoint exists yet;
/// [`StoreError::Corrupt`] when a file is present but fails
/// validation (rename-atomicity makes that an outside-interference
/// signal, not a crash artifact).
pub fn read_checkpoint(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let size = file.metadata()?.len();
    let mut header = [0u8; HEADER];
    if size < HEADER as u64 {
        return Err(StoreError::Corrupt("checkpoint header"));
    }
    file.read_exact(&mut header)?;
    if &header[..8] != MAGIC {
        return Err(StoreError::Corrupt("checkpoint header"));
    }
    let sum = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let len = u64::from_le_bytes([
        header[12], header[13], header[14], header[15], header[16], header[17], header[18],
        header[19],
    ]);
    // The length field must match the file, which also bounds the
    // allocation below by what is actually on disk.
    if size - HEADER as u64 != len {
        return Err(StoreError::Corrupt("checkpoint length"));
    }
    let len = usize::try_from(len).map_err(|_| StoreError::Corrupt("checkpoint length"))?;
    let mut payload = Vec::with_capacity(len);
    file.read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(StoreError::Corrupt("checkpoint length"));
    }
    if fnv1a(&payload) != sum {
        return Err(StoreError::Corrupt("checkpoint checksum"));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_missing() {
        let dir = crate::scratch_dir("ckpt-test");
        let path = dir.join("state.ckpt");
        assert!(read_checkpoint(&path).unwrap().is_none());
        write_checkpoint(&path, b"hello durable world").unwrap();
        assert_eq!(
            read_checkpoint(&path).unwrap().as_deref(),
            Some(b"hello durable world".as_slice())
        );
        // Overwrite supersedes.
        write_checkpoint(&path, b"v2").unwrap();
        assert_eq!(
            read_checkpoint(&path).unwrap().as_deref(),
            Some(b"v2".as_slice())
        );
        crate::purge_dir(&dir);
    }

    #[test]
    fn corruption_is_detected() {
        let dir = crate::scratch_dir("ckpt-corrupt");
        let path = dir.join("state.ckpt");
        write_checkpoint(&path, b"payload-bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint checksum"))
        ));
        crate::purge_dir(&dir);
    }

    #[test]
    fn short_or_resized_images_are_rejected() {
        let dir = crate::scratch_dir("ckpt-size");
        let path = dir.join("state.ckpt");
        std::fs::write(&path, b"EQCHK").unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint header"))
        ));
        write_checkpoint(&path, b"payload-bytes").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint length"))
        ));
        bytes.truncate(bytes.len() - 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(StoreError::Corrupt("checkpoint length"))
        ));
        crate::purge_dir(&dir);
    }
}
