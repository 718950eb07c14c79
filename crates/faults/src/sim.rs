//! An in-memory simulated disk with a harsh crash model.
//!
//! Every file tracks two lengths: `data.len()` (what a reader sees — the
//! page-cache view) and `committed` (what survives a power cut — bytes
//! covered by a successful sync or a durable write). [`SimIo::crash`]
//! truncates every file to its committed prefix, which is exactly the
//! state a process would find after `kill -9` plus power loss.
//!
//! Deliberately harsh simplifications, documented once here:
//!
//! * Un-synced bytes are *always* lost at a crash. A real OS may write
//!   some of them back; losing all of them is the adversarial corner
//!   and any state the engine recovers under this model is also
//!   reachable on real hardware.
//! * Metadata operations (`create_dir_all`, `remove`, file creation)
//!   are immediately durable. Torn renames are modeled instead by the
//!   `short` fault at the `io.tsfile.write` / `io.manifest.write`
//!   sites, which commit a torn prefix and then kill.
//!
//! Byte-granularity faults are applied here, inside the sink, at the
//! `io.*` sites of the [`crate::sites`] catalog.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::io::{Io, WalFile};
use crate::sites;
use crate::{dead_error, FailpointRegistry, FaultMode};

#[derive(Default)]
struct SimFile {
    data: Vec<u8>,
    committed: usize,
}

#[derive(Default)]
struct SimState {
    dirs: BTreeSet<PathBuf>,
    files: BTreeMap<PathBuf, SimFile>,
}

/// The simulated disk. Share it (and the registry) with the engine,
/// run a workload, [`crash`](Self::crash), then reopen and verify.
pub struct SimIo {
    state: Arc<Mutex<SimState>>,
    faults: Arc<FailpointRegistry>,
}

impl SimIo {
    pub fn new(faults: Arc<FailpointRegistry>) -> Self {
        SimIo {
            state: Arc::new(Mutex::new(SimState::default())),
            faults,
        }
    }

    /// Power cut: every file loses its un-committed suffix. The dead
    /// flag is *not* cleared — revive the registry to model the restart.
    pub fn crash(&self) {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for file in state.files.values_mut() {
            let committed = file.committed;
            file.data.truncate(committed);
        }
    }

    fn check_dead(&self, site: &str) -> io::Result<()> {
        if self.faults.is_dead() {
            Err(dead_error(site))
        } else {
            Ok(())
        }
    }
}

/// Flips one bit of `bytes` (at byte `len/3`), returning the corrupted
/// copy. A no-op clone for empty input.
fn flip_one_bit(bytes: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if !out.is_empty() {
        let idx = out.len() / 3;
        out[idx] ^= 0x10;
    }
    out
}

impl Io for SimIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.check_dead("sim.create_dir_all")?;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut p = path.to_path_buf();
        loop {
            state.dirs.insert(p.clone());
            match p.parent() {
                Some(parent) if parent != Path::new("") => p = parent.to_path_buf(),
                _ => break,
            }
        }
        Ok(())
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.check_dead("sim.list_dir")?;
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if !state.dirs.contains(path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("sim: no such directory {}", path.display()),
            ));
        }
        Ok(state
            .files
            .keys()
            .filter(|p| p.parent() == Some(path))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.check_dead("sim.read")?;
        let state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("sim: no such file {}", path.display()),
                )
            })
    }

    fn write_durable(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let site = if path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().contains("MANIFEST"))
        {
            sites::IO_MANIFEST_WRITE
        } else {
            sites::IO_TSFILE_WRITE
        };
        self.check_dead(site)?;
        let fault = self.faults.io_fault(site);
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        match fault {
            None => {
                state.files.insert(
                    path.to_path_buf(),
                    SimFile {
                        data: bytes.to_vec(),
                        committed: bytes.len(),
                    },
                );
                Ok(())
            }
            Some(FaultMode::Error) => Err(crate::injected_error(site)),
            Some(FaultMode::Kill) => {
                // Atomic write killed before the rename: nothing lands.
                drop(state);
                self.faults.kill();
                Err(crate::killed_error(site))
            }
            Some(FaultMode::ShortWrite) => {
                // A non-atomic writer torn mid-write: a durable garbage
                // prefix replaces the file, then the process dies.
                let torn = &bytes[..bytes.len() / 2];
                state.files.insert(
                    path.to_path_buf(),
                    SimFile {
                        data: torn.to_vec(),
                        committed: torn.len(),
                    },
                );
                drop(state);
                self.faults.kill();
                Err(crate::killed_error(site))
            }
            Some(FaultMode::BitFlip) => {
                let corrupt = flip_one_bit(bytes);
                let committed = corrupt.len();
                state.files.insert(
                    path.to_path_buf(),
                    SimFile {
                        data: corrupt,
                        committed,
                    },
                );
                drop(state);
                self.faults.kill();
                Err(crate::killed_error(site))
            }
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.check_dead("sim.remove")?;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if state.files.remove(path).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("sim: no such file {}", path.display()),
            ));
        }
        Ok(())
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn WalFile>> {
        self.check_dead("sim.open_append")?;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.files.entry(path.to_path_buf()).or_default();
        Ok(Box::new(SimWalFile {
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
            faults: Arc::clone(&self.faults),
        }))
    }
}

struct SimWalFile {
    path: PathBuf,
    state: Arc<Mutex<SimState>>,
    faults: Arc<FailpointRegistry>,
}

impl SimWalFile {
    fn with_file<R>(&self, f: impl FnOnce(&mut SimFile) -> R) -> R {
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(state.files.entry(self.path.clone()).or_default())
    }
}

impl WalFile for SimWalFile {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        if self.faults.is_dead() {
            return Err(dead_error(sites::IO_WAL_APPEND));
        }
        match self.faults.io_fault(sites::IO_WAL_APPEND) {
            None => {
                self.with_file(|f| f.data.extend_from_slice(frame));
                Ok(())
            }
            Some(FaultMode::Error) => Err(crate::injected_error(sites::IO_WAL_APPEND)),
            Some(FaultMode::Kill) => {
                self.faults.kill();
                Err(crate::killed_error(sites::IO_WAL_APPEND))
            }
            Some(FaultMode::ShortWrite) => {
                // Torn tail: half the frame makes it to durable media
                // (page writeback raced the power cut), then death.
                self.with_file(|f| {
                    f.data.extend_from_slice(&frame[..frame.len() / 2]);
                    f.committed = f.data.len();
                });
                self.faults.kill();
                Err(crate::killed_error(sites::IO_WAL_APPEND))
            }
            Some(FaultMode::BitFlip) => {
                // The whole frame lands durably but one bit is flipped
                // in flight; the CRC must catch it at replay.
                self.with_file(|f| {
                    f.data.extend_from_slice(&flip_one_bit(frame));
                    f.committed = f.data.len();
                });
                self.faults.kill();
                Err(crate::killed_error(sites::IO_WAL_APPEND))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        // Appends are immediately visible to `read` (page-cache view);
        // flush is a no-op short of the sync durability barrier.
        if self.faults.is_dead() {
            return Err(dead_error(sites::IO_WAL_APPEND));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.faults.is_dead() {
            return Err(dead_error(sites::IO_WAL_SYNC));
        }
        match self.faults.io_fault(sites::IO_WAL_SYNC) {
            None => {
                self.with_file(|f| f.committed = f.data.len());
                Ok(())
            }
            Some(FaultMode::Error) => {
                // fsyncgate: the sync fails and commits nothing. The
                // caller must not acknowledge anything past the last
                // successful barrier.
                Err(crate::injected_error(sites::IO_WAL_SYNC))
            }
            Some(_) => {
                self.faults.kill();
                Err(crate::killed_error(sites::IO_WAL_SYNC))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<FailpointRegistry>, SimIo) {
        let reg = Arc::new(FailpointRegistry::new());
        let sim = SimIo::new(Arc::clone(&reg));
        sim.create_dir_all(Path::new("/db")).unwrap();
        (reg, sim)
    }

    #[test]
    fn crash_drops_unsynced_wal_suffix() {
        let (_, sim) = setup();
        let path = Path::new("/db/wal-1.log");
        let mut wal = sim.open_append(path).unwrap();
        wal.append(b"synced!").unwrap();
        wal.sync().unwrap();
        wal.append(b"pending").unwrap();
        assert_eq!(sim.read(path).unwrap(), b"synced!pending");
        sim.crash();
        assert_eq!(sim.read(path).unwrap(), b"synced!");
    }

    #[test]
    fn durable_write_survives_crash_whole() {
        let (_, sim) = setup();
        let path = Path::new("/db/tsfile-3.bstf");
        sim.write_durable(path, b"image-bytes").unwrap();
        sim.crash();
        assert_eq!(sim.read(path).unwrap(), b"image-bytes");
    }

    #[test]
    fn short_write_leaves_torn_tail_and_kills() {
        let (reg, sim) = setup();
        reg.arm(sites::IO_WAL_APPEND, FaultMode::ShortWrite, 2);
        let path = Path::new("/db/wal-1.log");
        let mut wal = sim.open_append(path).unwrap();
        wal.append(b"aaaa").unwrap();
        wal.sync().unwrap();
        assert!(wal.append(b"bbbb").is_err());
        assert!(reg.is_dead());
        assert!(wal.append(b"cccc").is_err(), "dead disk takes no writes");
        sim.crash();
        assert!(sim.read(path).is_err(), "disk still frozen");
        reg.revive();
        assert_eq!(sim.read(path).unwrap(), b"aaaabb");
        assert_eq!(reg.fired(sites::IO_WAL_APPEND), 1);
    }

    #[test]
    fn bit_flip_commits_corrupt_frame() {
        let (reg, sim) = setup();
        reg.arm(sites::IO_WAL_APPEND, FaultMode::BitFlip, 1);
        let path = Path::new("/db/wal-1.log");
        let mut wal = sim.open_append(path).unwrap();
        assert!(wal.append(&[0u8; 9]).is_err());
        sim.crash();
        reg.revive();
        let data = sim.read(path).unwrap();
        assert_eq!(data.len(), 9);
        assert_eq!(data.iter().filter(|&&b| b != 0).count(), 1);
    }

    #[test]
    fn failed_sync_commits_nothing() {
        let (reg, sim) = setup();
        reg.arm(sites::IO_WAL_SYNC, FaultMode::Error, 1);
        let path = Path::new("/db/wal-1.log");
        let mut wal = sim.open_append(path).unwrap();
        wal.append(b"data").unwrap();
        assert!(wal.sync().is_err());
        assert!(!reg.is_dead(), "error mode leaves the process alive");
        sim.crash();
        assert_eq!(sim.read(path).unwrap(), b"");
    }

    #[test]
    fn torn_manifest_uses_its_own_site() {
        let (reg, sim) = setup();
        reg.arm(sites::IO_MANIFEST_WRITE, FaultMode::ShortWrite, 1);
        let ts = Path::new("/db/tsfile-1.bstf");
        sim.write_durable(ts, b"tsfile image ok").unwrap();
        let man = Path::new("/db/MANIFEST");
        assert!(sim.write_durable(man, b"gens=1,2,3").is_err());
        reg.revive();
        sim.crash();
        assert_eq!(sim.read(man).unwrap(), b"gens=");
        assert_eq!(sim.read(ts).unwrap(), b"tsfile image ok");
    }

    #[test]
    fn list_dir_sees_only_direct_children() {
        let (_, sim) = setup();
        sim.create_dir_all(Path::new("/db/sub")).unwrap();
        sim.write_durable(Path::new("/db/a.bstf"), b"x").unwrap();
        sim.write_durable(Path::new("/db/sub/b.bstf"), b"y")
            .unwrap();
        let mut names = sim.list_dir(Path::new("/db")).unwrap();
        names.sort();
        assert_eq!(names, vec!["a.bstf".to_string()]);
    }
}
