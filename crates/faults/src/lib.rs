//! Deterministic fault injection for the durability stack.
//!
//! Two layers, zero dependencies (same discipline as `backsort-obs`):
//!
//! * [`FailpointRegistry`] — named failpoint *sites* compiled into the
//!   engine's state-changing code paths. Each site can be armed with a
//!   [`Plan`]: fire on the Nth hit, either returning an injected error
//!   ([`FaultMode::Error`]) or simulating process death
//!   ([`FaultMode::Kill`] — the registry's `dead` flag freezes every
//!   subsequent instrumented operation, modeling a power cut at that
//!   exact instruction). Disarmed, a site costs a single relaxed atomic
//!   load.
//! * [`Io`](io::Io) — an injectable file-system sink the durable engine
//!   routes all WAL/TsFile/manifest I/O through. [`RealIo`](io::RealIo)
//!   is a thin `std::fs` wrapper; [`SimIo`](sim::SimIo) is an in-memory
//!   disk that tracks *synced* vs *merely written* bytes, so a simulated
//!   crash ([`SimIo::crash`](sim::SimIo::crash)) drops exactly the
//!   un-fsynced suffix of every file — and applies byte-granularity
//!   faults (short writes, torn tails, bit flips, failed syncs) at the
//!   `io.*` sites in [`sites`].
//!
//! Arming is programmatic ([`FailpointRegistry::arm`]) or environmental:
//! `BACKSORT_FAULTS="store.write_batch.append=kill@3;io.wal.sync=error"`
//! (see [`FailpointRegistry::from_env`]).

pub mod io;
pub mod sim;
pub mod sites;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The instrumented operation returns an injected `io::Error`; the
    /// process stays alive. Models a transient syscall failure
    /// (`ENOSPC`, `EIO`) the caller is expected to surface, not mask.
    Error,
    /// Simulated process death: the registry goes dead
    /// ([`FailpointRegistry::is_dead`]), so this and every later
    /// instrumented operation fails until
    /// [`FailpointRegistry::revive`]. With [`sim::SimIo`], un-synced
    /// bytes are then dropped by `crash()`, exactly like a power cut.
    Kill,
    /// Only meaningful at `io.*` sites: commit a *prefix* of the write
    /// durably, then die. Produces torn WAL tails / truncated TsFiles.
    /// At plain sites it degrades to [`FaultMode::Kill`].
    ShortWrite,
    /// Only meaningful at `io.*` sites: commit the full write with one
    /// bit flipped, then die. Produces CRC-detectable corruption. At
    /// plain sites it degrades to [`FaultMode::Kill`].
    BitFlip,
}

impl FaultMode {
    fn parse(s: &str) -> Option<FaultMode> {
        match s {
            "error" => Some(FaultMode::Error),
            "kill" => Some(FaultMode::Kill),
            "short" => Some(FaultMode::ShortWrite),
            "flip" => Some(FaultMode::BitFlip),
            _ => None,
        }
    }
}

/// An armed site's trigger: fire `mode` on the `after`-th hit (1-based).
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub mode: FaultMode,
    pub after: u64,
}

#[derive(Default)]
struct SiteState {
    hits: u64,
    fired: u64,
    plan: Option<Plan>,
}

/// The failpoint registry: a shared map of named sites.
///
/// The hot-path contract: when no site is armed,
/// [`FailpointRegistry::hit`] is one relaxed [`AtomicBool`] load and an
/// immediate `Ok(())` — no lock, no allocation, no branch on the site
/// name. The per-site bookkeeping only runs while `armed` is set.
pub struct FailpointRegistry {
    armed: AtomicBool,
    dead: AtomicBool,
    sites: Mutex<BTreeMap<String, SiteState>>,
}

impl Default for FailpointRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FailpointRegistry {
    /// A registry with nothing armed — the production configuration.
    pub fn new() -> Self {
        FailpointRegistry {
            armed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            sites: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry armed from the `BACKSORT_FAULTS` environment variable
    /// (empty/unset ⇒ disarmed). Spec grammar, `;`-separated:
    /// `site=mode[@N]` where mode ∈ {`error`,`kill`,`short`,`flip`} and
    /// `N` is the 1-based hit that fires (default 1). Unparseable specs
    /// panic: a mistyped fault plan silently not firing is worse than a
    /// crash in a test harness.
    pub fn from_env() -> Arc<Self> {
        let reg = Arc::new(Self::new());
        if let Ok(spec) = std::env::var("BACKSORT_FAULTS") {
            if !spec.trim().is_empty() {
                reg.arm_spec(&spec)
                    // analyzer:allow(panic-freedom): documented contract — a mistyped BACKSORT_FAULTS plan aborts the harness at startup rather than silently arming nothing
                    .unwrap_or_else(|e| panic!("BACKSORT_FAULTS: {e}"));
            }
        }
        reg
    }

    /// Arms `site` to fire `mode` on its `after`-th hit (1-based).
    pub fn arm(&self, site: &str, mode: FaultMode, after: u64) {
        let mut sites = self
            .sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = sites.entry(site.to_string()).or_default();
        entry.plan = Some(Plan {
            mode,
            after: after.max(1),
        });
        self.armed.store(true, Ordering::Release);
    }

    /// Arms every `site=mode[@N]` clause of a `;`-separated spec string
    /// (the `BACKSORT_FAULTS` grammar).
    pub fn arm_spec(&self, spec: &str) -> Result<(), String> {
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (site, rhs) = clause
                .split_once('=')
                .ok_or_else(|| format!("bad clause {clause:?}: expected site=mode[@N]"))?;
            let (mode_s, after_s) = match rhs.split_once('@') {
                Some((m, n)) => (m, Some(n)),
                None => (rhs, None),
            };
            let mode = FaultMode::parse(mode_s.trim())
                .ok_or_else(|| format!("bad mode {mode_s:?} in {clause:?}"))?;
            let after = match after_s {
                Some(n) => n
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad hit count {n:?} in {clause:?}"))?,
                None => 1,
            };
            self.arm(site.trim(), mode, after);
        }
        Ok(())
    }

    /// Clears every plan and the dead flag; hit/fired counters survive
    /// so coverage can still be asserted after recovery.
    pub fn revive(&self) {
        let mut sites = self
            .sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for state in sites.values_mut() {
            state.plan = None;
        }
        self.dead.store(false, Ordering::Release);
        self.armed.store(false, Ordering::Release);
    }

    /// True after a [`FaultMode::Kill`] (or an `io.*` death) fired.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Marks the simulated process dead; every subsequent instrumented
    /// operation fails until [`revive`](Self::revive). `SimIo` calls
    /// this when a `short`/`flip` fault commits its damage.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::Release);
        // Keep `armed` set so the dead-check in `hit` stays active even
        // if the killing plan was the only one.
        self.armed.store(true, Ordering::Release);
    }

    /// Core trigger: records a hit on `site` and returns the fault mode
    /// if this hit fires its plan. Only called while armed.
    fn trigger(&self, site: &str) -> Option<FaultMode> {
        let mut sites = self
            .sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let state = sites.entry(site.to_string()).or_default();
        state.hits += 1;
        let plan = state.plan?;
        if state.hits == plan.after {
            state.fired += 1;
            Some(plan.mode)
        } else {
            None
        }
    }

    /// The failpoint a state-changing operation passes through.
    /// Disarmed: one relaxed load, `Ok(())`. Dead: fails immediately
    /// (the process no longer exists; nothing it "does" can take
    /// effect). Armed and firing: `Error` returns an injected error,
    /// everything else kills first and then errors.
    pub fn hit(&self, site: &str) -> std::io::Result<()> {
        if !self.armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        if self.is_dead() {
            return Err(dead_error(site));
        }
        match self.trigger(site) {
            None => Ok(()),
            Some(FaultMode::Error) => Err(injected_error(site)),
            Some(_) => {
                self.kill();
                Err(killed_error(site))
            }
        }
    }

    /// A kill-only failpoint for call sites with no `Result` to thread
    /// (engine-internal flush/compaction steps). If the site fires, the
    /// process is marked dead — in-memory work may continue, but the
    /// frozen `Io` sink guarantees none of it reaches the disk, which
    /// is exactly the crash-at-this-instruction model.
    pub fn kill_point(&self, site: &str) {
        if !self.armed.load(Ordering::Relaxed) || self.is_dead() {
            return;
        }
        if self.trigger(site).is_some() {
            self.kill();
        }
    }

    /// Fault lookup for the `Io` sink's byte-granularity sites. Returns
    /// the firing mode without applying any policy — `SimIo` decides
    /// what `ShortWrite`/`BitFlip` mean for the bytes involved.
    pub fn io_fault(&self, site: &str) -> Option<FaultMode> {
        if !self.armed.load(Ordering::Relaxed) || self.is_dead() {
            return None;
        }
        self.trigger(site)
    }

    /// How many times `site` has fired (0 if never hit).
    pub fn fired(&self, site: &str) -> u64 {
        self.sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(site)
            .map_or(0, |s| s.fired)
    }

    /// How many times `site` has been hit while armed (0 if never).
    pub fn hits(&self, site: &str) -> u64 {
        self.sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(site)
            .map_or(0, |s| s.hits)
    }
}

/// Marker substring for injected (non-fatal) failpoint errors.
pub const INJECTED_MARKER: &str = "failpoint injected";
/// Marker substring for simulated-death failpoint errors.
pub const KILLED_MARKER: &str = "failpoint killed process";
/// Marker substring for operations attempted after simulated death.
pub const DEAD_MARKER: &str = "process is dead";

pub(crate) fn injected_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("{INJECTED_MARKER} at {site}"))
}

pub(crate) fn killed_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("{KILLED_MARKER} at {site}"))
}

pub(crate) fn dead_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("{DEAD_MARKER} (op at {site})"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_hits_are_free_and_ok() {
        let reg = FailpointRegistry::new();
        for _ in 0..1000 {
            assert!(reg.hit("store.write_batch.append").is_ok());
        }
        // Disarmed hits are not even counted — the fast path never
        // touches the site map.
        assert_eq!(reg.hits("store.write_batch.append"), 0);
    }

    #[test]
    fn error_fires_on_nth_hit_only() {
        let reg = FailpointRegistry::new();
        reg.arm("s", FaultMode::Error, 3);
        assert!(reg.hit("s").is_ok());
        assert!(reg.hit("s").is_ok());
        let err = reg.hit("s").unwrap_err();
        assert!(err.to_string().contains(INJECTED_MARKER));
        assert!(!reg.is_dead());
        // One-shot: the 4th hit passes again.
        assert!(reg.hit("s").is_ok());
        assert_eq!(reg.fired("s"), 1);
        assert_eq!(reg.hits("s"), 4);
    }

    #[test]
    fn kill_freezes_every_site() {
        let reg = FailpointRegistry::new();
        reg.arm("a", FaultMode::Kill, 1);
        let err = reg.hit("a").unwrap_err();
        assert!(err.to_string().contains(KILLED_MARKER));
        assert!(reg.is_dead());
        let err = reg.hit("b").unwrap_err();
        assert!(err.to_string().contains(DEAD_MARKER));
        reg.revive();
        assert!(reg.hit("a").is_ok());
        assert!(reg.hit("b").is_ok());
    }

    #[test]
    fn kill_point_is_silent_until_it_fires() {
        let reg = FailpointRegistry::new();
        reg.arm("flush.rotate", FaultMode::Kill, 2);
        reg.kill_point("flush.rotate");
        assert!(!reg.is_dead());
        reg.kill_point("flush.rotate");
        assert!(reg.is_dead());
        assert_eq!(reg.fired("flush.rotate"), 1);
    }

    #[test]
    fn spec_parsing_round_trip() {
        let reg = FailpointRegistry::new();
        reg.arm_spec("a=kill@3; b=error ;c=short@2;d=flip").unwrap();
        let plans = reg
            .sites
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let p = |k: &str| plans.get(k).unwrap().plan.unwrap();
        assert_eq!(p("a").mode, FaultMode::Kill);
        assert_eq!(p("a").after, 3);
        assert_eq!(p("b").mode, FaultMode::Error);
        assert_eq!(p("b").after, 1);
        assert_eq!(p("c").mode, FaultMode::ShortWrite);
        assert_eq!(p("c").after, 2);
        assert_eq!(p("d").mode, FaultMode::BitFlip);
    }

    #[test]
    fn bad_specs_are_rejected() {
        let reg = FailpointRegistry::new();
        assert!(reg.arm_spec("nonsense").is_err());
        assert!(reg.arm_spec("a=explode").is_err());
        assert!(reg.arm_spec("a=kill@zero").is_err());
    }

    #[test]
    fn short_and_flip_degrade_to_kill_at_plain_sites() {
        let reg = FailpointRegistry::new();
        reg.arm("s", FaultMode::ShortWrite, 1);
        assert!(reg.hit("s").is_err());
        assert!(reg.is_dead());
    }
}
