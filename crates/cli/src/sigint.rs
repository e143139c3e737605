//! Graceful SIGINT (Ctrl-C) handling for the `scan` subcommand.
//!
//! The handler itself does the absolute minimum that is async-signal-safe:
//! it stores `true` into a process-global atomic. A detached watcher
//! thread polls that flag every ~25 ms and trips the scan's
//! [`CancelToken`], which the streaming scan loop observes at the next
//! batch boundary — so an interrupted scan drains its in-flight window,
//! syncs its tile cache, and exits with the *aborted-but-resumable* status
//! instead of dying mid-write. Re-running with the same `--cache <path>`
//! finishes the scan with a byte-identical report.
//!
//! Installation hands back a [`SigintGuard`]; dropping it stops the
//! watcher and restores the previous signal disposition, so Ctrl-C goes
//! back to killing the process once the scan is over (e.g. during
//! `--metrics-linger-ms`).
#![allow(unsafe_code)]

use hotspot_core::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the signal handler, consumed (swapped back to `false`) by the
/// watcher thread of the scan it aborts.
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// Whether a handler is currently installed, so nested installs (unit
/// tests running scans concurrently) don't fight over the disposition.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// How often the watcher thread polls the interrupt flag.
const POLL: Duration = Duration::from_millis(25);

#[cfg(unix)]
mod imp {
    /// POSIX signal number for Ctrl-C.
    pub const SIGINT: i32 = 2;
    /// `SIG_ERR` as returned by `signal(2)`.
    pub const SIG_ERR: usize = usize::MAX;

    extern "C" {
        /// C standard library `signal(2)`: handlers are passed and
        /// returned as plain addresses so no libc types are needed.
        pub fn signal(signum: i32, handler: usize) -> usize;
    }

    /// The installed handler: one relaxed atomic store, nothing else —
    /// the only operations permitted in async-signal context.
    pub extern "C" fn on_sigint(_sig: i32) {
        super::INTERRUPTED.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Keeps the SIGINT watcher alive; dropping it stops the watcher thread
/// and restores the previous signal disposition (if this guard was the
/// one that installed the handler).
pub struct SigintGuard {
    stop: Arc<AtomicBool>,
    /// Previous handler address to restore, when we replaced it.
    restore: Option<usize>,
}

impl Drop for SigintGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        #[cfg(unix)]
        if let Some(prev) = self.restore {
            unsafe { imp::signal(imp::SIGINT, prev) };
            INSTALLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Installs the SIGINT handler (first caller wins) and spawns a watcher
/// thread that trips `token` when Ctrl-C arrives. Infallible by design:
/// if the handler or thread cannot be set up the scan simply runs
/// without graceful interrupt, which is exactly the pre-existing
/// behaviour.
pub fn install(token: CancelToken) -> SigintGuard {
    let mut restore = None;
    #[cfg(unix)]
    if !INSTALLED.swap(true, Ordering::SeqCst) {
        let handler: extern "C" fn(i32) = imp::on_sigint;
        let prev = unsafe { imp::signal(imp::SIGINT, handler as usize) };
        if prev == imp::SIG_ERR {
            INSTALLED.store(false, Ordering::SeqCst);
        } else {
            restore = Some(prev);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let watcher_stop = Arc::clone(&stop);
    let spawned = std::thread::Builder::new()
        .name("sigint-watch".into())
        .spawn(move || {
            while !watcher_stop.load(Ordering::Relaxed) {
                // `swap` consumes the flag so one Ctrl-C aborts one scan;
                // a process that scans again starts uninterrupted.
                if INTERRUPTED.swap(false, Ordering::Relaxed) {
                    token.cancel();
                    return;
                }
                std::thread::park_timeout(POLL);
            }
        });
    if spawned.is_err() {
        stop.store(true, Ordering::Relaxed);
    }
    SigintGuard { stop, restore }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Instant;

    /// The interrupt flag is process-global, so the tests that poke it
    /// must not overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn handler_trips_the_token_via_the_watcher() {
        let _serial = SERIAL.lock().unwrap();
        INTERRUPTED.store(false, Ordering::Relaxed);
        let token = CancelToken::new();
        let guard = install(token.clone());
        // Invoke the handler exactly as the kernel would.
        imp::on_sigint(imp::SIGINT);
        let started = Instant::now();
        while !token.is_cancelled() {
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "watcher never tripped the token"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(guard);
    }

    #[test]
    fn dropping_the_guard_stops_the_watcher() {
        let _serial = SERIAL.lock().unwrap();
        INTERRUPTED.store(false, Ordering::Relaxed);
        let token = CancelToken::new();
        let guard = install(token.clone());
        drop(guard);
        // Give the watcher a full poll interval to observe the stop flag,
        // then raise: with the watcher gone nothing consumes the
        // interrupt, and the token must stay untripped.
        std::thread::sleep(POLL * 3);
        imp::on_sigint(imp::SIGINT);
        std::thread::sleep(POLL * 3);
        assert!(!token.is_cancelled());
        INTERRUPTED.store(false, Ordering::Relaxed);
    }
}
