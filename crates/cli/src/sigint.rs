//! Graceful SIGINT (Ctrl-C) handling for the `scan` subcommand.
//!
//! The handler itself does the absolute minimum that is async-signal-safe:
//! it stores `true` into a process-global atomic. That atomic *is* the
//! scan's [`CancelToken`] ([`CancelToken::from_static`]), so the streaming
//! scan observes the interrupt at its next poll — an interrupted scan
//! drains its in-flight window, syncs its tile cache, and exits with the
//! *aborted-but-resumable* status instead of dying mid-write. Re-running
//! with the same `--cache <path>` finishes the scan with a byte-identical
//! report.
//!
//! Installation hands back the token and a [`SigintGuard`]; dropping the
//! guard restores the previous signal disposition, so Ctrl-C goes back to
//! killing the process once the scan is over (e.g. during
//! `--metrics-linger-ms`).
#![allow(unsafe_code)]

use hotspot_core::CancelToken;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler; read by the scan through the token
/// [`install`] returns, and cleared by the next [`install`].
static INTERRUPTED: AtomicBool = AtomicBool::new(false);
/// Whether a handler is currently installed, so nested installs (unit
/// tests running scans concurrently) don't fight over the disposition.
static INSTALLED: AtomicBool = AtomicBool::new(false);

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

/// Restores the previous signal disposition on drop (if this guard was
/// the one that installed the handler).
pub struct SigintGuard {
    /// Previous handler address to restore, when we replaced it.
    restore: Option<usize>,
}

impl Drop for SigintGuard {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Some(prev) = self.restore {
            unsafe { imp::signal(imp::SIGINT, prev) };
            INSTALLED.store(false, Ordering::SeqCst);
        }
    }
}

/// Clears any interrupt left from an earlier scan, installs the SIGINT
/// handler (first caller wins), and returns the token Ctrl-C trips.
/// Infallible by design: if the handler cannot be set up the scan simply
/// runs without graceful interrupt, which is exactly the pre-existing
/// behaviour.
pub fn install() -> (CancelToken, SigintGuard) {
    // One Ctrl-C aborts one scan: a process that scans again starts
    // uninterrupted.
    INTERRUPTED.store(false, Ordering::Relaxed);
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
    (
        CancelToken::from_static(&INTERRUPTED),
        SigintGuard { restore },
    )
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The interrupt flag is process-global, so the tests that poke it
    /// must not overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn handler_trips_the_returned_token_at_once() {
        let _serial = SERIAL.lock().unwrap();
        let (token, guard) = install();
        assert!(!token.is_cancelled());
        // Invoke the handler exactly as the kernel would.
        imp::on_sigint(imp::SIGINT);
        assert!(token.is_cancelled());
        drop(guard);
        INTERRUPTED.store(false, Ordering::Relaxed);
    }

    #[test]
    fn install_clears_an_interrupt_left_from_before() {
        let _serial = SERIAL.lock().unwrap();
        imp::on_sigint(imp::SIGINT);
        let (token, _guard) = install();
        assert!(!token.is_cancelled());
    }
}
