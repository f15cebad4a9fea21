//! Bounded-retry thread spawning.
//!
//! `std::thread::Builder::spawn` can fail transiently (`EAGAIN` under
//! pid/memory pressure); the pipeline used to `.expect(...)` at every
//! spawn site, turning a momentary resource blip into a process abort.
//! [`spawn_thread`] retries a handful of times with a short exponential
//! backoff and then surfaces a typed [`SpawnError`] so callers can
//! decide: top-level constructors still abort (with a message that says
//! *why*), while the decode-pool supervisor downgrades a failed worker
//! replacement to a retry instead of killing the run.

use std::fmt;
use std::io;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How many times [`spawn_thread`] asks the OS before giving up.
const SPAWN_ATTEMPTS: u32 = 5;

/// A thread could not be spawned even after `SPAWN_ATTEMPTS` (5) tries.
#[derive(Debug)]
pub struct SpawnError {
    /// The name the thread would have carried.
    pub name: String,
    /// How many spawn attempts were made.
    pub attempts: u32,
    /// The error the final attempt returned.
    pub source: io::Error,
}

impl fmt::Display for SpawnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "failed to spawn thread `{}` after {} attempts: {}",
            self.name, self.attempts, self.source
        )
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Spawn a named thread, retrying transient failures with exponential
/// backoff (1, 2, 4, 8 ms between the five attempts). Returns the join
/// handle, or a [`SpawnError`] naming the thread and carrying the final
/// OS error once the retry budget is spent.
///
/// The child inherits the caller's trace recorder before `f` runs
/// ([`galiot_trace::inherit`]): every pipeline thread is born here, so
/// a pipeline records into the session of the thread that started it —
/// or, started outside any session, nowhere.
///
/// `Builder::spawn` consumes its closure even when it fails, so the
/// real closure lives in a shared slot and each attempt hands the OS a
/// cheap shim that takes it out; a failed attempt only drops the shim.
pub fn spawn_thread<F>(name: &str, f: F) -> Result<JoinHandle<()>, SpawnError>
where
    F: FnOnce() + Send + 'static,
{
    let adopt_recorder = galiot_trace::inherit();
    let f = move || {
        adopt_recorder();
        f()
    };
    let slot = Arc::new(Mutex::new(Some(f)));
    let mut attempt = 0;
    loop {
        let shim_slot = Arc::clone(&slot);
        let shim = move || {
            let body = shim_slot
                .lock()
                .expect("spawn slot poisoned")
                .take()
                .expect("spawn closure run twice");
            body();
        };
        attempt += 1;
        match thread::Builder::new().name(name.to_string()).spawn(shim) {
            Ok(handle) => return Ok(handle),
            Err(_) if attempt < SPAWN_ATTEMPTS => {
                thread::sleep(Duration::from_millis(1 << (attempt - 1)));
            }
            Err(err) => {
                return Err(SpawnError {
                    name: name.to_string(),
                    attempts: attempt,
                    source: err,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn spawned_thread_runs_and_carries_its_name() {
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let handle = spawn_thread("galiot-spawn-test", move || {
            assert_eq!(thread::current().name(), Some("galiot-spawn-test"));
            flag.store(true, Ordering::SeqCst);
        })
        .expect("spawn test thread");
        handle.join().expect("join test thread");
        assert!(ran.load(Ordering::SeqCst));
    }

    #[test]
    fn spawned_thread_inherits_the_callers_trace_session() {
        let child_enabled = |expect: bool| {
            spawn_thread("galiot-spawn-trace", move || {
                assert_eq!(galiot_trace::enabled(), expect);
            })
            .expect("spawn test thread")
            .join()
            .expect("child saw the wrong recorder");
        };
        child_enabled(false);
        let session = galiot_trace::TraceSession::start();
        child_enabled(true);
        drop(session);
        child_enabled(false);
    }

    #[test]
    fn spawn_error_displays_name_attempts_and_source() {
        let err = SpawnError {
            name: "galiot-cloud-3.1".into(),
            attempts: SPAWN_ATTEMPTS,
            source: io::Error::from_raw_os_error(11),
        };
        let msg = err.to_string();
        assert!(msg.contains("galiot-cloud-3.1"), "{msg}");
        assert!(msg.contains("5 attempts"), "{msg}");
        use std::error::Error;
        assert!(err.source().is_some());
    }
}
