//! One cold process at a time: spawn the release `entangle` binary, reap
//! it with `wait4`, and keep what the kernel says it cost.

use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`, in KiB) is read here.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one invocation cost and how it ended.
#[derive(Debug, Clone)]
pub struct Reaped {
    /// Spawn to exit.
    pub wall: Duration,
    /// The child's user plus system CPU time.
    pub cpu: Duration,
    /// The child's peak resident set.
    pub maxrss_kib: u64,
    /// The exit code; `None` when a signal ended it (the watchdog's
    /// `SIGKILL` after [`TIME_LIMIT`] included).
    pub code: Option<i32>,
}

/// How long one input may run before it counts as failed.
pub const TIME_LIMIT: Duration = Duration::from_secs(30);

enum Watch {
    Started(u32),
    Reaped,
}

/// Kills a child that outlives [`TIME_LIMIT`], so a hang in the checker
/// is a failed invocation and not a hung benchmark. One thread serves every
/// spawn of a run; it is outside the timed path except for two channel
/// sends.
pub struct Watchdog {
    tx: Option<Sender<Watch>>,
    thread: Option<JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let (tx, rx) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            while let Ok(Watch::Started(pid)) = rx.recv() {
                match rx.recv_timeout(TIME_LIMIT) {
                    Ok(_) => {}
                    Err(RecvTimeoutError::Timeout) => {
                        // The parent is blocked in wait4 on this pid, so it
                        // cannot have been reaped and reused.
                        let _ = Command::new("kill")
                            .args(["-KILL", &pid.to_string()])
                            .status();
                        let _ = rx.recv();
                    }
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        });
        Watchdog {
            tx: Some(tx),
            thread: Some(thread),
        }
    }

    fn send(&self, w: Watch) {
        self.tx
            .as_ref()
            .expect("sender lives until drop")
            .send(w)
            .expect("watchdog thread lives until drop");
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Runs `bin args…` in `cwd` with stdout redirected to `stdout` (a file,
/// so the child never blocks on a pipe) and stderr discarded, and reaps it.
///
/// # Panics
///
/// Panics when the binary cannot be spawned or `wait4` fails — neither is
/// an outcome of the program under test.
// The child is reaped by the wait4 call below, which `Child::wait` cannot
// stand in for: it drops the rusage.
#[allow(clippy::zombie_processes)]
pub fn run(bin: &Path, args: &[String], cwd: &Path, stdout: &Path, dog: &Watchdog) -> Reaped {
    let out = File::create(stdout).unwrap_or_else(|e| panic!("create {}: {e}", stdout.display()));
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    dog.send(Watch::Started(child.id()));
    let mut status = 0i32;
    let mut ru = Rusage::default();
    let pid = i32::try_from(child.id()).expect("pids fit in pid_t");
    // SAFETY: `status` and `ru` are live, writable and of the size and
    // layout wait4(2) fills on 64-bit Linux (checked at compile time
    // above); `pid` is a child of this process that nothing else reaps —
    // `child` is dropped without `wait`.
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    let wall = start.elapsed();
    dog.send(Watch::Reaped);
    assert_eq!(reaped, pid, "wait4 failed for pid {pid}");
    let tv = |t: &Timeval| Duration::new(t.sec as u64, (t.usec as u32) * 1000);
    Reaped {
        wall,
        cpu: tv(&ru.utime) + tv(&ru.stime),
        maxrss_kib: ru.maxrss as u64,
        // WIFEXITED / WEXITSTATUS.
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
    }
}
