//! The one writer behind everything the tool prints. A reader that goes
//! away early (`entangle num --json | head -c 10`) ends the process with
//! [`EXIT_CLOSED`] and no further output, never a panic.

use std::fmt;
use std::io::{self, Write};

/// The exit code when stdout or stderr is closed before the output is
/// written: 128 + SIGPIPE, what a shell shows for any tool a closed pipe
/// stopped.
pub(crate) const EXIT_CLOSED: i32 = 141;

/// Writes `args` to stderr (`to_stderr`) or stdout. A failed write exits
/// the process with [`EXIT_CLOSED`].
pub(crate) fn write(to_stderr: bool, args: fmt::Arguments) {
    if cfg!(test) {
        // The test harness captures `print!`, not direct writes.
        if to_stderr {
            eprint!("{args}");
        } else {
            print!("{args}");
        }
        return;
    }
    let written = if to_stderr {
        io::stderr().lock().write_fmt(args)
    } else {
        io::stdout().lock().write_fmt(args)
    };
    if written.is_err() {
        // Whatever stdout still buffers may have a reader; a closed one
        // fails again, and there is nobody left to tell.
        let _ = io::stdout().flush();
        std::process::exit(EXIT_CLOSED);
    }
}
