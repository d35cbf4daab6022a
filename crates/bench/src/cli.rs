//! Standard output for the command-line tools.
//!
//! Every line `campaign`, `trace` and `corpus` print goes through
//! [`write_stdout`], mostly by way of [`outln!`](crate::outln). A reader
//! that closes the pipe early (`trace blame ART | head -1`) has read what it
//! wanted, so a closed stdout stops the printing, not the work: the tool
//! still writes its files and exits with the status it would have. Any
//! other write error ends the tool with exit 2.

use std::fmt;
use std::io::{self, Write};

/// Writes `args` to standard output and flushes. A closed pipe drops the
/// text; any other write error ends the process with exit 2.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    let mut out = io::stdout().lock();
    if let Err(e) = out.write_fmt(args).and_then(|()| out.flush()) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to standard output: {e}");
            std::process::exit(2);
        }
    }
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
