//! What the command-line front ends share: one usage-error convention, and
//! printing that survives a reader who leaves early.

use std::fmt;
use std::io::{self, Write};
use std::process::exit;
use std::str::FromStr;

/// A front end's name (the prefix of its error lines) and usage text.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Binary name.
    pub name: &'static str,
    /// Printed after every usage error.
    pub usage: &'static str,
}

impl Cli {
    /// A malformed command line: one line saying why, the usage, exit 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.name, self.usage);
        exit(2)
    }

    /// `value` parsed as the argument of `flag`, or a usage error.
    pub fn parse<T: FromStr>(&self, flag: &str, value: &str) -> T {
        value
            .parse()
            .unwrap_or_else(|_| self.usage_error(&format!("bad value {value:?} for {flag}")))
    }
}

/// Write to stdout. A reader that has gone (`simulate … | head -1`) ends the
/// process quietly with exit 0, where `print!` would panic; any other write
/// error exits 1. Call it through [`outln!`](crate::outln).
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        exit(1);
    }
}

/// `println!` that survives a closed stdout ([`cli::write_stdout`](crate::cli::write_stdout)).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}
