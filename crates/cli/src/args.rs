//! A minimal `--flag value` argument parser (no external dependencies).

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::process::ExitCode;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--switch` options.
///
/// Every lookup records the flag name, so once a subcommand has looked up
/// all the flags it understands, [`Args::reject_unread`] can refuse the
/// rest instead of silently ignoring them.
#[derive(Debug, Default)]
pub struct Args {
    pub command: Option<String>,
    pub positional: Vec<String>,
    options: HashMap<String, String>,
    switches: Vec<String>,
    read: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parses `argv[1..]`: the first non-flag token is the subcommand,
    /// later non-flag tokens are positional. A `--key` followed by a
    /// non-flag token consumes it as the value; a trailing or
    /// flag-followed `--key` is a boolean switch.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        out.options.insert(key.to_owned(), value);
                    }
                    _ => out.switches.push(key.to_owned()),
                }
            } else if out.command.is_none() {
                out.command = Some(tok);
            } else {
                out.positional.push(tok);
            }
        }
        out
    }

    /// A typed option with a default.
    ///
    /// Exits with status 2 on a malformed value, printing the type's own
    /// parse error (e.g. an unknown `--scan-mode` name lists the valid
    /// set). Use [`Args::try_get`] where the caller wants the error
    /// instead of the exit.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Display,
    {
        self.try_get(key, default).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// [`Args::get`] that surfaces the parse failure instead of exiting:
    /// `Err` carries `--key value: <the type's parse error>`.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get_str(key) {
            Some(raw) => raw.parse().map_err(|e| format!("--{key} {raw}: {e}")),
            None => Ok(default),
        }
    }

    /// A string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.mark_read(key);
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean switch was passed.
    pub fn has(&self, key: &str) -> bool {
        self.mark_read(key);
        self.switches.iter().any(|s| s == key)
    }

    fn mark_read(&self, key: &str) {
        self.read.borrow_mut().insert(key.to_owned());
    }

    /// The flags on the command line that no lookup has asked for, as
    /// `--name`, sorted.
    pub fn unread(&self) -> Vec<String> {
        let read = self.read.borrow();
        let given: BTreeSet<&String> = self.options.keys().chain(&self.switches).collect();
        given
            .into_iter()
            .filter(|key| !read.contains(*key))
            .map(|key| format!("--{key}"))
            .collect()
    }

    /// Refuses a command line carrying flags the subcommand did not read:
    /// prints an error naming each one and returns exit status 2. Call it
    /// once the subcommand has looked up every flag it understands, before
    /// it does any work.
    pub fn reject_unread(&self) -> Result<(), ExitCode> {
        let unread = self.unread();
        if unread.is_empty() {
            return Ok(());
        }
        eprintln!(
            "error: {} does not accept {}",
            self.command.as_deref().unwrap_or("cluseq"),
            unread.join(", ")
        );
        Err(ExitCode::from(2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_command_and_positionals() {
        let a = parse("cluster input.txt more.txt");
        assert_eq!(a.command.as_deref(), Some("cluster"));
        assert_eq!(a.positional, vec!["input.txt", "more.txt"]);
    }

    #[test]
    fn parses_typed_options() {
        let a = parse("generate --sequences 500 --avg-len 120");
        assert_eq!(a.get("sequences", 0usize), 500);
        assert_eq!(a.get("avg-len", 0usize), 120);
        assert_eq!(a.get("missing", 7u32), 7);
    }

    #[test]
    fn parses_switches() {
        let a = parse("cluster --verbose --seed 3 --quiet");
        assert!(a.has("verbose"));
        assert!(a.has("quiet"));
        assert!(!a.has("seed"));
        assert_eq!(a.get("seed", 0u64), 3);
    }

    #[test]
    fn empty_argv() {
        let a = parse("");
        assert!(a.command.is_none());
        assert!(a.positional.is_empty());
    }

    #[test]
    fn try_get_surfaces_parse_errors_with_flag_context() {
        let a = parse("cluster --sequences banana");
        let err = a.try_get("sequences", 0usize).unwrap_err();
        assert!(err.starts_with("--sequences banana:"), "{err}");
        assert_eq!(a.try_get("missing", 7u32), Ok(7));
    }

    #[test]
    fn unread_names_every_flag_no_lookup_asked_for() {
        let a = parse("cluster data.txt --seed 3 --scan-kernel quantized --verbose --quiet");
        assert_eq!(a.get("seed", 0u64), 3);
        assert!(a.has("verbose"));
        // Looking up a flag that was not given is harmless.
        assert!(a.get_str("trace").is_none());
        assert_eq!(a.unread(), vec!["--quiet", "--scan-kernel"]);
        assert_eq!(a.reject_unread(), Err(ExitCode::from(2)));
        assert!(a.has("quiet") && a.get_str("scan-kernel").is_some());
        assert!(a.unread().is_empty());
        assert_eq!(a.reject_unread(), Ok(()));
    }
}
