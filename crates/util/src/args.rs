//! One argument grammar for the workspace's binaries.
//!
//! A command declares the flags that take a value (`--seed 7`) and the
//! switches that stand alone (`--quick`), and [`Args::new`] makes one pass
//! over argv against them. It refuses an undeclared flag, a bare word, a
//! flag given twice and a value flag without its value (no next token, or
//! one that starts with `--`); each error names the token. The getters
//! read the rest, so the declaration is the one place a command's flags
//! are spelled, and a bad value reads `bad <flag> value "<v>"` everywhere.
//!
//! ```
//! # use perfdojo_util::args::Args;
//! let argv: Vec<String> = ["--seed", "7", "--quick"].map(String::from).to_vec();
//! let a = Args::new(&argv, &["--seed", "--out"], &["--quick"]).unwrap();
//! assert_eq!(a.parse::<u64>("--seed"), Ok(Some(7)));
//! assert!(a.has("--quick") && a.required("--out").is_err());
//! ```

use std::str::FromStr;

/// The flags one command line gave, checked against the command's
/// declaration.
#[derive(Debug)]
pub struct Args {
    declared: [&'static [&'static str]; 2],
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `argv` (the tokens after the program and subcommand names)
    /// against the declared flags: each of `values` takes the next token
    /// as its value, and each of `switches` stands alone.
    pub fn new(
        argv: &[String],
        values: &'static [&'static str],
        switches: &'static [&'static str],
    ) -> Result<Args, String> {
        let mut given: Vec<(&'static str, Option<String>)> = Vec::new();
        let mut tokens = argv.iter().peekable();
        while let Some(token) = tokens.next() {
            let Some(&flag) = values.iter().chain(switches).find(|f| *f == token) else {
                return Err(if token.starts_with("--") {
                    let all: Vec<&str> = values.iter().chain(switches).copied().collect();
                    format!("unknown flag {token:?}; accepted: {}", all.join(" "))
                } else {
                    format!("unexpected argument {token:?}: not a flag or a flag's value")
                });
            };
            if given.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = if switches.contains(&flag) {
                None
            } else {
                let value = tokens.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| format!("{flag} needs a value"))?.clone())
            };
            given.push((flag, value));
        }
        Ok(Args { declared: [values, switches], given })
    }

    fn find(&self, flag: &str) -> Option<&Option<String>> {
        debug_assert!(self.declared.concat().contains(&flag), "{flag} is not declared");
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| v)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The value of `flag`, if it was given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.find(flag)?.as_deref()
    }

    /// The value of `flag`, which must be given.
    pub fn required(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("{flag} is required"))
    }

    /// The value of `flag` parsed as a `T`, if it was given.
    pub fn parse<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.parse_with(flag, |v| v.parse().ok())
    }

    /// The value of `flag` read by `read`, if it was given; `read`
    /// returning `None` is a bad value.
    pub fn parse_with<T>(
        &self,
        flag: &str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(flag) {
            None => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| format!("bad {flag} value {v:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::new(&argv, &["--seed", "--out"], &["--quick"])
    }

    #[test]
    fn reads_values_switches_and_absent_flags() {
        let a = parse(&["--out", "lib.pdl", "--quick", "--seed", "-1"]).unwrap();
        assert_eq!(a.get("--out"), Some("lib.pdl"));
        assert_eq!(a.required("--out"), Ok("lib.pdl"));
        assert!(a.has("--quick") && a.has("--seed"));
        // a value may start with one dash
        assert_eq!(a.parse::<i64>("--seed"), Ok(Some(-1)));
        let empty = parse(&[]).unwrap();
        assert!(!empty.has("--quick"));
        assert_eq!(empty.parse::<u64>("--seed"), Ok(None));
        assert_eq!(empty.required("--out"), Err("--out is required".to_string()));
    }

    #[test]
    fn a_bad_value_has_one_wording() {
        let a = parse(&["--seed", "x7"]).unwrap();
        assert_eq!(a.parse::<u64>("--seed"), Err(r#"bad --seed value "x7""#.to_string()));
        let odd = |v: &str| v.parse::<u64>().ok().filter(|n| n % 2 == 1);
        assert_eq!(a.parse_with("--seed", odd), Err(r#"bad --seed value "x7""#.to_string()));
        let a = parse(&["--seed", "8"]).unwrap();
        assert!(a.parse_with("--seed", odd).is_err());
        assert_eq!(parse(&["--seed", "9"]).unwrap().parse_with("--seed", odd), Ok(Some(9)));
    }

    #[test]
    fn every_malformed_line_is_refused_naming_its_token() {
        for (argv, token) in [
            (&["--seeed", "5"][..], "--seeed"),
            (&["--out", "a.pdl", "relu"], "relu"),
            (&["relu", "--out", "a.pdl"], "relu"),
            (&["--seed", "1", "--seed", "2"], "--seed"),
            (&["--quick", "--quick"], "--quick"),
            (&["--out"], "--out"),
            (&["--out", "--quick"], "--out"),
            (&["--quick", "yes"], "yes"),
            (&["--"], "--"),
        ] {
            let e = parse(argv).expect_err(&format!("{argv:?} parsed"));
            assert!(e.contains(token), "{argv:?}: {e}");
        }
        let e = parse(&["--seeed", "5"]).unwrap_err();
        assert!(e.ends_with("accepted: --seed --out --quick"), "{e}");
    }
}
