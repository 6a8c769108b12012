//! Shared plumbing for the reproduction harness binaries.
//!
//! Every `repro-*` binary regenerates one table or figure of Peh & Dally,
//! HPCA 2001, printing the same rows/series the paper reports. Simulated
//! figures accept a scale argument:
//!
//! ```text
//! repro-fig13 [quick|medium|paper] [--csv]
//! ```
//!
//! The closed-form binaries (`repro-table1`, `repro-fig11`,
//! `repro-fig12`, `repro-models`) take no argument. Every binary exits
//! with status 2 and a usage line naming the argument it does not know.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jobfile;
pub mod meta;
pub mod queued;

use noc_network::NetworkConfig;
use peh_dally::SimScale;

/// Options parsed from a harness binary's command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HarnessOptions {
    /// Simulation scale.
    pub scale: SimScale,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

/// Parses harness options from `args` (excluding the program name).
///
/// Unknown arguments are rejected with an explanatory `Err` so binaries
/// can print usage.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<HarnessOptions, String> {
    let mut opts = HarnessOptions {
        scale: SimScale::quick(),
        csv: false,
    };
    for arg in args {
        match arg.as_str() {
            "quick" => opts.scale = SimScale::quick(),
            "medium" => opts.scale = SimScale::medium(),
            "paper" => opts.scale = SimScale::paper(),
            "--csv" => opts.csv = true,
            other => {
                return Err(format!(
                    "unknown argument '{other}'; usage: [quick|medium|paper] [--csv]"
                ))
            }
        }
    }
    Ok(opts)
}

/// Accepts an empty argument list and rejects any argument with an
/// explanatory `Err`: the closed-form binaries take none.
pub fn parse_no_args<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    match args.into_iter().next() {
        Some(arg) => Err(format!(
            "unknown argument '{arg}'; usage: takes no arguments"
        )),
        None => Ok(()),
    }
}

/// The parsed process argv, or exit with status 2 and the error (a
/// usage line) on stderr.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Parses harness options from the process argv, exiting with status 2
/// (and usage on stderr) when they do not parse — the shared front door
/// of every simulated-figure binary and `repro-ablations`.
#[must_use]
pub fn harness_options_or_exit() -> HarnessOptions {
    or_exit(parse_args(std::env::args().skip(1)))
}

/// Exits with status 2 (and usage on stderr) if the process has any
/// argument — the front door of the closed-form binaries.
pub fn no_args_or_exit() {
    or_exit(parse_no_args(std::env::args().skip(1)));
}

/// Runs a simulated-figure binary: parses the harness arguments, builds
/// the figure's series as one run-queue batch
/// ([`queued::queued_figure`], with per-point progress on stderr unless
/// `--csv`), and prints it — CSV on `--csv`, otherwise the aligned
/// table followed by the ASCII chart.
pub fn figure_main(name: &str, configs: Vec<(String, NetworkConfig)>) {
    let opts = harness_options_or_exit();
    let fig = queued::queued_figure(name, configs, opts.scale, !opts.csv);
    if opts.csv {
        print!("{}", peh_dally::report::figure_csv(&fig));
    } else {
        print!("{}", peh_dally::report::figure_table(&fig));
        println!();
        print!("{}", peh_dally::report::figure_chart(&fig, 60, 18));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quick_table() {
        let opts = parse_args(Vec::new()).unwrap();
        assert_eq!(opts.scale, SimScale::quick());
        assert!(!opts.csv);
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn each_scale_keyword_parses() {
        for (word, scale) in [
            ("quick", SimScale::quick()),
            ("medium", SimScale::medium()),
            ("paper", SimScale::paper()),
        ] {
            let opts = parse_args(args(&[word])).unwrap();
            assert_eq!(opts.scale, scale, "scale keyword {word}");
            assert!(!opts.csv);
        }
    }

    #[test]
    fn paper_and_csv_parse() {
        let opts = parse_args(args(&["paper", "--csv"])).unwrap();
        assert_eq!(opts.scale, SimScale::paper());
        assert!(opts.csv);
    }

    #[test]
    fn csv_flag_position_does_not_matter() {
        let before = parse_args(args(&["--csv", "medium"])).unwrap();
        let after = parse_args(args(&["medium", "--csv"])).unwrap();
        assert_eq!(before, after);
        assert_eq!(before.scale, SimScale::medium());
        assert!(before.csv);
    }

    #[test]
    fn later_scale_keyword_wins() {
        let opts = parse_args(args(&["quick", "paper"])).unwrap();
        assert_eq!(opts.scale, SimScale::paper());
    }

    #[test]
    fn unknown_arg_is_rejected() {
        assert!(parse_args(args(&["--frobnicate"])).is_err());
        assert!(
            parse_args(args(&["QUICK"])).is_err(),
            "keywords are lowercase"
        );
        assert!(parse_args(args(&[""])).is_err());
        // A valid prefix does not rescue a trailing unknown argument.
        assert!(parse_args(args(&["paper", "--csv", "extra"])).is_err());
    }

    #[test]
    fn rejection_message_names_the_argument_and_usage() {
        let err = parse_args(args(&["bogus"])).unwrap_err();
        assert!(
            err.contains("'bogus'"),
            "message must name the argument: {err}"
        );
        assert!(err.contains("usage"), "message must show usage: {err}");
    }

    #[test]
    fn no_args_accepts_only_an_empty_argv() {
        assert_eq!(parse_no_args(Vec::new()), Ok(()));
        for argv in [&["bogus"][..], &["quick"], &["--csv"], &[""], &["x", "y"]] {
            let err = parse_no_args(args(argv)).unwrap_err();
            assert!(
                err.contains(&format!("'{}'", argv[0])),
                "message must name the argument: {err}"
            );
            assert!(err.contains("usage"), "message must show usage: {err}");
        }
    }
}
