//! Regenerate the paper's tables and figures.
//!
//! ```text
//! repro [EXPERIMENT ...] [--preset scaled|paper] [--artifacts DIR]
//!       [--trace-out DIR|-] [--quiet]
//!
//! EXPERIMENT: fig1 fig2 fig3 table3 fig8 table4 table5 fig9
//!             fig10a fig10b table6 graph500 | all (default)
//! ```
//!
//! Prints each experiment's rows/series plus the paper-vs-measured claim
//! check, and writes `DIR/<id>.json` artifacts (default `artifacts/`).
//!
//! `--trace-out DIR` records every traversal an experiment executes
//! through a [`MemorySink`] and writes `DIR/<id>.trace.json` as
//! chrome://tracing JSON (load in Perfetto) for each experiment whose
//! trace is non-empty. Most experiments are analytic — they *cost*
//! traversals without executing them, so their sinks stay empty; today
//! only `recovery` drives the resilient runtime and emits events.
//! `--trace-out -` streams the chrome JSON to stdout and, matching
//! `xbfs-cli`, moves the human narration to stderr so the data stream
//! stays clean. `--quiet` silences the narration entirely.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use xbfs_bench::{run_experiment_traced, write_artifact, Preset, ALL_EXPERIMENTS};
use xbfs_core::chrome_trace_json;
use xbfs_engine::MemorySink;

/// `println!` that survives a closed stdout. When the reader goes away
/// (`repro … | head`), the narration ends but the command does not: the
/// write error is dropped, so artifacts are still written and the exit
/// status stays the command's own.
macro_rules! outln {
    ($($arg:tt)*) => {{
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Human-narration channel, mirroring `xbfs-cli`: when `--trace-out -`
/// claims stdout the narration moves to stderr; `--quiet` drops it.
struct Ui {
    quiet: bool,
    to_stderr: bool,
}

impl Ui {
    fn say(&self, msg: impl AsRef<str>) {
        if self.quiet {
            return;
        }
        if self.to_stderr {
            eprintln!("{}", msg.as_ref());
        } else {
            outln!("{}", msg.as_ref());
        }
    }
}

fn main() -> ExitCode {
    let mut preset = Preset::scaled();
    let mut artifacts_dir = PathBuf::from("artifacts");
    let mut trace_out: Option<String> = None;
    let mut quiet = false;
    let mut requested: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--preset" => {
                let Some(name) = args.next() else {
                    eprintln!("--preset needs a value (scaled|paper)");
                    return ExitCode::FAILURE;
                };
                match Preset::from_name(&name) {
                    Some(p) => preset = p,
                    None => {
                        eprintln!("unknown preset '{name}' (scaled|paper)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--artifacts" => {
                let Some(dir) = args.next() else {
                    eprintln!("--artifacts needs a directory");
                    return ExitCode::FAILURE;
                };
                artifacts_dir = PathBuf::from(dir);
            }
            "--trace-out" => {
                let Some(dest) = args.next() else {
                    eprintln!("--trace-out needs a directory (or '-' for stdout)");
                    return ExitCode::FAILURE;
                };
                trace_out = Some(dest);
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                outln!(
                    "usage: repro [EXPERIMENT ...] [--preset scaled|paper] [--artifacts DIR]\n\
                     \x20            [--trace-out DIR|-] [--quiet]\n\
                     experiments: {} | all",
                    ALL_EXPERIMENTS.join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other => requested.push(other.to_string()),
        }
    }

    let ui = Ui {
        quiet,
        to_stderr: trace_out.as_deref() == Some("-"),
    };

    let ids: Vec<&str> = if requested.is_empty() || requested.iter().any(|r| r == "all") {
        ALL_EXPERIMENTS.to_vec()
    } else {
        requested.iter().map(String::as_str).collect()
    };

    ui.say(format!(
        "preset: {} (scale shift -{})",
        preset.name, preset.scale_shift
    ));
    let mut failed_claims = 0usize;
    let mut traced = 0usize;
    for id in ids {
        let sink = MemorySink::new();
        let Some(result) = run_experiment_traced(id, &preset, &sink) else {
            eprintln!("unknown experiment '{id}'");
            return ExitCode::FAILURE;
        };
        ui.say(result.render());
        failed_claims += result.claims.iter().filter(|c| !c.holds).count();
        if let Err(e) = write_artifact(&artifacts_dir, &result) {
            eprintln!("failed to write artifact for {id}: {e}");
            return ExitCode::FAILURE;
        }
        if let Some(dest) = &trace_out {
            let events = sink.events();
            if events.is_empty() {
                ui.say(format!(
                    "{id}: analytic experiment, no traversal executed — no trace"
                ));
            } else if dest == "-" {
                if let Err(e) = std::io::stdout().write_all(chrome_trace_json(&events).as_bytes()) {
                    eprintln!("stdout: {e}");
                    return ExitCode::FAILURE;
                }
                traced += 1;
            } else {
                let dir = PathBuf::from(dest);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("{}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let path = dir.join(format!("{id}.trace.json"));
                if let Err(e) = std::fs::write(&path, chrome_trace_json(&events)) {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                ui.say(format!(
                    "wrote chrome trace to {} ({} events)",
                    path.display(),
                    events.len()
                ));
                traced += 1;
            }
        }
    }
    ui.say(format!(
        "artifacts written to {} ({} claim(s) flagged)",
        artifacts_dir.display(),
        failed_claims
    ));
    if trace_out.is_some() {
        ui.say(format!("{traced} experiment(s) produced a non-empty trace"));
    }
    ExitCode::SUCCESS
}
