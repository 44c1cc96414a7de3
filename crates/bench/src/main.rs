//! `maxlength`: the reproduction's command line, one subcommand per
//! result of the paper, plus dataset generation and analysis.
//!
//! ```sh
//! maxlength help                          # every subcommand, its flags and defaults
//! maxlength table1 --scale 0.05 --csv out
//! maxlength attacks --topology 400 --trials 4
//! ```
//!
//! Every parallel path runs on `rayon::current_num_threads()` workers.
//! A bad, missing or unknown flag prints the usage on stderr and exits 2.

use std::path::PathBuf;

mod analyze;
mod attacks;
mod churn;
mod figure2;
mod figure3;
mod gen_dataset;
mod matrix;
mod overhead;
mod section6;
mod table1;
mod world;

/// A flag and its default value (`None`: unset unless given).
type Flag = (&'static str, Option<&'static str>);

const SCALE: Flag = ("--scale", Some("1"));
const TOPOLOGY: Flag = ("--topology", Some("2000"));
const TRIALS: Flag = ("--trials", Some("30"));
const CSV: Flag = ("--csv", None);

/// One subcommand: its name, its positional argument, the flags it reads
/// and its body.
struct Command {
    name: &'static str,
    positional: Option<&'static str>,
    flags: &'static [Flag],
    about: &'static str,
    run: fn(&Args),
}

const COMMANDS: &[Command] = &[
    Command {
        name: "analyze",
        positional: Some("<snapshot>"),
        flags: &[("--lint-top", Some("10"))],
        about: "Table 1, the §6 census and the lint findings of a dataset file \
                (exit 1: unreadable file, 3: critical findings)",
        run: analyze::run,
    },
    Command {
        name: "table1",
        positional: None,
        flags: &[SCALE, CSV],
        about: "Table 1: PDU counts of the seven scenarios (--csv: table1.csv, table1.md)",
        run: table1::run,
    },
    Command {
        name: "figure2",
        positional: None,
        flags: &[],
        about: "Figure 2: compress_roas on AS 31283's minimal ROA, 4 PDUs to 2",
        run: figure2::run,
    },
    Command {
        name: "figure3",
        positional: None,
        flags: &[SCALE, CSV],
        about: "Figure 3: PDUs per scenario over the eight weekly snapshots \
                (--csv: figure3a.csv, figure3b.csv)",
        run: figure3::run,
    },
    Command {
        name: "section6",
        positional: None,
        flags: &[SCALE],
        about: "§6: table validation, maxLength census, minimalization, compression bound",
        run: section6::run,
    },
    Command {
        name: "gen_dataset",
        positional: Some("<dir>"),
        flags: &[("--scale", Some("0.05")), ("--seed", None)],
        about: "the eight weekly snapshots as dataset text files \
                (no --seed: the generator's own)",
        run: gen_dataset::run,
    },
    Command {
        name: "attacks",
        positional: None,
        flags: &[TOPOLOGY, TRIALS],
        about: "§4-§5: interception per attack and ROA at five ROV adoption levels",
        run: attacks::run,
    },
    Command {
        name: "matrix",
        positional: None,
        flags: &[SCALE, TOPOLOGY, TRIALS, CSV],
        about: "the full scenario grid, weighted by the §6 census (--csv: matrix.csv, risk.csv)",
        run: matrix::run,
    },
    Command {
        name: "overhead",
        positional: None,
        flags: &[SCALE],
        about: "§7.2: compress_roas tuples and time, today and at full deployment \
                (serial and threaded), and the peak RSS",
        run: overhead::run,
    },
    Command {
        name: "churn",
        positional: None,
        flags: &[SCALE, ("--epochs", Some("24")), ("--churn", Some("64"))],
        about: "a VRP churn timeline through an RTR session, incremental vs full revalidation",
        run: churn::run,
    },
];

/// The parsed command line. A subcommand reads only the fields of the
/// flags it declares.
#[derive(Default)]
struct Args {
    /// The positional argument, for the subcommands that take one.
    path: PathBuf,
    scale: f64,
    topology: usize,
    trials: usize,
    epochs: usize,
    churn: usize,
    lint_top: usize,
    seed: Option<u64>,
    csv: Option<PathBuf>,
}

impl Args {
    /// Stores one flag's value, or says why it is not one.
    fn set(&mut self, flag: &str, raw: &str) -> Result<(), String> {
        let count = || match raw.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("{flag} takes a positive integer, not {raw:?}")),
        };
        match flag {
            "--scale" => match raw.parse::<f64>() {
                Ok(scale) if scale.is_finite() && scale > 0.0 => self.scale = scale,
                _ => return Err(format!("--scale takes a positive number, not {raw:?}")),
            },
            "--seed" => match raw.parse() {
                Ok(seed) => self.seed = Some(seed),
                Err(_) => return Err(format!("--seed takes an unsigned integer, not {raw:?}")),
            },
            "--csv" if raw.is_empty() => return Err("--csv takes a directory".into()),
            "--csv" => self.csv = Some(raw.into()),
            "--topology" => self.topology = count()?,
            "--trials" => self.trials = count()?,
            "--epochs" => self.epochs = count()?,
            "--churn" => self.churn = count()?,
            "--lint-top" => self.lint_top = count()?,
            _ => unreachable!("{flag} is declared but not stored"),
        }
        Ok(())
    }

    /// Writes `files` into the `--csv` directory, creating it, if the flag
    /// was given.
    fn write_csv(&self, files: &[(&str, String)]) {
        let Some(dir) = &self.csv else { return };
        std::fs::create_dir_all(dir).expect("create CSV directory");
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap_or_else(|e| panic!("write {name}: {e}"));
        }
        eprintln!("CSV files written to {}", dir.display());
    }
}

/// Parses the arguments after the subcommand's name, defaults first.
fn parse(command: &Command, mut rest: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    for (flag, default) in command.flags {
        if let Some(default) = default {
            args.set(flag, default).expect("defaults parse");
        }
    }
    let mut positional = None;
    while let Some(arg) = rest.next() {
        if let Some((flag, _)) = command.flags.iter().find(|(flag, _)| *flag == arg) {
            let raw = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            args.set(flag, &raw)?;
        } else if arg.starts_with('-') || command.positional.is_none() || positional.is_some() {
            return Err(format!("{} does not take {arg:?}", command.name));
        } else {
            positional = Some(arg);
        }
    }
    match (command.positional, positional) {
        (Some(name), None) => Err(format!("{} needs {name}", command.name)),
        (_, path) => Ok(Args {
            path: path.unwrap_or_default().into(),
            ..args
        }),
    }
}

/// Every subcommand with its flags; a flag's value shown is its default.
fn usage() -> String {
    let mut text = String::from(
        "usage: maxlength <subcommand> [flags]\n\n\
         A flag's value shown is its default; DIR and N have none.\n\n",
    );
    for command in COMMANDS {
        text += &format!("  {}", command.name);
        if let Some(positional) = command.positional {
            text += &format!(" {positional}");
        }
        for (flag, default) in command.flags {
            let value = default.unwrap_or(if *flag == "--csv" { "DIR" } else { "N" });
            text += &format!(" [{flag} {value}]");
        }
        text += &format!("\n      {}\n", command.about);
    }
    text
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", usage());
        return;
    }
    let parsed = match COMMANDS.iter().find(|command| command.name == name) {
        Some(command) => parse(command, argv).map(|args| (command, args)),
        None if name.is_empty() => Err("no subcommand given".into()),
        None => Err(format!("unknown subcommand {name:?}")),
    };
    match parsed {
        Ok((command, args)) => (command.run)(&args),
        Err(message) => {
            eprint!("maxlength: {message}\n\n{}", usage());
            std::process::exit(2);
        }
    }
}
