//! # rr-cli — the `rr` command-line tool
//!
//! A thin, dependency-free front end over the workspace, shaped like the
//! toolchain a downstream user would actually drive:
//!
//! ```text
//! rr asm program.s -o program.rfx          # assemble + link
//! rr run program.rfx --input 7391          # execute on the emulator
//! rr disasm program.rfx                    # reassembleable disassembly
//! rr analyze program.rfx [--json]          # static vulnerability report
//! rr fault program.rfx --good 7391 --bad 0000 [--model bitflip,skip]
//! rr harden program.rfx --good 7391 --bad 0000 -o hardened.rfx
//! rr hybrid program.rfx -o hardened.rfx    # lift → harden pass → lower
//! rr workload pincheck -o pincheck.rfx     # emit a bundled case study
//! ```
//!
//! The library exposes [`run`] so tests can drive the CLI in-process.

#![forbid(unsafe_code)]

mod commands;

use std::fmt::Write as _;

/// Executes the CLI with pre-split arguments, returning the process exit
/// code (0 = success). Output goes to stdout/stderr.
pub fn run(args: Vec<String>) -> i32 {
    match dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            0
        }
        Err(message) => {
            eprintln!("error: {message}");
            1
        }
    }
}

/// Executes the CLI and captures stdout text (test entry point).
///
/// # Errors
///
/// Returns the human-readable error message the binary would print.
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let mut out = String::new();
    let Some(command) = args.first() else {
        let _ = write!(out, "{}", usage());
        return Ok(out);
    };
    let rest = &args[1..];
    match command.as_str() {
        "asm" => commands::asm(rest),
        "run" => commands::run(rest),
        "disasm" => commands::disasm(rest),
        "analyze" => commands::analyze(rest),
        "fault" => commands::fault(rest),
        "harden" => commands::harden(rest),
        "hybrid" => commands::hybrid(rest),
        "workload" => commands::workload(rest),
        "help" | "--help" | "-h" => Ok(usage().to_owned()),
        other => Err(format!("unknown command `{other}`; try `rr help`")),
    }
}

/// The top-level usage text.
pub fn usage() -> &'static str {
    "rr — rewrite binaries to reinforce them against fault injection\n\
     \n\
     USAGE:\n\
     \x20   rr asm <input.s> [-o out.rfx]\n\
     \x20   rr run <prog.rfx> [--input BYTES] [--max-steps N]\n\
     \x20   rr disasm <prog.rfx> [--policy naive|refined]\n\
     \x20   rr analyze <prog.rfx> [--json]\n\
     \x20   rr fault <prog.rfx> --bad BYTES [--good BYTES]\n\
     \x20            [--model skip|bitflip|flagflip[,…]] [--engine naive|checkpoint]\n\
     \x20            [--exec interp|uops] [--threads N]\n\
     \x20            [--oracle golden|crash|prefix:TEXT] [--streaming]\n\
     \x20            [--order N] [--pair-window N] [--plan-budget N] [--seed N]\n\
     \x20            [--no-static-prune] [--audit-analysis]\n\
     \x20            [--trace-out FILE] [--metrics FILE] [--progress] [--quiet]\n\
     \x20   rr harden <prog.rfx> --good BYTES --bad BYTES [--model ...] [-o out.rfx]\n\
     \x20            [--engine naive|checkpoint] [--exec interp|uops]\n\
     \x20            [--no-incremental] [--max-iterations N] [--threads N]\n\
     \x20            [--order N] [--pair-window N] [--plan-budget N] [--seed N]\n\
     \x20            [--no-static-prune] [--audit-analysis]\n\
     \x20            [--trace-out FILE] [--metrics FILE] [--progress] [--quiet]\n\
     \x20   rr hybrid <prog.rfx> [-o out.rfx] [--copies N]\n\
     \x20            [--good BYTES --bad BYTES [--model ...]]\n\
     \x20   rr workload <pincheck|bootloader|otp|access> [-o out.rfx] [--emit-asm]\n\
     \n\
     BYTES arguments are literal ASCII (e.g. --good 7391). Campaign\n\
     sessions use the checkpointed replay engine unless --engine naive is\n\
     given, and the uop tier (blocks decoded once into micro-ops)\n\
     unless --exec interp is given (bit-identical results\n\
     either way). Every command rejects an option it does not declare.\n\
     All --model entries share one scheduling pass; --streaming\n\
     folds results into per-model summaries, holding only the sampled\n\
     sites plus one batch of plans (order >= 2 adds one model's faults\n\
     at each site at a time), for million-fault campaigns. The default\n\
     golden oracle needs --good; --oracle crash and --oracle prefix:TEXT\n\
     campaign a single input.\n\
     --order 2 evaluates double-fault plans too (--pair-window bounds the\n\
     step gap between the two injections; --plan-budget caps each order\n\
     by seeded sampling, --seed makes the sample reproducible and is\n\
     echoed in the report header). harden iterates until no order-≤N\n\
     success remains. Hardening re-campaigns are incremental by default:\n\
     each patch's listing delta carries prior classifications for\n\
     untouched sites (bit-identical results; the reuse: line shows the\n\
     work saved). --no-incremental restores the full re-campaign\n\
     baseline. analyze disassembles without executing and reports, per\n\
     recovered function, the unprotected compare/branch single points of\n\
     failure plus the share of fault effects the dataflow analysis proves\n\
     benign (--json emits the rr-analyze-v1 document). fault and harden\n\
     consult the same analysis to prune provably-benign plans before\n\
     enumeration (--no-static-prune disables it; --audit-analysis instead\n\
     executes pruned plans too and fails if any classifies non-benign).\n\
     Observability: --trace-out streams one JSON event per\n\
     span to FILE (one object per line, schema rr-trace-v1), --metrics\n\
     writes the final counters/timings snapshot as JSON (rr-metrics-v1),\n\
     --progress paints a live plans/throughput/ETA line on stderr, and\n\
     --quiet suppresses the report body; harden additionally prints one\n\
     telemetry line per faulter iteration when any of those is active.\n"
}

/// Minimal option parser: positional arguments plus `--key value` /
/// `-o value` pairs and boolean `--flag`s. Every option must be declared
/// by the command, as taking a value or as a boolean flag; anything else
/// is an error that names it.
pub(crate) struct Args {
    positional: Vec<String>,
    options: Vec<(String, Option<String>)>,
}

impl Args {
    pub(crate) fn parse(
        args: &[String],
        value_flags: &[&str],
        bool_flags: &[&str],
    ) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix('-').map(|a| a.trim_start_matches('-')) {
                if value_flags.contains(&name) {
                    let value =
                        iter.next().ok_or_else(|| format!("option `{arg}` needs a value"))?.clone();
                    options.push((name.to_owned(), Some(value)));
                } else if bool_flags.contains(&name) {
                    options.push((name.to_owned(), None));
                } else {
                    return Err(format!("unknown option `{arg}`; try `rr help`"));
                }
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(Args { positional, options })
    }

    pub(crate) fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positional.get(index).map(String::as_str).ok_or_else(|| format!("missing {what}"))
    }

    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.options.iter().rev().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The value of `--name` parsed as `T`, if given; a parse error
    /// names the option.
    pub(crate) fn parsed<T: std::str::FromStr<Err = String>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        self.value(name).map(|v| v.parse().map_err(|e| format!("--{name}: {e}"))).transpose()
    }

    pub(crate) fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name).ok_or_else(|| format!("missing required option --{name}"))
    }

    pub(crate) fn flag(&self, name: &str) -> bool {
        self.options.iter().any(|(n, v)| n == name && v.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn no_args_prints_usage() {
        let out = dispatch(&[]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = dispatch(&sv(&["frobnicate"])).unwrap_err();
        assert!(err.contains("frobnicate"));
    }

    #[test]
    fn arg_parser_splits_options() {
        let args = Args::parse(
            &sv(&["prog.rfx", "--good", "7391", "--emit-asm", "-o", "x"]),
            &["good", "o"],
            &["emit-asm"],
        )
        .unwrap();
        assert_eq!(args.positional(0, "program").unwrap(), "prog.rfx");
        assert_eq!(args.value("good"), Some("7391"));
        assert_eq!(args.value("o"), Some("x"));
        assert!(args.flag("emit-asm"));
        assert!(!args.flag("good"));
        assert!(args.positional(1, "x").is_err());
        assert!(args.required("bad").is_err());
        // An undeclared option is an error naming it, not a stray
        // boolean flag.
        let err = Args::parse(&sv(&["prog.rfx", "--emit-asn"]), &["good", "o"], &["emit-asm"])
            .err()
            .expect("undeclared options are rejected");
        assert!(err.contains("--emit-asn"), "{err}");
    }

    #[test]
    fn option_missing_value_errors() {
        assert!(Args::parse(&sv(&["--good"]), &["good"], &[]).is_err());
    }
}
