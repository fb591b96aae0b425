//! `obs_diff` — localize the first divergence between two captures.
//!
//! ```text
//! obs_diff A.jsonl B.jsonl [--context K] [--json] [--out FILE]
//! ```
//!
//! Compares two JSONL trace captures using their embedded segment
//! checkpoints: the checkpoint chains are bisected to the first
//! divergent segment (O(log n) digest compares, no event bodies), then
//! only that segment's events are read to name the exact first
//! divergent `seq`, with a ±K context window and a domain
//! classification. A capture without checkpoint rows is an empty one,
//! and the streams are then compared row by row with the same verdict
//! semantics.
//!
//! Exit codes: 0 = identical, 1 = divergence found (verdict printed),
//! 2 = usage or I/O error, a damaged checkpoint chain included (a
//! missing or unparseable checkpoint row is not a verdict). `--json` prints the machine-readable
//! verdict instead of the human report; `--out FILE` additionally
//! writes the full report (text + JSON trailer) to `FILE`.

use pds2_obs::diff;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs_diff <a.jsonl> <b.jsonl> [--context K] [--json] [--out FILE]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut context_k = 3u64;
    let mut json = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--context" => match args.next().and_then(|v| v.parse().ok()) {
                Some(k) => context_k = k,
                None => return usage(),
            },
            "--json" => json = true,
            "--out" => match args.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ if arg.starts_with("--") => return usage(),
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    if paths.len() != 2 {
        return usage();
    }
    let report = match diff::diff_files(&paths[0], &paths[1], context_k) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obs_diff: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if let Some(path) = out {
        let body = format!("{}\n{}\n", report.render_text(), report.to_json());
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("obs_diff: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if report.identical() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
