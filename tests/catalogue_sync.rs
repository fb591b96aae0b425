//! OBSERVABILITY.md's metric catalogue must stay synchronized with the
//! code: every `counter!`/`gauge!`/`histogram!` call-site name in the
//! workspace needs a catalogue row, and every documented name must
//! still exist at a call site. Either direction failing means the
//! operator-facing documentation has drifted (the PR 9 staleness audit
//! found exactly this: mempool counters emitted nowhere despite being
//! the obvious forensics need).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let crates = repo_root().join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates dir").flatten() {
        let src = entry.path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(
        !files.is_empty(),
        "no rust sources found under crates/*/src"
    );
    files
}

/// The string literal following each occurrence of any of `openers`
/// (each ending in `"`) in the sources under `crates/*/src`.
fn literals_after(openers: &[&str]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for file in crate_sources() {
        let body = std::fs::read_to_string(&file).unwrap_or_default();
        for opener in openers {
            for (at, _) in body.match_indices(opener) {
                let rest = &body[at + opener.len()..];
                if let Some(end) = rest.find('"') {
                    names.insert(rest[..end].to_string());
                }
            }
        }
    }
    names
}

/// Metric names at `counter!("…")` / `gauge!("…")` / `histogram!("…")`
/// call sites under `crates/*/src`. Names with a `test.` prefix are
/// unit-test fixtures, not part of the operational surface.
fn emitted_names() -> BTreeSet<String> {
    literals_after(&["counter!(\"", "gauge!(\"", "histogram!(\""])
        .into_iter()
        .filter(|name| !name.is_empty() && !name.starts_with("test."))
        .collect()
}

fn looks_like_metric_name(s: &str) -> bool {
    s.contains('.')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || ".._".contains(c))
}

/// Expands one backtick span from the catalogue into metric names,
/// honouring the doc's `name_a/_b` suffix shorthand
/// (`market.contracts_created/_started` ⇒ both full names).
fn expand_span(span: &str, out: &mut BTreeSet<String>) {
    let parts: Vec<&str> = span.split('/').collect();
    let base = parts[0].trim();
    if !looks_like_metric_name(base) {
        return;
    }
    out.insert(base.to_string());
    for part in &parts[1..] {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(stripped) = part.strip_prefix('_') {
            // Suffix shorthand: replace the base's final _segment.
            if let Some((stem, _)) = base.rsplit_once('_') {
                out.insert(format!("{stem}_{stripped}"));
            }
        } else if looks_like_metric_name(part) {
            out.insert(part.to_string());
        }
    }
}

/// Names documented in OBSERVABILITY.md between "### Counter catalogue"
/// and the sigcache caveat (the table plus the gauges/histogram
/// paragraph).
fn documented_names() -> BTreeSet<String> {
    let doc = std::fs::read_to_string(repo_root().join("OBSERVABILITY.md"))
        .expect("OBSERVABILITY.md readable");
    let start = doc
        .find("### Counter catalogue")
        .expect("OBSERVABILITY.md must keep its '### Counter catalogue' section");
    let end = doc[start..]
        .find("### The sigcache-warmth caveat")
        .map(|o| start + o)
        .unwrap_or(doc.len());
    let section = &doc[start..end];
    let mut names = BTreeSet::new();
    let mut rest = section;
    while let Some(open) = rest.find('`') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('`') else { break };
        expand_span(&rest[..close], &mut names);
        rest = &rest[close + 1..];
    }
    names
}

#[test]
fn metric_catalogue_matches_code() {
    let emitted = emitted_names();
    let documented = documented_names();
    assert!(
        emitted.len() > 40,
        "sanity: workspace scan found only {} metric call sites",
        emitted.len()
    );

    let undocumented: Vec<&String> = emitted.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&emitted).collect();
    assert!(
        undocumented.is_empty(),
        "metrics emitted in code but missing from OBSERVABILITY.md's \
         catalogue: {undocumented:?}\n(add a row to the '### Counter \
         catalogue' section, or the gauges/histogram paragraph)"
    );
    assert!(
        stale.is_empty(),
        "metrics documented in OBSERVABILITY.md but emitted nowhere in \
         crates/*/src: {stale:?}\n(remove the stale row or restore the \
         call site)"
    );
}

/// Configuration belongs in values passed by the caller, not in the
/// process environment. A library that reads a variable makes a test's
/// verdict depend on the shell it runs in, and a read deep inside the
/// program overrides what the caller built: a snapshot restore once put
/// a chain built on the full-rehash oracle back on the SMT that way. So
/// no source under `crates/*/src` reads any environment variable, at run
/// time (`env::var`, `var_os`, `vars`) or at build time (`env!`,
/// `option_env!`).
#[test]
fn env_knobs_do_not_grow() {
    let readers: Vec<PathBuf> = crate_sources()
        .into_iter()
        .filter(|file| {
            let body = std::fs::read_to_string(file).unwrap_or_default();
            body.contains("env::var") || body.contains("env!(")
        })
        .collect();
    assert!(
        readers.is_empty(),
        "these sources read the process environment; take the value as a \
         parameter or a config field instead: {readers:?}"
    );
}

/// The program runs on the calling thread. A fan-out that nothing
/// measures is a second code path for one result, tested by a different
/// harness than the one the benchmark runs; a parallel site comes back
/// only as a change that measures it on a host with more than two cores
/// (ROADMAP, Parked). So no source under `crates/*/src` starts a thread
/// (`thread::spawn`, `thread::scope`, `thread::Builder`).
#[test]
fn library_crates_spawn_no_threads() {
    let spawners: Vec<PathBuf> = crate_sources()
        .into_iter()
        .filter(|file| {
            let body = std::fs::read_to_string(file).unwrap_or_default();
            ["thread::spawn", "thread::scope", "thread::Builder"]
                .iter()
                .any(|call| body.contains(call))
        })
        .collect();
    assert!(
        spawners.is_empty(),
        "these sources start threads; run the work on the calling thread: \
         {spawners:?}"
    );
}

/// `pub fn`s under `crates/chain/src/chain/`, the `Blockchain` type and
/// its proof helpers, may only shrink: a new entry point replaces an old
/// one (as `submit_batch` replaced `reinstate_transactions`).
const BLOCKCHAIN_PUB_FNS: usize = 29;

#[test]
fn blockchain_surface_does_not_grow() {
    let mut files = Vec::new();
    rust_sources(&repo_root().join("crates/chain/src/chain"), &mut files);
    assert!(!files.is_empty(), "no sources under crates/chain/src/chain");
    let count: usize = files
        .iter()
        .map(|file| {
            let body = std::fs::read_to_string(file).unwrap_or_default();
            body.matches("pub fn ").count()
        })
        .sum();
    assert!(
        count <= BLOCKCHAIN_PUB_FNS,
        "{count} `pub fn` under crates/chain/src/chain/, more than \
         {BLOCKCHAIN_PUB_FNS}: retire an entry point for each one added"
    );
}
