//! OBSERVABILITY.md's metric catalogue must stay synchronized with the
//! code: every `counter!`/`gauge!`/`histogram!` call-site name in the
//! workspace needs a catalogue row, and every documented name must
//! still exist at a call site. Either direction failing means the
//! operator-facing documentation has drifted (the PR 9 staleness audit
//! found exactly this: mempool counters emitted nowhere despite being
//! the obvious forensics need).

use std::collections::{BTreeMap, BTreeSet};
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

/// A replica fleet is built in one place, `pds2_bench::fleet`: a scenario
/// differs from another in its fault plan, its seed and the fields of
/// `Fleet` it sets, never in a genesis, a link or a replica constructor
/// of its own. So outside `crates/chain/src/sync.rs` (the type and its
/// unit tests) and `crates/bench/src/fleet.rs`, no source under
/// `crates/*/src`, `tests/` or `examples/` constructs a `ChainReplica`.
#[test]
fn replica_fleets_are_built_in_one_place() {
    let mut files = crate_sources();
    rust_sources(&repo_root().join("tests"), &mut files);
    rust_sources(&repo_root().join("examples"), &mut files);
    let allowed = ["crates/chain/src/sync.rs", "crates/bench/src/fleet.rs"];
    // Split so that this file does not match itself.
    let needle = concat!("ChainReplica", "::new");
    let builders: Vec<PathBuf> = files
        .into_iter()
        .filter(|file| !allowed.iter().any(|a| file.ends_with(a)))
        .filter(|file| {
            let body = std::fs::read_to_string(file).unwrap_or_default();
            body.contains(needle)
        })
        .collect();
    assert!(
        builders.is_empty(),
        "these sources build chain replicas; take a fleet from \
         `pds2_bench::fleet::Fleet` instead: {builders:?}"
    );
}

/// Whether `file` is a unit-test module of its own (`#[cfg(test)] mod
/// tests;`), none of whose lines are production code.
fn is_test_module(file: &Path) -> bool {
    file.file_name().is_some_and(|name| name == "tests.rs")
}

/// The lines of `body` above its first `#[cfg(test)]`, without `//`
/// comment lines.
fn production_lines(body: &str) -> Vec<&str> {
    body.lines()
        .take_while(|line| line.trim() != "#[cfg(test)]")
        .filter(|line| !line.trim_start().starts_with("//"))
        .collect()
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// Public items that no production code names, each with the reason it
/// stays. "Item n" is a ROADMAP item.
const CALLERLESS_PUB_ITEMS: &[(&str, &str)] = &[
    ("check_invariants", "test hook: mempool consistency"),
    ("truncate_tail", "fault injector: torn journal tail"),
    ("corrupt_bit", "fault injector: flipped journal bit"),
    ("counter_deltas", "test hook: per-run counter deltas"),
    ("key_rows_held", "test hook: row cache size"),
    ("key_rows_cached", "test hook: row cache membership"),
    ("batch_randomisers", "test hook: batch coefficients"),
    ("drop_kind", "fault injector: drop a message kind"),
    ("has_store", "test hook: whether a chain journals"),
    ("share_epoch", "test hook: a validator's share epoch"),
    ("scheduler_kind", "test hook: the simulator's scheduler"),
    ("backend_name", "test hook: the state commitment"),
    ("o_sort_comparisons", "test hook: sorting network size"),
    ("to_u128", "test hook: bigint proptests vs u128"),
    ("decode_fixed", "test hook: inverse of encode_fixed"),
    ("dot_naive", "reference oracle: the unrolled dot"),
    ("verify_reference", "reference oracle: signature check"),
    ("noisy_linear", "pinned fixture of learning_pin"),
    ("unseal", "named by PAPER.md: sealed storage"),
    ("revoke", "named by PAPER.md: revoked attestation"),
    ("verify_certificate", "security check on device certs"),
    ("owner_of", "ERC-721 standard query"),
    ("diff_reports", "item 1: the seed swarm's verdict"),
    ("divergent_seq", "item 1: the seed swarm's verdict"),
    ("prove_account", "item 6: a provider's payout receipt"),
    ("verify_account_proof", "item 6: payout receipt"),
    ("laplace_mechanism", "item 14: goes with its tests"),
    ("gaussian_mechanism_vec", "item 14: goes with its tests"),
];

/// Every `pub fn` / `struct` / `enum` / `trait` under `crates/*/src`
/// (above the file's tests) is named, as a whole word, by production code
/// besides its own declaration: a line of `crates/*/src` other than a
/// `pub use`, or of `src/`, `examples/` or `benchmark/src`, each above its
/// file's tests and outside `//` comments. An item that only its unit
/// tests reach is dead weight that the next reader must still understand;
/// it goes with those tests, or gets an entry with its reason in
/// `CALLERLESS_PUB_ITEMS`.
#[test]
fn every_public_item_has_a_caller() {
    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    let mut declared: Vec<(String, PathBuf)> = Vec::new();
    let mut count = |line: &str| {
        for word in identifiers(line) {
            *uses.entry(word.to_string()).or_default() += 1;
        }
    };
    for file in crate_sources() {
        let body = std::fs::read_to_string(&file).unwrap_or_default();
        for line in production_lines(&body) {
            let code = line.trim_start();
            if code.starts_with("pub use ") {
                continue;
            }
            count(code);
            let item = ["pub fn ", "pub struct ", "pub enum ", "pub trait "]
                .iter()
                .find_map(|kw| code.strip_prefix(kw));
            if let Some(name) = item.and_then(|rest| identifiers(rest).next()) {
                declared.push((name.to_string(), file.clone()));
            }
        }
    }
    let mut others = Vec::new();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_sources(&repo_root().join(dir), &mut others);
    }
    for file in others {
        let body = std::fs::read_to_string(&file).unwrap_or_default();
        production_lines(&body).into_iter().for_each(&mut count);
    }
    // A declaration names its item once; a caller adds at least one more.
    let mut declarations: BTreeMap<&str, usize> = BTreeMap::new();
    for (name, _) in &declared {
        *declarations.entry(name.as_str()).or_default() += 1;
    }
    let callerless = |name: &str| declarations.get(name).is_some_and(|&n| uses[name] <= n);
    let allowed: BTreeSet<&str> = CALLERLESS_PUB_ITEMS.iter().map(|(n, _)| *n).collect();
    let dead: Vec<String> = declared
        .iter()
        .filter(|(name, _)| callerless(name) && !allowed.contains(name.as_str()))
        .map(|(name, file)| format!("{name} ({})", file.display()))
        .collect();
    assert!(
        dead.is_empty(),
        "public items that no production code names; delete them with the \
         tests that reach only them, or list each with its reason: {dead:#?}"
    );
    let stale: Vec<&str> = allowed
        .into_iter()
        .filter(|name| !callerless(name))
        .collect();
    assert!(
        stale.is_empty(),
        "CALLERLESS_PUB_ITEMS names items that are gone or now have a \
         caller; drop them from the list: {stale:?}"
    );
}

/// The enums whose variants are the forms of transaction a signer can send.
const TRANSACTION_FORMS: [&str; 4] = ["TxKind", "Erc20Op", "Erc721Op", "AssetKind"];

/// Whether `line` holds `path` (such as `TxKind::Call`) as a whole path.
fn names_path(line: &str, path: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    line.match_indices(path)
        .any(|(at, _)| !line[..at].ends_with(ident) && !line[at + path.len()..].starts_with(ident))
}

/// Every variant of the `TRANSACTION_FORMS` is a form that any signer can
/// send and every node must decode and apply, so each is named as
/// `Enum::Variant` by production code outside the file that declares the
/// enum, under the rules of `every_public_item_has_a_caller` with the
/// `tests.rs` modules left out as well. A form that nothing sends goes,
/// with its decoder and state-transition arms.
#[test]
fn every_transaction_form_has_a_sender() {
    let mut files = crate_sources();
    for dir in ["src", "examples", "benchmark/src"] {
        rust_sources(&repo_root().join(dir), &mut files);
    }
    let bodies: Vec<(PathBuf, String)> = files
        .into_iter()
        .filter(|file| !is_test_module(file))
        .map(|file| {
            let body = std::fs::read_to_string(&file).unwrap_or_default();
            (file, body)
        })
        .collect();
    let mut unsent = Vec::new();
    for name in TRANSACTION_FORMS {
        let opener = format!("pub enum {name} {{");
        let (home, body) = bodies
            .iter()
            .find(|(_, body)| production_lines(body).iter().any(|l| l.trim() == opener))
            .unwrap_or_else(|| panic!("no `{opener}` under crates/*/src"));
        let variants: Vec<&str> = production_lines(body)
            .into_iter()
            .skip_while(|line| line.trim() != opener)
            .skip(1)
            .take_while(|line| *line != "}")
            .filter(|line| {
                line.strip_prefix("    ")
                    .is_some_and(|v| v.starts_with(char::is_uppercase))
            })
            .filter_map(|line| identifiers(line).next())
            .collect();
        assert!(!variants.is_empty(), "no variants found for {name}");
        for variant in variants {
            let path = format!("{name}::{variant}");
            let sent = bodies
                .iter()
                .filter(|(file, _)| file != home)
                .any(|(_, body)| {
                    production_lines(body).iter().any(|line| {
                        let code = line.trim_start();
                        !code.starts_with("pub use ") && names_path(code, &path)
                    })
                });
            if !sent {
                unsent.push(format!("{path} ({})", home.display()));
            }
        }
    }
    assert!(
        unsent.is_empty(),
        "transaction forms that no production code sends; delete each with \
         its encoding and apply arms: {unsent:#?}"
    );
}
