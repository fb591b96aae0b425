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

/// The `src` directory of every crate under `crates/`.
fn crate_src_dirs() -> Vec<PathBuf> {
    std::fs::read_dir(repo_root().join("crates"))
        .expect("crates dir")
        .flatten()
        .map(|entry| entry.path().join("src"))
        .filter(|src| src.is_dir())
        .collect()
}

/// Every `.rs` file under `crates/*/src`.
fn crate_sources() -> Vec<PathBuf> {
    let mut files = Vec::new();
    for src in crate_src_dirs() {
        rust_sources(&src, &mut files);
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
const BLOCKCHAIN_PUB_FNS: usize = 27;

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

/// The directory that holds the files of the modules `file` declares
/// out of line (`mod x;` is `x.rs` there).
fn module_dir(file: &Path) -> PathBuf {
    let dir = file.parent().expect("a source file has a directory");
    match file.file_stem().and_then(|s| s.to_str()) {
        Some("mod" | "lib" | "main") | None => dir.to_path_buf(),
        Some(stem) => dir.join(stem),
    }
}

/// The lines of `body` outside `//` comments and outside every item that
/// a `#[cfg(test)]` is attached to, and the names of the modules that
/// such an attribute declares out of line (`#[cfg(test)] mod tests;`).
/// An item ends with its own line if that ends in `;` or `}`, and
/// otherwise at the first later line of its indentation that starts with
/// `}`: its closing brace, in formatted code.
fn split_tests(body: &str) -> (Vec<&str>, Vec<&str>) {
    let (mut lines, mut test_modules) = (Vec::new(), Vec::new());
    let mut rest = body.lines();
    while let Some(line) = rest.next() {
        let code = line.trim_start();
        if code.starts_with("//") {
            continue;
        }
        if code != "#[cfg(test)]" {
            lines.push(line);
            continue;
        }
        let Some(item) = rest.by_ref().find(|l| {
            let l = l.trim_start();
            !l.starts_with("#[") && !l.starts_with("//")
        }) else {
            break;
        };
        let code = item.trim_start();
        if let Some(name) = code.strip_prefix("mod ").and_then(|m| m.strip_suffix(';')) {
            test_modules.push(name);
        } else if !code.ends_with([';', '}']) {
            let indent = &item[..item.len() - code.len()];
            rest.by_ref()
                .find(|l| l.strip_prefix(indent).is_some_and(|l| l.starts_with('}')));
        }
    }
    (lines, test_modules)
}

/// Every `.rs` file under `dirs` with its production lines (see
/// `split_tests`). A file that a `#[cfg(test)] mod x;` declares is a unit
/// test, and is left out with every file under its module directory.
fn production_sources(dirs: &[PathBuf]) -> Vec<(PathBuf, Vec<String>)> {
    let mut files = Vec::new();
    for dir in dirs {
        rust_sources(dir, &mut files);
    }
    let mut sources = Vec::new();
    let mut test_modules: Vec<PathBuf> = Vec::new();
    for file in files {
        let body = std::fs::read_to_string(&file).unwrap_or_default();
        let (lines, tests) = split_tests(&body);
        let dir = module_dir(&file);
        test_modules.extend(tests.into_iter().map(|name| dir.join(name)));
        sources.push((file, lines.into_iter().map(String::from).collect()));
    }
    sources.retain(|(file, _)| {
        !test_modules
            .iter()
            .any(|m| file.with_extension("") == *m || file.starts_with(m))
    });
    assert!(!sources.is_empty(), "no rust sources found under {dirs:?}");
    sources
}

fn identifiers(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| !word.is_empty())
}

/// The type that `code` implements for, if it is an `impl` header: `Foo`
/// for `impl<T> fmt::Debug for path::Foo<T> {`.
fn impl_self_type(code: &str) -> Option<&str> {
    let mut header = code
        .strip_prefix("unsafe ")
        .unwrap_or(code)
        .strip_prefix("impl")?;
    if header.starts_with('<') {
        let mut depth = 0;
        let close = header.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        header = &header[close + 1..];
    } else if !header.starts_with(' ') {
        return None;
    }
    let ty = header.rsplit(" for ").next()?;
    identifiers(ty.split(['<', '{']).next()?).last()
}

/// For each of `lines`, the type whose `impl` block holds it, header and
/// closing brace included.
fn own_impl_types(lines: &[String]) -> Vec<Option<&str>> {
    let mut open: Option<(&str, usize)> = None;
    lines
        .iter()
        .map(|line| {
            let code = line.trim_start();
            let indent = line.len() - code.len();
            if let Some((ty, at)) = open {
                if at == indent && code.starts_with('}') {
                    open = None;
                }
                return Some(ty);
            }
            let ty = impl_self_type(code)?;
            if code.ends_with('{') {
                open = Some((ty, indent));
            }
            Some(ty)
        })
        .collect()
}

/// The production code that calls the library crates: the umbrella
/// crate, the examples and the end-to-end benchmark.
fn caller_dirs() -> Vec<PathBuf> {
    ["src", "examples", "benchmark/src"]
        .iter()
        .map(|dir| repo_root().join(dir))
        .collect()
}

/// Public items that no production code names, each with the reason it
/// stays. "Item n" is a ROADMAP item.
const CALLERLESS_PUB_ITEMS: &[(&str, &str)] = &[
    ("check_invariants", "test hook: mempool consistency"),
    ("truncate_tail", "fault injector: torn journal tail"),
    ("corrupt_bit", "fault injector: flipped journal bit"),
    ("counter_deltas", "test hook: per-run counter deltas"),
    ("key_rows_held", "test hook: key comb cache size"),
    ("key_rows_cached", "test hook: key comb cache membership"),
    ("batch_randomisers", "test hook: batch coefficients"),
    ("new_run_time_width", "test hook: run-time kernel width"),
    ("drop_kind", "fault injector: drop a message kind"),
    ("has_store", "test hook: whether a chain journals"),
    ("scheduler_kind", "test hook: the simulator's scheduler"),
    ("backend_name", "test hook: the state commitment"),
    ("set_backend", "reference oracle: a chain's commitment"),
    ("o_sort_comparisons", "test hook: sorting network size"),
    ("to_u128", "test hook: bigint proptests vs u128"),
    ("decode_fixed", "test hook: inverse of encode_fixed"),
    ("dot_naive", "reference oracle: the unrolled dot"),
    ("verify_reference", "reference oracle: signature check"),
    (
        "recompute_native_supply",
        "reference oracle: supply counter",
    ),
    ("noisy_linear", "pinned fixture of learning_pin"),
    ("unseal", "named by PAPER.md: sealed storage"),
    ("revoke", "named by PAPER.md: revoked attestation"),
    ("verify_certificate", "security check on device certs"),
    ("owner_of", "ERC-721 standard query"),
    ("diff_reports", "item 1: the seed swarm's verdict"),
    ("divergent_seq", "item 1: the seed swarm's verdict"),
    ("GovNode", "item 5: the committee protocol"),
    ("prove_leaf", "item 6: a provider's payout receipt"),
    ("verify_proof", "item 6: a provider's payout receipt"),
];

/// Every `pub fn` / `struct` / `enum` / `trait` in the production code of
/// `crates/*/src` (see `production_sources`) is named, as a whole word, by
/// production code besides its own declaration: a line of `crates/*/src`
/// other than a `pub use`, or of `src/`, `examples/` or `benchmark/src`.
/// A type's name inside its own `impl` blocks does not count. An item
/// that only its unit tests reach is dead weight that the next reader
/// must still understand; it goes with those tests, or gets an entry
/// with its reason in `CALLERLESS_PUB_ITEMS`.
#[test]
fn every_public_item_has_a_caller() {
    let mut uses: BTreeMap<String, usize> = BTreeMap::new();
    let mut declared: Vec<(String, PathBuf)> = Vec::new();
    let mut count = |lines: &[String]| {
        for (line, own) in lines.iter().zip(own_impl_types(lines)) {
            for word in identifiers(line).filter(|word| Some(*word) != own) {
                *uses.entry(word.to_string()).or_default() += 1;
            }
        }
    };
    for (file, lines) in production_sources(&crate_src_dirs()) {
        let lines: Vec<String> = lines
            .into_iter()
            .filter(|line| !line.trim_start().starts_with("pub use "))
            .collect();
        count(&lines);
        for code in lines.iter().map(|line| line.trim_start()) {
            let item = ["pub fn ", "pub struct ", "pub enum ", "pub trait "]
                .iter()
                .find_map(|kw| code.strip_prefix(kw));
            if let Some(name) = item.and_then(|rest| identifiers(rest).next()) {
                declared.push((name.to_string(), file.clone()));
            }
        }
    }
    for (_, lines) in production_sources(&caller_dirs()) {
        count(&lines);
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

/// The file among `sources` that declares `pub enum {name}`, and the
/// names of its variants, read as formatted code: one variant a line,
/// indented four spaces, up to a closing `}` in the first column.
fn enum_variants<'a>(
    sources: &'a [(PathBuf, Vec<String>)],
    name: &str,
) -> (&'a PathBuf, Vec<&'a str>) {
    let opener = format!("pub enum {name} {{");
    let (home, lines) = sources
        .iter()
        .find(|(_, lines)| lines.iter().any(|l| l.trim() == opener))
        .unwrap_or_else(|| panic!("no `{opener}` under crates/*/src"));
    let variants: Vec<&str> = lines
        .iter()
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
    (home, variants)
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
/// enum, read as `every_public_item_has_a_caller` reads it. A form that
/// nothing sends goes, with its decoder and state-transition arms.
#[test]
fn every_transaction_form_has_a_sender() {
    let sources = production_sources(&[crate_src_dirs(), caller_dirs()].concat());
    let mut unsent = Vec::new();
    for name in TRANSACTION_FORMS {
        let (home, variants) = enum_variants(&sources, name);
        for variant in variants {
            let path = format!("{name}::{variant}");
            let sent = sources
                .iter()
                .filter(|(file, _)| file != home)
                .flat_map(|(_, lines)| lines)
                .map(|line| line.trim_start())
                .any(|code| !code.starts_with("pub use ") && names_path(code, &path));
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

/// Each token ledger records the leaves it writes, at the write, through
/// the callback `WorldState` passes in. A second list of those leaves kept
/// elsewhere can drift from the writes, and a leaf it misses splits the
/// roots without an error. So no production line of `crates/*/src`
/// outside `erc20.rs` and `erc721.rs` both marks or records (holds an
/// identifier that starts with `mark`, `record` or `keep`) and names a
/// ledger leaf (an `Erc20*` or `Erc721*` variant of `LeafKey`).
#[test]
fn only_the_ledgers_mark_their_leaves() {
    let sources = production_sources(&crate_src_dirs());
    let (_, variants) = enum_variants(&sources, "LeafKey");
    let ledger_leaves: Vec<&str> = variants
        .into_iter()
        .filter(|v| v.starts_with("Erc20") || v.starts_with("Erc721"))
        .collect();
    assert!(!ledger_leaves.is_empty(), "no ledger leaves in `LeafKey`");
    let ledgers = ["crates/chain/src/erc20.rs", "crates/chain/src/erc721.rs"];
    let marks: Vec<String> = sources
        .iter()
        .filter(|(file, _)| !ledgers.iter().any(|l| file.ends_with(l)))
        .flat_map(|(file, lines)| lines.iter().map(move |line| (file, line)))
        .filter(|(_, line)| {
            identifiers(line).any(|w| ["mark", "record", "keep"].iter().any(|p| w.starts_with(p)))
                && identifiers(line).any(|w| ledger_leaves.contains(&w))
        })
        .map(|(file, line)| format!("{}: {}", file.display(), line.trim()))
        .collect();
    assert!(
        marks.is_empty(),
        "lines that mark a token ledger's leaf outside the ledger; mark it \
         in the ledger method that writes it: {marks:#?}"
    );
}

/// The functions of `crates/chain/src` that may write the state's
/// accounts, contracts or burn counter, by file: those that record the
/// write on the undo list, the undo itself, and the snapshot decode,
/// which fills a state that nothing has committed yet.
const STATE_WRITERS: [(&str, &str); 6] = [
    ("state/mod.rs", "account_mut"),
    ("state/transition.rs", "apply_transaction_env"),
    ("state/transition.rs", "execute_payload"),
    ("state/call.rs", "execute_call"),
    ("state/undo.rs", "undo"),
    ("state/snapshot.rs", "decode_snapshot"),
];

/// Files of `crates/chain/src` whose own field shares a name with the
/// state's: the pool's per-sender `accounts`.
const SAME_NAMED_FIELDS: [&str; 1] = ["mempool.rs"];

/// Whether `line` writes one of the state's own maps or its burn counter:
/// a mutating method on `accounts` or `contracts`, an assignment to one of
/// the three, or a `&mut` borrow of one.
fn writes_state(line: &str) -> bool {
    const MUTATORS: [&str; 13] = [
        "insert(",
        "remove(",
        "get_mut(",
        "entry(",
        "clear(",
        "retain(",
        "append(",
        "extend(",
        "split_off(",
        "pop_first(",
        "pop_last(",
        "values_mut(",
        "iter_mut(",
    ];
    let field = |name: &str| {
        line.match_indices(name).any(|(at, _)| {
            let rest = &line[at + name.len()..];
            let assigned = [" = ", " += ", " -= "]
                .iter()
                .any(|op| rest.starts_with(op));
            let mutated = name != ".burned"
                && rest
                    .strip_prefix('.')
                    .is_some_and(|call| MUTATORS.iter().any(|m| call.starts_with(m)));
            let path = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == '.';
            let borrowed = !rest.starts_with(path)
                && line[..at]
                    .rsplit_once("&mut ")
                    .is_some_and(|(_, owner)| owner.chars().all(path));
            assigned || mutated || borrowed
        })
    };
    [".accounts", ".contracts", ".burned"]
        .iter()
        .any(|name| field(name))
}

/// The name of the function each of `lines` sits in (`""` before the
/// first), read off the last line above it that declares one.
fn enclosing_fns(lines: &[String]) -> Vec<&str> {
    let mut current = "";
    lines
        .iter()
        .map(|line| {
            let code = line.trim_start();
            let declared = code
                .match_indices("fn ")
                .find(|(at, _)| *at == 0 || code[..*at].ends_with(' '));
            if let Some((at, _)) = declared {
                let name = &code[at + 3..];
                let end = name
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(name.len());
                if end > 0 {
                    current = &name[..end];
                }
            }
            current
        })
        .collect()
}

/// A block refused after it executed, and a failed call, are undone from
/// one list of `(leaf, old value)`, so every write to the state must be
/// one that records its leaf's old value. A write the list misses leaves
/// a refused block's trace in a replica, silently. So no production line
/// of `crates/chain/src` writes the `accounts` or `contracts` map or the
/// `burned` counter outside `STATE_WRITERS` (`SAME_NAMED_FIELDS` aside).
#[test]
fn only_the_recording_sites_write_the_state() {
    let src = repo_root().join("crates/chain/src");
    let mut writes = Vec::new();
    for (file, lines) in production_sources(std::slice::from_ref(&src)) {
        let rel = file
            .strip_prefix(&src)
            .unwrap_or(&file)
            .to_string_lossy()
            .into_owned();
        if SAME_NAMED_FIELDS.contains(&rel.as_str()) {
            continue;
        }
        for (line, func) in lines.iter().zip(enclosing_fns(&lines)) {
            let allowed = STATE_WRITERS.contains(&(rel.as_str(), func));
            if writes_state(line) && !allowed {
                writes.push(format!("{rel} ({func}): {}", line.trim()));
            }
        }
    }
    assert!(
        writes.is_empty(),
        "writes to the state that the undo list does not record; go \
         through `account_mut` or record the leaf's old value where it is \
         written: {writes:#?}"
    );
}

/// The documents name the binaries that regenerate their numbers. Every
/// `-p pds2-<crate> … --bin <name>` in EXPERIMENTS.md and README.md names
/// a file `crates/<crate>/src/bin/<name>.rs` (a `--bin` with no `-p`
/// before it on its line is `pds2-bench`'s), and each of the two
/// documents names every experiment bin (`crates/bench/src/bin/exp_*`).
/// A renamed or deleted bin fails here, not in a reader's shell.
#[test]
fn documented_bins_exist_and_every_experiment_is_documented() {
    let bins = |krate: &str| -> BTreeSet<String> {
        std::fs::read_dir(repo_root().join("crates").join(krate).join("src/bin"))
            .map(|dir| {
                dir.flatten()
                    .filter_map(|e| Some(e.path().file_stem()?.to_str()?.to_string()))
                    .collect()
            })
            .unwrap_or_default()
    };
    let experiments: BTreeSet<String> = bins("bench")
        .into_iter()
        .filter(|bin| bin.starts_with("exp_"))
        .collect();
    assert!(
        !experiments.is_empty(),
        "no exp_* bins under crates/bench/src/bin"
    );
    for doc in ["EXPERIMENTS.md", "README.md"] {
        let body = std::fs::read_to_string(repo_root().join(doc)).expect("readable doc");
        let mut named = BTreeSet::new();
        let mut stale = Vec::new();
        for line in body.lines() {
            for (at, _) in line.match_indices("--bin ") {
                let Some(name) = identifiers(&line[at + 6..]).next() else {
                    continue;
                };
                if !line[at + 6..].starts_with(name) {
                    continue; // a placeholder such as `<exp>`
                }
                let krate = line[..at]
                    .rsplit_once("-p pds2-")
                    .and_then(|(_, rest)| identifiers(rest).next())
                    .unwrap_or("bench");
                if krate == "bench" {
                    named.insert(name.to_string());
                }
                if !bins(krate).contains(name) {
                    stale.push(format!("{name} (crates/{krate}/src/bin)"));
                }
            }
        }
        assert!(
            stale.is_empty(),
            "{doc} runs bins that do not exist: {stale:?}"
        );
        let missing: Vec<_> = experiments.difference(&named).collect();
        assert!(
            missing.is_empty(),
            "{doc} names no `--bin` line for these experiments: {missing:?}"
        );
    }
}
