//! Guardrail for the workspace's public surface.
//!
//! An item is `pub` only when something outside its crate names it: another
//! workspace crate, the facade, an example, an integration test, a doc
//! example, a binary or `benchmark/`. Everything else is `pub(crate)` or private, so `rustc`'s
//! `dead_code` lint sees it (DESIGN.md, "Public surface"). This test lists
//! every `pub` item of every library crate from its source text and
//! compares the list with `tests/golden/public_surface.golden`, so a change
//! that widens an item or adds a public one shows it in the golden's diff.
//!
//! Each file is read up to its first `#[cfg(test)]`, as
//! `scripts/product_lines.sh` counts it. An item is listed by the module
//! path of its file (and of any inline `mod` around it), whether or not that
//! module is itself public: functions, methods as `Type::name`, structs,
//! enums, unions, traits, type aliases, consts, statics, `pub mod` and
//! `pub use`. Fields, variants and `pub(crate)` items are not listed. The
//! golden's first lines count each crate's items, then the total; one
//! `module kind name` line per item follows.
//!
//! Regenerate the golden with `UPDATE_GOLDEN=1 cargo test --test public_surface`
//! and review its diff.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/public_surface.golden"
);

const KINDS: [&str; 10] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod", "use",
];

/// The library crates: the facade, then every workspace member, as (crate
/// name, `src` directory).
fn library_crates(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = vec![("query_shredding".to_string(), root.join("src"))];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("the workspace has a crates/ directory")
        .map(|e| e.expect("a readable directory entry").path())
        .collect();
    members.sort();
    for dir in members {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("a member manifest");
        let name = manifest
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("the manifest names its package")
            .trim_matches('"')
            .replace('-', "_");
        out.push((name, dir.join("src")));
    }
    out
}

/// The library source files under `dir` with their module paths relative to
/// the crate root, in path order. Binaries (`src/bin/`, `main.rs`) are
/// crates of their own with no public surface.
fn modules(dir: &Path, prefix: &[String], out: &mut Vec<(Vec<String>, PathBuf)>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("a readable source directory")
        .map(|e| e.expect("a readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        let stem = path.file_stem().unwrap().to_string_lossy().to_string();
        if path.is_dir() {
            if stem != "bin" {
                let mut inner = prefix.to_vec();
                inner.push(stem);
                modules(&path, &inner, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") && stem != "main" {
            let mut module = prefix.to_vec();
            if !matches!(stem.as_str(), "lib" | "mod") {
                module.push(stem);
            }
            out.push((module, path));
        }
    }
}

/// A file's product code: its lines before the first `#[cfg(test)]`.
fn product(source: &str) -> String {
    source
        .lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// `code` with comments and the contents of string and character literals
/// blanked out, newlines kept, so braces and semicolons in the result are
/// the source's own.
fn blank_literals(code: &str) -> String {
    let c: Vec<char> = code.chars().collect();
    let mut out = String::with_capacity(code.len());
    let blank = |ch: char| if ch == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < c.len() {
        let rest = &c[i..];
        if rest.starts_with(&['/', '/']) {
            while i < c.len() && c[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if rest.starts_with(&['/', '*']) {
            let mut depth = 0;
            while i < c.len() {
                if c[i..].starts_with(&['/', '*']) {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if c[i..].starts_with(&['*', '/']) {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(c[i]));
                    i += 1;
                }
            }
        } else if c[i] == 'r'
            && (i == 0 || !(c[i - 1].is_alphanumeric() || c[i - 1] == '_'))
            && rest.len() > 1
            && (rest[1] == '"' || rest[1] == '#')
        {
            // A raw string: r"…", r#"…"#, …
            let hashes = rest[1..].iter().take_while(|&&ch| ch == '#').count();
            if rest.get(1 + hashes) != Some(&'"') {
                out.push(c[i]);
                i += 1;
                continue;
            }
            out.push('"');
            i += 2 + hashes;
            while i < c.len() {
                if c[i] == '"'
                    && c[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    i += 1 + hashes;
                    break;
                }
                out.push(blank(c[i]));
                i += 1;
            }
            out.push('"');
        } else if c[i] == '"' {
            out.push('"');
            i += 1;
            while i < c.len() && c[i] != '"' {
                if c[i] == '\\' {
                    out.push(' ');
                    i += 1;
                }
                out.push(blank(c[i]));
                i += 1;
            }
            out.push('"');
            i += 1;
        } else if c[i] == '\'' {
            // A character literal ('x', '\n', '\u{7b}'), or a lifetime.
            let close = if rest.get(1) == Some(&'\\') {
                rest.iter()
                    .skip(3)
                    .position(|&ch| ch == '\'')
                    .map(|p| p + 3)
            } else if rest.get(2) == Some(&'\'') {
                Some(2)
            } else {
                None
            };
            match close {
                Some(end) => {
                    out.push_str("' '");
                    out.extend(std::iter::repeat_n(' ', end - 2));
                    i += end + 1;
                }
                None => {
                    out.push('\'');
                    i += 1;
                }
            }
        } else {
            out.push(c[i]);
            i += 1;
        }
    }
    out
}

/// What a `{` opens: a module, an `impl` block (by its self type), or
/// anything else (a function body, a trait, a type's fields, an expression).
enum Scope {
    Module(String),
    Impl(String),
    Other,
}

/// The self type of an `impl` header: `impl<T> Foo<T>` and
/// `impl Trait for a::Foo` both give `Foo`.
fn impl_self_type(header: &str) -> String {
    let mut rest = header
        .trim_start_matches("unsafe ")
        .trim_start_matches("impl");
    if rest.starts_with('<') {
        let mut depth = 0;
        for (at, ch) in rest.char_indices() {
            match ch {
                '<' => depth += 1,
                '>' => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                rest = &rest[at + 1..];
                break;
            }
        }
    }
    let rest = rest.split(" where ").next().unwrap();
    let rest = rest.rsplit(" for ").next().unwrap().trim();
    let path = rest.split('<').next().unwrap();
    path.rsplit("::").next().unwrap().trim().to_string()
}

/// The header of the item a `{` opens, from the code since the previous
/// `;`, `{` or `}`: whitespace collapsed, attributes dropped.
fn header(text: &str) -> String {
    let words = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let mut rest = words.as_str();
    while let Some(attr) = rest.strip_prefix("#[") {
        let mut depth = 1;
        let end = attr
            .char_indices()
            .find(|&(_, ch)| {
                match ch {
                    '[' => depth += 1,
                    ']' => depth -= 1,
                    _ => {}
                }
                depth == 0
            })
            .map_or(attr.len(), |(at, _)| at + 1);
        rest = attr[end..].trim_start();
    }
    rest.to_string()
}

/// The public items of one file, as `module kind name` lines.
fn public_items(crate_name: &str, module: &[String], source: &str) -> Vec<String> {
    let code = blank_literals(&product(source));
    let lines: Vec<&str> = code.lines().collect();
    let mut items = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending = String::new();
    for (n, line) in lines.iter().enumerate() {
        // An item starts its line; the scopes at the line's start say where.
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix("pub ") {
            let in_code = scopes.iter().any(|s| matches!(s, Scope::Other));
            let mut words = rest.split_whitespace();
            let mut kind = words.next().unwrap_or("");
            while matches!(kind, "unsafe" | "async" | "extern") || kind.starts_with('"') {
                kind = words.next().unwrap_or("");
            }
            if kind == "const" && rest.starts_with("const fn") {
                kind = words.next().unwrap_or("");
            }
            if !in_code && KINDS.contains(&kind) {
                let mut path = vec![crate_name.to_string()];
                path.extend(module.iter().cloned());
                let mut owner = None;
                for scope in &scopes {
                    match scope {
                        Scope::Module(m) => path.push(m.clone()),
                        Scope::Impl(t) => owner = Some(t.clone()),
                        Scope::Other => {}
                    }
                }
                let after = rest[rest.find(kind).unwrap() + kind.len()..].trim_start();
                let item = if kind == "use" {
                    // The whole use tree, which may span lines.
                    let mut tree = String::new();
                    for l in &lines[n..] {
                        tree.push_str(l);
                        if l.contains(';') {
                            break;
                        }
                    }
                    let tree = tree.split_once("use").unwrap().1;
                    let tree = tree.split(';').next().unwrap();
                    let tree: String = tree.split_whitespace().collect::<Vec<_>>().join(" ");
                    let tree = tree
                        .replace("{ ", "{")
                        .replace(" }", "}")
                        .replace(",}", "}");
                    format!("use {tree}")
                } else {
                    let name: String = after
                        .chars()
                        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                        .collect();
                    match (&owner, kind) {
                        (Some(t), "fn") => format!("method {t}::{name}"),
                        (Some(t), _) => format!("assoc {kind} {t}::{name}"),
                        (None, _) => format!("{kind} {name}"),
                    }
                };
                items.push(format!("{} {item}", path.join("::")));
            }
        }
        for ch in line.chars().chain(std::iter::once('\n')) {
            match ch {
                '{' => {
                    let h = header(&pending);
                    let h = h
                        .strip_prefix("pub ")
                        .or_else(|| h.strip_prefix("pub(crate) "))
                        .unwrap_or(&h);
                    let scope = if let Some(name) = h.strip_prefix("mod ") {
                        Scope::Module(name.trim().to_string())
                    } else if h.starts_with("impl") || h.starts_with("unsafe impl") {
                        Scope::Impl(impl_self_type(h))
                    } else {
                        Scope::Other
                    };
                    scopes.push(scope);
                    pending.clear();
                }
                '}' => {
                    scopes.pop();
                    pending.clear();
                }
                ';' => pending.clear(),
                ch => pending.push(ch),
            }
        }
    }
    items
}

/// Every crate's public items, with the per-crate counts first.
fn surface(root: &Path) -> String {
    let mut by_crate: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (name, src) in library_crates(root) {
        let mut files = Vec::new();
        modules(&src, &[], &mut files);
        let items = by_crate.entry(name.clone()).or_default();
        for (module, path) in files {
            let source = fs::read_to_string(&path).expect("a readable source file");
            items.extend(public_items(&name, &module, &source));
        }
    }
    let mut out = String::new();
    let total: usize = by_crate.values().map(BTreeSet::len).sum();
    for (name, items) in &by_crate {
        writeln!(out, "{name} {}", items.len()).unwrap();
    }
    writeln!(out, "total {total}\n").unwrap();
    for items in by_crate.values() {
        for item in items {
            writeln!(out, "{item}").unwrap();
        }
    }
    out
}

#[test]
fn the_public_surface_matches_the_golden_file() {
    let actual = surface(Path::new(env!("CARGO_MANIFEST_DIR")));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(GOLDEN, &actual).unwrap();
        return;
    }
    let golden = fs::read_to_string(GOLDEN).expect("the golden file exists");
    let lines = |text: &str| -> BTreeSet<String> { text.lines().map(str::to_string).collect() };
    let (want, got) = (lines(&golden), lines(&actual));
    let added: Vec<&String> = got.difference(&want).collect();
    let removed: Vec<&String> = want.difference(&got).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "the public surface differs from tests/golden/public_surface.golden. An item is `pub` \
         only if another crate, an example, a test, a doc example, a binary or benchmark/ \
         names it; if this change means it, rerun with UPDATE_GOLDEN=1.\nnow public (+) or no \
         longer public (-):\n{}",
        added
            .iter()
            .map(|l| format!("+ {l}"))
            .chain(removed.iter().map(|l| format!("- {l}")))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_scanner_sees_only_the_sources_own_braces_and_items() {
    let source = r##"
pub fn top() -> &'static str { "}{ pub fn not_an_item" }
// pub fn commented_out() {
/* pub fn also_commented() { */
pub(crate) fn narrowed() {}
impl<'a, T: Clone> Holder<'a, T> where T: Copy {
    pub fn method(&self) -> char { let _ = (r#"}"#, '\''); '{' }
    pub(crate) fn narrowed_method() {}
    pub const LIMIT: usize = 1;
}
impl std::fmt::Display for Holder<'_, u8> {
    fn fmt(&self) {}
}
pub mod inner {
    pub use super::{
        top,
        Holder,
    };
    fn body() { pub struct Local; }
}
pub struct Holder<'a, T> { pub field: &'a T }
#[cfg(test)]
pub fn test_only() {}
"##;
    let items = public_items("c", &["m".to_string()], source);
    assert_eq!(
        items,
        vec![
            "c::m fn top",
            "c::m method Holder::method",
            "c::m assoc const Holder::LIMIT",
            "c::m mod inner",
            "c::m::inner use super::{top, Holder}",
            "c::m struct Holder",
        ]
    );
}
