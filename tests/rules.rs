//! The repository's rules, as one table that `cargo test` runs.
//!
//! Each simplification that deleted a second way of doing something keeps
//! it deleted here: a [`Rule`] names what must not come back, where it
//! must not appear, and why. A new rule is a row of [`RULES`], not a CI
//! step. `cargo test -q --test rules` runs them alone; one failing run
//! lists every offending line with its rule, its pull request and the
//! rule's reason.
//!
//! The test needs only `std`, so it also builds outside Cargo against any
//! checkout of the tree:
//! `CARGO_MANIFEST_DIR=<checkout> rustc --edition 2021 --test tests/rules.rs`.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use Scope::{Production, RustTree, Tree, TreeExcept};

/// The repository root: every scope's paths are relative to it.
const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// This file. It spells every token it forbids, so no scope reads it.
const SELF: &str = "tests/rules.rs";

/// The code, tests and examples of the workspace.
const TREE: &[&str] = &["crates", "src", "tests", "examples"];

/// One rule: a deleted path, and what keeps it deleted.
struct Rule {
    /// What the rule keeps true (the name of the CI step it replaces).
    name: &'static str,
    /// The checks that enforce it; all must pass.
    checks: &'static [Check],
    /// Why the rule exists.
    why: &'static str,
}

/// One check of a rule.
struct Check {
    /// The pull request that made the check.
    pr: u32,
    /// Where it looks.
    scope: Scope,
    /// What it looks for, line by line.
    test: Test,
}

/// Where a check looks. Paths are relative to the root; a `*` in a segment
/// stands for any name there (`crates/*/src`, `crates/core/src/*.rs`).
enum Scope {
    /// Every file under these paths, directories searched recursively.
    Tree(&'static [&'static str]),
    /// As `Tree`, `.rs` files only.
    RustTree(&'static [&'static str]),
    /// As `Tree`, less the files whose path starts with one of the second
    /// list's.
    TreeExcept(&'static [&'static str], &'static [&'static str]),
    /// The production part of these files (see [`production`]).
    Production(&'static [&'static str]),
}

/// What a check looks for.
enum Test {
    /// None of these tokens may appear. A token is literal text; a `\b` at
    /// its start or end asks for a word boundary there (see [`contains`]).
    Absent(&'static [&'static str]),
    /// Exactly `count` lines, once trimmed, start with one of `starts`, and
    /// every one of them is in `file` above the line that starts with
    /// `above`.
    Counted { starts: &'static [&'static str], count: usize, file: &'static str, above: &'static str },
}

const fn absent(pr: u32, scope: Scope, tokens: &'static [&'static str]) -> Check {
    Check { pr, scope, test: Test::Absent(tokens) }
}

/// The rules, oldest first.
const RULES: &[Rule] = &[
    Rule {
        name: "No second selector path",
        checks: &[absent(
            22,
            Tree(TREE),
            &["with_online_selector", "online_report(", "RevolutionReport", "maybe_revolve"],
        )],
        why: "One selector (DESIGN §17): the paper's periodic revolution is a configuration of \
              FilterSelector's step, not a second path. These are the names the second path had; \
              none may come back.",
    },
    Rule {
        name: "No second event-driven driver",
        checks: &[absent(
            25,
            Tree(&["crates", "src", "tests", "examples", "Cargo.toml"]),
            &["fbdr_sim", "fbdr-sim", "FleetSim", "EventScheduler", "LinkProfile"],
        )],
        why: "The fleet simulator is deleted (ROADMAP item 8b): it drove bare ReplicaContent, not \
              FilterReplica, and nothing but its own tests used it; its coalescing claim is a test \
              of the real master (crates/resync/tests/shard_equivalence.rs). A simulator comes back \
              only as item 8b's other branch — one that drives FilterReplica and checks against item \
              8a's model — and whoever brings it deletes this rule on purpose.",
    },
    Rule {
        name: "No reconcile stash",
        checks: &[absent(
            26,
            Tree(TREE),
            &["ReconcileStash", "stash_max_items", "stash_bytes", "enforce_stash_cap", "stash_items_evicted"],
        )],
        why: "A reconciliation freezes nothing (DESIGN §13): the range round answers from the live \
              content, and between the two rounds the master keeps one bucket shift per session. \
              Master-side reconcile state beyond that shift comes back only as ROADMAP item 7's \
              digest tree, and whoever brings it deletes this rule on purpose.",
    },
    Rule {
        name: "No collector",
        checks: &[absent(
            28,
            Tree(TREE),
            &[
                "collect_garbage",
                "GcConfig",
                "GcReport",
                "session_deadline_ms",
                "maybe_collect",
                "fbdr_resync_gc_",
            ],
        )],
        why: "Nothing is collected (DESIGN §16): the master keeps no ids — a session is its \
              history, gone with the session — and the replica's DnTable counts the stored filters \
              holding each id and frees the slot with the last release. The master's cadenced \
              mark-sweep, its knobs, its report and its deadline eviction are deleted. (The \
              refused-snapshot test spells the deadline's key in two pieces so this rule does not \
              see it.)",
    },
    Rule {
        name: "One recovery seam",
        checks: &[absent(
            30,
            Tree(TREE),
            &[
                "ShardContent",
                "ReconcileItem",
                "WorkingShardContent",
                "ReconcileConfig",
                "divergence_budget",
                r"\bwith_reconcile\b",
                "estimated_divergence",
            ],
        )],
        why: "One recovery seam (DESIGN §13): the ladder reads a slice's held entries through one \
              lazy closure and returns actions that name entries by DN, so a replica's interned ids \
              never leave fbdr-replica. The id-exporting content view, its item type, the replica's \
              adapter for it, and the divergence-budget knob with the estimate that fed it are \
              deleted; none may come back.",
    },
    Rule {
        name: "No per-query request copy, no unsafe",
        checks: &[
            absent(23, Tree(&["crates/replica/src"]), &["PreparedQuery::new(query.clone())"]),
            absent(23, RustTree(&["crates", "src", "shims"]), &[r"\bunsafe\b"]),
        ],
        why: "A query is prepared by borrowing the caller's request and looking its template up \
              (DESIGN §5, *Templates*): the per-query deep copy must not come back into the \
              replica's answer path. And the workspace has no unsafe code — the inline text key of \
              both indexes (fbdr_dit::index::TextKey) compares bytes instead of casting them — so a \
              shortcut there does not arrive unseen either (tests/ has the counting allocator's \
              GlobalAlloc impl and is not searched).",
    },
    Rule {
        name: "No second entry layout",
        checks: &[absent(24, Tree(&["crates/*/src"]), &["BTreeSet<AttrValue>"])],
        why: "An entry's values are one inline value or one sorted list per attribute \
              (fbdr_ldap::ValueSet; DESIGN §5, *Entry representation*): the B-tree set it replaced \
              — 720 B of leaf per attribute, whatever it held — does not come back beside it.",
    },
    Rule {
        name: "One ownership lookup",
        checks: &[
            absent(27, Tree(&["crates/net/src"]), &["filter(|(s, _)| s.is_ancestor_or_self_of"]),
            absent(34, Tree(&["crates/resync/src"]), &["if self.map.shard_of(e.dn()) == shard"]),
        ],
        why: "A DN's shard is one hash probe per distinct suffix depth (fbdr_net::ShardMap::shard_of; \
              DESIGN §14, *Shard map*), run for every update apply routes, and in a sharded search \
              or count only for a held entry above its shard's glue depth (ShardMap::glue_depth): \
              glue is the ancestors of a shard's own suffixes, and everything at or below that depth \
              is the shard's own, which ShardedMaster's load checks. The linear deepest-match scan \
              over every assigned suffix lives on only as the oracle of \
              crates/net/tests/proptests.rs, and the per-entry probe of every match does not come \
              back into the fan-out.",
    },
    Rule {
        name: "An answer is a set",
        checks: &[absent(
            31,
            Tree(&["crates/dit/src", "crates/replica/src", "crates/resync/src"]),
            &[".dn().cmp_hierarchical"],
        )],
        why: "An answer is a set (DESIGN §9): a replica hit, a store search and a sharded search \
              return their matches in walk order, and nobody sorts them so that a hit and a miss \
              read alike. An order belongs to the caller that prints or asks for one \
              (DitStore::search_sorted, ldapsim's listing). The store's TreeKey orders its tree map \
              with `self.0.cmp_hierarchical` and is not matched.",
    },
    Rule {
        name: "One posting type",
        checks: &[
            absent(
                32,
                Tree(&["crates/*/src"]),
                &["BTreeMap<TextKey, Vec<u32>>", "BTreeMap<i64, Vec<u32>>", "type Ids = Arc<Vec<u32>>"],
            ),
            absent(
                36,
                Tree(&["crates/*/src"]),
                &["HashMap<String, Vec<u32>>", "HashMap<String, AttrPostings>", "fn slot<"],
            ),
        ],
        why: "One posting type (DESIGN §9): both stores' indexes hold an index key's ids as a \
              fbdr_dit::posting::Posting — one id inline in the map node, two or more in a list \
              behind an Arc — edited by its insert and remove alone. A map of heap lists per key, \
              the master's or the replica's, does not come back beside it. The routing index \
              (fbdr_resync::RoutingIndex, DESIGN §12) keeps a Posting per key too, in one map \
              keyed by a 64-bit hash of the key's attribute, kind and text; a String-keyed posting \
              map and the slot helper that filled one stay gone.",
    },
    Rule {
        name: "One set of transport legs",
        checks: &[Check {
            pr: 39,
            scope: Tree(TREE),
            test: Test::Counted {
                starts: &[
                    "fn resync(",
                    "fn take_receiver(",
                    "fn abandon(",
                    "fn reconcile(",
                    "fn reconcile_ranges(",
                ],
                count: 5,
                file: "crates/resync/src/driver.rs",
                above: "impl SyncTransport for SyncMaster",
            },
        }],
        why: "One set of transport legs (DESIGN §14): every SyncTransport leg is addressed to a \
              shard (resync_at, take_receiver_at, abandon_at, reconcile_at, reconcile_ranges_at), \
              and a transport implements only those. The unaddressed legs are five hidden \
              shard-zero wrappers inside the trait, kept while the frozen benchmark harness \
              overrides them; no transport under crates, src, tests or examples writes one again.",
    },
    Rule {
        name: "The replica speaks only the transport",
        checks: &[absent(
            42,
            Production(&["crates/replica/src/filter_replica.rs"]),
            &["resync_persist", ".take_receiver(", ".resync("],
        )],
        why: "The replica speaks only the transport (DESIGN §14): each of FilterReplica's \
              installs, persist included, is one call into ShardCoordinator::install, which takes a \
              persist session's receiver through SyncTransport::take_receiver_at, and every cycle \
              runs the driver's ladder. The replica's non-test code asks a master nothing past the \
              transport.",
    },
    Rule {
        name: "The master keeps no copy of the content",
        checks: &[absent(43, Production(&["crates/resync/src/master.rs"]), &["DnTable", "posting::"])],
        why: "The master keeps no copy of the content (DESIGN §16): a session is its history — the \
              DNs that entered, changed inside or left its content since the last delivery — and a \
              fresh session's first delivery and both reconcile rounds read the content off the \
              store. No DN ↔ id table and no id posting lists come back into the master's non-test \
              code; counted ids are the replica's.",
    },
    Rule {
        name: "No replay batch",
        checks: &[absent(
            46,
            Production(&["crates/resync/src/*.rs", "crates/replica/src/*.rs", "crates/core/src/*.rs"]),
            &["replay_expiry", "redelivered", "replay_bytes"],
        )],
        why: "No replay batch (DESIGN §6): a retry of the previous cookie is built from the live \
              DIT — the DNs the lost response named and the history's, each at its live state — so \
              no verbatim batch, its expiry knob, its footprint field or a \"redelivered\" flag comes \
              back.",
    },
    Rule {
        name: "One snapshot format",
        checks: &[absent(
            47,
            Production(&["crates/resync/src/master.rs"]),
            &["WireSession", "WireTable", "into_session", r"\btouched\b", "serde(default)"],
        )],
        why: "One snapshot format (DESIGN §16, *Loading*): the master reads only the snapshot it \
              writes, every field required, so an older format is refused instead of translated. \
              No per-session wire type, ledger translator, DN table or defaulted field comes back \
              into the master's non-test code.",
    },
    Rule {
        name: "One rulebook",
        checks: &[absent(33, TreeExcept(&["crates/*/src"], &["crates/dit/src/index"]), &["Scan::"])],
        why: "One rulebook (DESIGN §9): what a scan names — which text keys, which integer range — \
              is decided in fbdr_dit::index alone. Every store, the master's maps, the replica's \
              snapshot index and a cached result's key columns, reads it through predicate_scan, \
              scan_lists and text_key_in, and none matches on a Scan's variants itself.",
    },
    Rule {
        name: "One stopwatch",
        checks: &[absent(
            48,
            Production(&[
                "crates/containment/src/*.rs",
                "crates/core/src/*.rs",
                "crates/dit/src/*.rs",
                "crates/faults/src/*.rs",
                "crates/ldap/src/*.rs",
                "crates/net/src/*.rs",
                "crates/replica/src/*.rs",
                "crates/resync/src/*.rs",
                "crates/selection/src/*.rs",
                "crates/workload/src/*.rs",
            ]),
            &["record_since", "use std::time::Instant", "span!("],
        )],
        why: "One stopwatch (DESIGN §8, *Span/event taxonomy*): a timed layer holds a Timer from \
              Obs::timer and opens a span with start(), so no hand-rolled Instant and histogram \
              pair, record_since or span! comes back into the library's non-test code. crates/bench \
              is left out: its overheads table times whole loops.",
    },
    Rule {
        name: "One keep rule",
        checks: &[absent(55, Tree(&["crates/replica/src"]), &[r"fn unkept_in\b"])],
        why: "One keep rule (DESIGN §9, *What the index keeps*): which attributes a plan keeps — a \
              predicate with a scan outside a Not, inside an Or only when every branch could plan — \
              is decided in fbdr_dit::index::unkept_in alone, and the one keep mechanism calls it: \
              Indexes::plan, which both the master's store and every replica epoch plan through. \
              The replica has no rule of its own.",
    },
    Rule {
        name: "One attribute index",
        checks: &[
            absent(
                62,
                Production(&["crates/*/src"]),
                &["SnapshotIndex", r"\bAttrIndex\b", "keep_planned", "BTreeMap<TextKey, Posting>"],
            ),
            absent(62, Tree(&["crates/replica/src"]), &["mod persistent"]),
        ],
        why: "One attribute index (DESIGN §9, *What the index keeps*): the master's store and each \
              epoch of a replica keep, edit and plan through fbdr_dit::index::Indexes, whose \
              postings are persistent maps (fbdr_dit::persistent::PMap) and whose keep cells are \
              never shared between clones. The replica's second index type, the master's std-map \
              postings beside it, and the reader's keep by republishing an epoch do not come back; \
              the persistent map lives in fbdr-dit alone.",
    },
    Rule {
        name: "One update path",
        checks: &[absent(61, Tree(&["crates/resync/src"]), &[r"\bapply_naive\b", r"\bnaive:"])],
        why: "One update path (DESIGN, *How the system is checked*): SyncMaster::apply routes \
              every update through the routing index, and the reference model (fbdr-model, \
              tests/model.rs) is what checks that routing misses no session. An unrouted copy of \
              apply kept as an oracle, or a naive flag that forks the update path, does not come \
              back.",
    },
];

/// A line a check objects to.
#[derive(Debug)]
struct Violation {
    pr: u32,
    path: String,
    line: usize,
    text: String,
}

impl Scope {
    fn patterns(&self) -> &'static [&'static str] {
        match self {
            Tree(p) | RustTree(p) | TreeExcept(p, _) | Production(p) => p,
        }
    }

    /// The files one of this scope's patterns names, sorted.
    fn resolve(&self, pattern: &str) -> Vec<String> {
        let mut named = vec![String::new()];
        for segment in pattern.split('/') {
            named = named.iter().flat_map(|dir| entries(dir, segment)).collect();
        }
        let mut files = Vec::new();
        for path in named {
            walk(path, &mut files);
        }
        files.retain(|f| match self {
            RustTree(_) => f.ends_with(".rs"),
            TreeExcept(_, except) => !except.iter().any(|e| f.starts_with(e)),
            Tree(_) | Production(_) => true,
        });
        files.retain(|f| f != SELF);
        files.sort();
        files
    }

    /// Every file of the scope, with its content.
    fn files(&self) -> Vec<(String, String)> {
        let mut paths: Vec<String> = self.patterns().iter().flat_map(|p| self.resolve(p)).collect();
        paths.sort();
        paths.dedup();
        paths
            .into_iter()
            .map(|p| {
                let text = read(&p);
                (p, text)
            })
            .collect()
    }
}

fn read(path: &str) -> String {
    let bytes = fs::read(Path::new(ROOT).join(path)).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    String::from_utf8_lossy(&bytes).into_owned()
}

fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_owned()
    } else {
        format!("{dir}/{name}")
    }
}

/// The paths in `dir` that one pattern segment names: the segment itself,
/// or, for a segment with a `*`, every entry whose name fits around it
/// (hidden ones aside, as in a shell glob).
fn entries(dir: &str, segment: &str) -> Vec<String> {
    let Some((head, tail)) = segment.split_once('*') else {
        return vec![join(dir, segment)];
    };
    let Ok(listing) = fs::read_dir(Path::new(ROOT).join(dir)) else {
        return Vec::new();
    };
    listing
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| {
            !n.starts_with('.')
                && n.len() >= head.len() + tail.len()
                && n.starts_with(head)
                && n.ends_with(tail)
        })
        .map(|n| join(dir, &n))
        .collect()
}

/// Adds `path` to `out` if it is a file, or every file below it if it is a
/// directory; a path that does not exist adds nothing.
fn walk(path: String, out: &mut Vec<String>) {
    let full = Path::new(ROOT).join(&path);
    if full.is_dir() {
        for entry in fs::read_dir(&full).unwrap_or_else(|e| panic!("listing {path}: {e}")) {
            let name =
                entry.expect("a directory entry").file_name().into_string().expect("a UTF-8 file name");
            walk(join(&path, &name), out);
        }
    } else if full.is_file() {
        out.push(path);
    }
}

fn is_word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `line` holds `token`. A `\b` at the token's start (end) asks, as
/// in grep, that the match have no word character (letter, digit or `_`)
/// right before (after) it.
fn contains(line: &str, token: &str) -> bool {
    let (left, right) = (token.starts_with(r"\b"), token.ends_with(r"\b"));
    let token = bare(token);
    let mut from = 0;
    while let Some(at) = line[from..].find(token) {
        let i = from + at;
        let before = line[..i].chars().next_back();
        let after = line[i + token.len()..].chars().next();
        if !(left && before.is_some_and(is_word) || right && after.is_some_and(is_word)) {
            return true;
        }
        from = i + line[i..].chars().next().map_or(1, char::len_utf8);
    }
    false
}

/// A token without its word-boundary marks.
fn bare(token: &str) -> &str {
    token.trim_start_matches(r"\b").trim_end_matches(r"\b")
}

/// The production part of a Rust file: its lines above the `#[cfg(test)]`
/// that opens `mod tests` or `mod proptests`, or all of them if it has
/// neither. A test-only item above that module (a `#[cfg(test)] impl` of
/// hooks, an out-of-line test module) stays in the part.
fn production(text: &str) -> Vec<&str> {
    let mut lines: Vec<&str> = text.lines().collect();
    let opens_tests = |i: usize| {
        lines[i].trim() == "#[cfg(test)]"
            && lines[i + 1..].iter().find(|l| !l.trim().is_empty()).is_some_and(|l| {
                let mut words = l.split(|c: char| !is_word(c)).filter(|w| !w.is_empty());
                words.next() == Some("mod") && matches!(words.next(), Some("tests" | "proptests"))
            })
    };
    let end = (0..lines.len()).find(|&i| opens_tests(i)).unwrap_or(lines.len());
    lines.truncate(end);
    lines
}

/// What `check` objects to in `files` (path, content).
fn violations(check: &Check, files: &[(String, String)]) -> Vec<Violation> {
    let at = |path: &str, i: usize, text: &str| Violation {
        pr: check.pr,
        path: path.to_owned(),
        line: i + 1,
        text: text.trim().to_owned(),
    };
    let lines = |text| match check.scope {
        Production(_) => production(text),
        _ => text.lines().collect(),
    };
    let mut found = Vec::new();
    match check.test {
        Test::Absent(tokens) => {
            for (path, text) in files {
                // Most files hold no token: look at their lines only for those they hold.
                let here: Vec<&str> = tokens.iter().copied().filter(|t| text.contains(bare(t))).collect();
                if here.is_empty() {
                    continue;
                }
                for (i, line) in lines(text).into_iter().enumerate() {
                    if here.iter().any(|t| contains(line, t)) {
                        found.push(at(path, i, line));
                    }
                }
            }
        }
        Test::Counted { starts, count, file, above } => {
            let anchor = files
                .iter()
                .find(|(p, _)| p == file)
                .and_then(|(_, text)| text.lines().position(|l| l.starts_with(above)))
                .unwrap_or(0);
            let mut placed = 0;
            for (path, text) in files {
                for (i, line) in lines(text).into_iter().enumerate() {
                    if starts.iter().any(|s| line.trim_start().starts_with(s)) {
                        placed += usize::from(path == file && i < anchor);
                        found.push(at(path, i, line));
                    }
                }
            }
            if placed == count && found.len() == count {
                found.clear();
            } else {
                let summary = format!(
                    "{} such lines, {placed} of them above `{above}` in {file}; \
                     want exactly {count}, all there",
                    found.len()
                );
                found.push(at(file, anchor, &summary));
            }
        }
    }
    found
}

/// Every rule, over the tree; one failing run reports every violation.
#[test]
fn the_tree_keeps_every_rule() {
    let mut report = String::new();
    for rule in RULES {
        let found: Vec<Violation> =
            rule.checks.iter().flat_map(|c| violations(c, &c.scope.files())).collect();
        if found.is_empty() {
            continue;
        }
        for v in &found {
            writeln!(report, "{} (PR {}): {}:{}: {}", rule.name, v.pr, v.path, v.line, v.text).unwrap();
        }
        writeln!(report, "  why: {}\n", rule.why).unwrap();
    }
    assert!(report.is_empty(), "the tree breaks the repository's rules:\n\n{report}");
}

#[test]
fn every_scope_pattern_names_a_file() {
    for rule in RULES {
        for check in rule.checks {
            for pattern in check.scope.patterns() {
                assert!(!check.scope.resolve(pattern).is_empty(), "{}: `{pattern}` names no file", rule.name);
            }
            if let Test::Counted { file, .. } = check.test {
                assert!(
                    check.scope.files().iter().any(|(p, _)| p == file),
                    "{}: {file} is out of scope",
                    rule.name
                );
            }
        }
    }
}

#[test]
fn every_check_fires_on_a_planted_line() {
    for rule in RULES {
        for check in rule.checks {
            let first = match check.test {
                Test::Absent(tokens) => tokens[0],
                Test::Counted { starts, .. } => starts[0],
            };
            let plant = bare(first);
            let mut files = check.scope.files();
            if let Test::Absent(_) = check.test {
                files.truncate(1); // a token is found file by file; a count needs them all
            }
            let clean = violations(check, &files).len();
            files[0].1.insert_str(0, &format!("    {plant}\n"));
            assert!(
                violations(check, &files).len() > clean,
                "{}: `{plant}` planted atop {} is not seen",
                rule.name,
                files[0].0
            );
        }
    }
}

#[test]
fn the_production_part_keeps_a_test_only_impl_and_ends_at_mod_tests() {
    let text = "fn shipped() {}\n\n#[cfg(test)]\nimpl Hooks {\n    fn hook() {}\n}\n\n\
                #[cfg(test)]\nmod tests {\n    fn case() {}\n}\n";
    let part = production(text);
    assert_eq!(part.last(), Some(&""), "the cut is at `#[cfg(test)]` above `mod tests`");
    assert!(part.contains(&"    fn hook() {}"));
    assert!(!part.contains(&"    fn case() {}"));
    let no_tests = "fn a() {}\n#[cfg(test)]\nimpl Hooks {}\n";
    assert_eq!(production(no_tests).len(), 3, "a file without a test module is production in full");
    assert_eq!(production("#[cfg(test)]\nmod proptests;\nfn after() {}\n"), Vec::<&str>::new());
}

#[test]
fn a_word_boundary_token_matches_whole_words() {
    assert!(contains("    .with_reconcile(cfg)", r"\bwith_reconcile\b"));
    assert!(!contains("    .with_reconcile_x(cfg)", r"\bwith_reconcile\b"));
    assert!(
        contains("x.with_reconcile_x with_reconcile", r"\bwith_reconcile\b"),
        "a later occurrence counts"
    );
    assert!(contains("pub unsafe fn", r"\bunsafe\b"));
    assert!(!contains("forbid(unsafe_code)", r"\bunsafe\b"));
    assert!(contains("mark_untouched", "touched"), "a plain token is a substring");
}

#[test]
fn the_transport_legs_are_five_and_a_sixth_in_tests_fails() {
    let rule = RULES.iter().find(|r| r.name == "One set of transport legs").expect("the legs rule");
    let check = &rule.checks[0];
    let mut files = check.scope.files();
    assert!(violations(check, &files).is_empty(), "five legs, all in driver.rs above the SyncMaster impl");
    let test = files.iter_mut().find(|(p, _)| p.starts_with("tests/")).expect("a test file in scope");
    test.1.push_str("\nimpl Leg for Six {\n    fn abandon(&mut self) {}\n}\n");
    let found = violations(check, &files);
    assert!(
        found.iter().any(|v| v.path.starts_with("tests/") && v.text == "fn abandon(&mut self) {}"),
        "{found:?}"
    );
}
