//! The `ldapsim` interactive sandbox: a [`Replicator`] — a master
//! directory plus a filter-based replica — driven by simple text commands.
//!
//! The command interpreter lives here (testable); the `ldapsim` binary is
//! a thin stdin loop around [`Shell::run_command`].

use fbdr_core::{Replicator, ServedBy};
use fbdr_dit::{DitStore, Modification, UpdateOp};
use fbdr_ldap::{Filter, SearchRequest, SortKey};
use fbdr_resync::{ShardId, SyncMaster};
use fbdr_workload::{DirectoryConfig, EnterpriseDirectory};
use std::fmt::Write as _;

/// Interactive sandbox state: one master, one filter replica.
#[derive(Debug)]
pub struct Shell {
    repl: Replicator,
}

/// Outcome of one command.
#[derive(Debug, PartialEq, Eq)]
pub enum ShellOutcome {
    /// Text to print.
    Output(String),
    /// The user asked to exit.
    Quit,
}

impl Default for Shell {
    fn default() -> Self {
        Shell::new()
    }
}

impl Shell {
    /// Creates an empty sandbox (empty master, 100-query cache).
    pub fn new() -> Self {
        Shell::over(SyncMaster::new())
    }

    /// A fresh replica (100-query cache) over `master`.
    fn over(master: SyncMaster) -> Self {
        Shell { repl: Replicator::new(master, 100) }
    }

    /// The master's store: the sandbox is the one-shard deployment.
    fn dit(&self) -> &DitStore {
        self.repl.master().shard(ShardId::ZERO).dit()
    }

    /// Executes one command line.
    pub fn run_command(&mut self, line: &str) -> ShellOutcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return ShellOutcome::Output(String::new());
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        let out = match cmd {
            "help" => HELP.to_owned(),
            "quit" | "exit" => return ShellOutcome::Quit,
            "gen" => self.cmd_gen(rest),
            "import" => self.cmd_import(rest),
            "export" => self.cmd_export(rest),
            "search" => self.cmd_search(rest, false),
            "rsearch" => self.cmd_search(rest, true),
            "sort" => self.cmd_sort(rest),
            "install" => self.cmd_install(rest),
            "drop" => self.cmd_drop(rest),
            "filters" => self.cmd_filters(),
            "update" => self.cmd_update(rest),
            "delete" => self.cmd_delete(rest),
            "sync" => self.cmd_sync(),
            "stats" => self.cmd_stats(),
            other => format!("unknown command {other:?}; try `help`"),
        };
        ShellOutcome::Output(out)
    }

    fn cmd_gen(&mut self, rest: &str) -> String {
        let employees = rest.parse::<usize>().unwrap_or(2_000);
        let dir = EnterpriseDirectory::generate(DirectoryConfig {
            employees,
            ..DirectoryConfig::small()
        });
        let (dit, _) = dir.into_parts();
        let entries = dit.len();
        *self = Shell::over(SyncMaster::with_dit(dit));
        format!("generated enterprise directory: {entries} entries ({employees} employees)")
    }

    fn cmd_import(&mut self, path: &str) -> String {
        if path.is_empty() {
            return "usage: import <file.ldif>".to_owned();
        }
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return format!("cannot read {path}: {e}"),
        };
        // Loading behind the sessions' backs would leave stored filters
        // wrong for good, so an import starts the replica over, as `gen`
        // does; a failed one leaves the sandbox as it was.
        let mut dit = self.dit().clone();
        match dit.import_ldif(&text) {
            Ok(n) => {
                *self = Shell::over(SyncMaster::with_dit(dit));
                format!("imported {n} entries from {path}")
            }
            Err(e) => format!("import failed: {e}"),
        }
    }

    fn cmd_export(&mut self, path: &str) -> String {
        let text = self.dit().export_ldif(None);
        if path.is_empty() {
            return text;
        }
        match std::fs::write(path, &text) {
            Ok(()) => format!("exported {} entries to {path}", self.dit().len()),
            Err(e) => format!("cannot write {path}: {e}"),
        }
    }

    fn parse_query(&self, rest: &str) -> Result<SearchRequest, String> {
        let (filter_str, base) = split_filter(rest);
        let filter = Filter::parse(filter_str).map_err(|e| e.to_string())?;
        if base.is_empty() {
            Ok(SearchRequest::from_root(filter))
        } else {
            let dn = base.parse().map_err(|e| format!("{e}"))?;
            Ok(SearchRequest::new(dn, fbdr_ldap::Scope::Subtree, filter))
        }
    }

    fn cmd_search(&mut self, rest: &str, via_replica: bool) -> String {
        let req = match self.parse_query(rest) {
            Ok(r) => r,
            Err(e) => return e,
        };
        let (entries, served) = if via_replica {
            match self.repl.search(&req) {
                (es, ServedBy::Replica) => (es, "replica (hit)"),
                (es, ServedBy::Master) => (es, "master (miss, result cached)"),
            }
        } else {
            (self.repl.master().search(&req), "master")
        };
        let mut out = format!("{} entr{} from {served}\n", entries.len(), plural(entries.len()));
        for e in entries.iter().take(20) {
            let _ = writeln!(out, "  {}", e.dn());
        }
        if entries.len() > 20 {
            let _ = writeln!(out, "  … {} more", entries.len() - 20);
        }
        out
    }

    fn cmd_sort(&mut self, rest: &str) -> String {
        let (filter_str, attr) = split_filter(rest);
        if attr.is_empty() {
            return "usage: sort <filter> <attr>".to_owned();
        }
        let filter = match Filter::parse(filter_str) {
            Ok(f) => f,
            Err(e) => return e.to_string(),
        };
        let req = SearchRequest::from_root(filter);
        let entries = self.dit().search_sorted(&req, &[SortKey::ascending(attr.trim())]);
        let mut out = format!("{} entr{} sorted by {attr}\n", entries.len(), plural(entries.len()));
        for e in entries.iter().take(20) {
            let v = e
                .first_value(&attr.trim().into())
                .map(|v| v.raw().to_owned())
                .unwrap_or_else(|| "-".to_owned());
            let _ = writeln!(out, "  {v:<16} {}", e.dn());
        }
        out
    }

    fn cmd_install(&mut self, rest: &str) -> String {
        let req = match self.parse_query(rest) {
            Ok(r) => r,
            Err(e) => return e,
        };
        match self.repl.install_filter(req) {
            Ok(t) => format!("installed; {} entries loaded", t.full_entries),
            Err(e) => format!("install failed: {e}"),
        }
    }

    fn cmd_drop(&mut self, rest: &str) -> String {
        let req = match self.parse_query(rest) {
            Ok(r) => r,
            Err(e) => return e,
        };
        if self.repl.remove_filter(&req) {
            "filter removed".to_owned()
        } else {
            "no such stored filter".to_owned()
        }
    }

    fn cmd_filters(&mut self) -> String {
        let mut out = String::new();
        let mut n = 0;
        for (req, hits) in self.repl.replica().filters() {
            let _ = writeln!(out, "  {hits:>6} hits  {}", req.filter());
            n += 1;
        }
        if n == 0 {
            out = "no stored filters (use `install <filter>`)".to_owned();
        }
        out
    }

    fn cmd_update(&mut self, rest: &str) -> String {
        let parts: Vec<&str> = rest.splitn(3, ' ').collect();
        let [dn, attr, value] = parts.as_slice() else {
            return "usage: update <dn> <attr> <value>".to_owned();
        };
        let dn = match dn.parse() {
            Ok(d) => d,
            Err(e) => return format!("{e}"),
        };
        match self.repl.apply_update(UpdateOp::Modify {
            dn,
            mods: vec![Modification::Replace((*attr).into(), vec![(*value).into()])],
        }) {
            Ok(rec) => format!("modified ({})", rec.csn),
            Err(e) => format!("update failed: {e}"),
        }
    }

    fn cmd_delete(&mut self, rest: &str) -> String {
        let dn = match rest.parse() {
            Ok(d) => d,
            Err(e) => return format!("{e}"),
        };
        match self.repl.apply_update(UpdateOp::Delete(dn)) {
            Ok(rec) => format!("deleted ({})", rec.csn),
            Err(e) => format!("delete failed: {e}"),
        }
    }

    fn cmd_sync(&mut self) -> String {
        match self.repl.sync() {
            Ok(t) => format!(
                "synced: {} full entries, {} DN-only PDUs, {} bytes",
                t.full_entries, t.dn_only, t.bytes
            ),
            Err(e) => format!("sync failed: {e}"),
        }
    }

    fn cmd_stats(&mut self) -> String {
        let replica = self.repl.replica();
        let s = replica.stats();
        let e = replica.engine_stats();
        format!(
            "master: {} entries, csn {}\n\
             replica: {} entries, {} filters, {} cached queries\n\
             queries: {} total, {} hits ({} generalized, {} cached), hit ratio {:.3}\n\
             wan queries forwarded: {}\n\
             containment checks: {} ({} same-template, {} compiled, {} skipped, {} general)",
            self.dit().len(),
            self.dit().csn(),
            replica.entry_count(),
            replica.filter_count(),
            replica.cached_query_count(),
            s.queries,
            s.hits,
            s.generalized_hits,
            s.cache_hits,
            s.hit_ratio(),
            self.repl.report().wan_queries,
            e.total(),
            e.same_template,
            e.compiled,
            e.skipped_never,
            e.general,
        )
    }
}

/// Splits `<filter> [argument]` after the filter's balanced closing
/// parenthesis, so values may contain spaces (RFC 2254 escapes literal
/// parentheses, so counting them is exact). Anything that does not
/// start with `(` falls back to the first whitespace.
fn split_filter(rest: &str) -> (&str, &str) {
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' if depth <= 1 => return (&rest[..=i], rest[i + 1..].trim()),
            ')' => depth -= 1,
            c if depth == 0 && c.is_whitespace() => return (&rest[..i], rest[i..].trim()),
            _ => {}
        }
    }
    (rest, "")
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

const HELP: &str = "\
commands:
  gen [employees]          generate a synthetic enterprise directory
  import <file.ldif>       load LDIF into the master (the replica starts over)
  export [file.ldif]       dump the master as LDIF (stdout if no file)
  search <filter> [base]   search the master directly
  rsearch <filter> [base]  query via the replica (miss -> master + cache)
  sort <filter> <attr>     master search, server-side sorted (RFC 2891)
  install <filter> [base]  replicate a filter (ReSync session)
  drop <filter> [base]     remove a replicated filter
  filters                  list stored filters with hit counts
  update <dn> <attr> <v>   replace an attribute at the master
  delete <dn>              delete a (leaf) entry at the master
  sync                     poll the master for all filters
  stats                    master/replica/hit-ratio/engine statistics
  help | quit";

#[cfg(test)]
mod tests {
    use super::*;

    fn out(shell: &mut Shell, cmd: &str) -> String {
        match shell.run_command(cmd) {
            ShellOutcome::Output(s) => s,
            ShellOutcome::Quit => panic!("unexpected quit"),
        }
    }

    #[test]
    fn end_to_end_session() {
        let mut sh = Shell::new();
        assert!(out(&mut sh, "gen 500").contains("500 employees"));
        // Install the hottest serial block and query through the replica.
        let o = out(&mut sh, "install (serialNumber=1000*)");
        assert!(o.contains("entries loaded"), "{o}");
        let o = out(&mut sh, "rsearch (serialNumber=100003)");
        assert!(o.contains("replica (hit)"), "{o}");
        let o = out(&mut sh, "rsearch (serialNumber=999999)");
        assert!(o.contains("master (miss"), "{o}");
        // Repeat of the miss now hits the cache.
        let o = out(&mut sh, "rsearch (serialNumber=999999)");
        assert!(o.contains("replica (hit)"), "{o}");
        // A value with a space: the command splits after the filter's
        // closing parenthesis, not at the first blank.
        out(&mut sh, "update cn=emp000001,c=g0,o=xyz description hello world");
        for cmd in
            ["search (description=hello world)", "search (description=hello world) c=g0,o=xyz"]
        {
            let o = out(&mut sh, cmd);
            assert!(o.contains("1 entry") && o.contains("cn=emp000001"), "{cmd}: {o}");
        }
        let o = out(&mut sh, "install (&(objectclass=*)(description=hello world))");
        assert!(o.contains("1 entries loaded"), "{o}");
        assert!(out(&mut sh, "sort (description=hello world) cn").contains("emp000001"));
        let o = out(&mut sh, "stats");
        assert!(o.contains("hit ratio"), "{o}");
        assert!(out(&mut sh, "filters").contains("serialNumber=1000"));
    }

    #[test]
    fn update_sync_flow() {
        let mut sh = Shell::new();
        out(&mut sh, "gen 200");
        out(&mut sh, "install (serialNumber=1000*)");
        let o = out(&mut sh, "search (serialNumber=100001)");
        let dn_line = o.lines().nth(1).expect("one result").trim().to_owned();
        let o = out(&mut sh, &format!("update {dn_line} mail changed@x"));
        assert!(o.contains("modified"), "{o}");
        let o = out(&mut sh, "sync");
        assert!(o.contains("1 full entries"), "{o}");
        let o = out(&mut sh, "rsearch (mail=changed@x)");
        // mail query is not contained in the serial filter -> miss.
        assert!(o.contains("miss"), "{o}");
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let mut sh = Shell::new();
        assert!(out(&mut sh, "search not-a-filter").contains("invalid filter"));
        assert!(out(&mut sh, "update nonsense").contains("usage"));
        assert!(out(&mut sh, "delete cn=ghost,o=none").contains("failed"));
        assert!(out(&mut sh, "bogus").contains("unknown command"));
        assert!(out(&mut sh, "drop (a=1)").contains("no such stored filter"));
        assert_eq!(sh.run_command("quit"), ShellOutcome::Quit);
    }

    #[test]
    fn export_round_trips_via_tempfile() {
        let mut sh = Shell::new();
        out(&mut sh, "gen 100");
        let dump = out(&mut sh, "export");
        assert!(dump.contains("dn: o=xyz"));
        // Fresh shell imports the dump.
        let path = std::env::temp_dir().join("fbdr-shell-test.ldif");
        std::fs::write(&path, &dump).expect("write temp file");
        let mut sh2 = Shell::new();
        let o = out(&mut sh2, &format!("import {}", path.display()));
        assert!(o.contains("imported"), "{o}");
        let _ = std::fs::remove_file(&path);
    }
}
