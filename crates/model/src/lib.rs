#![warn(missing_docs)]
//! The executable reference model of filter-based replication: what the
//! paper promises, written as plainly as it can be, with no index, no
//! session, no epoch and no history.
//!
//! - The master ([`ModelMaster`]) is a [`BTreeMap`] from DN to entry. Its
//!   commands are the four of "Algebra of Data Reconciliation": add,
//!   delete, modify and move, each refused unless its structural
//!   preconditions hold, and a search scans every entry.
//! - A replica ([`ModelReplica`]) is its stored filters, in install
//!   order, and a FIFO window of cached queries. A stored filter's content
//!   is its request evaluated again at the master (§5: ReSync brings it
//!   there without losing a deletion). A cached query holds the frozen
//!   copies the master returned when it was cached (§7.4).
//! - A query is answered by the first stored filter that contains it
//!   (§4), else by the oldest cached query that contains it and whose
//!   copies carry every attribute its filter reads. Both are found by
//!   scanning, with [`ContainmentEngine::query_contained`].
//!
//! Answers are compared as multisets ([`multiset`]): neither the system
//! nor the model promises an order.

use fbdr_containment::{ContainmentEngine, PreparedQuery};
use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{AttrSelection, Dn, Entry, SearchRequest};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Why the model refused a command: the structural precondition it
/// broke. The system under test must refuse the same commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The name is taken.
    Exists,
    /// The target is absent.
    Absent,
    /// The new name's parent is absent and the name is not a suffix.
    NoParent,
    /// The target has children.
    NotLeaf,
    /// A value or attribute to delete is not there.
    NoSuchValue,
    /// A move under the entry itself.
    UnderSelf,
}

/// The master: every entry by DN, and the suffixes an entry may be added
/// at without a parent.
#[derive(Debug, Clone, Default)]
pub struct ModelMaster {
    entries: BTreeMap<Dn, Entry>,
    suffixes: BTreeSet<Dn>,
}

impl ModelMaster {
    /// An empty master whose naming contexts are `suffixes`.
    pub fn new(suffixes: impl IntoIterator<Item = Dn>) -> Self {
        ModelMaster { entries: BTreeMap::new(), suffixes: suffixes.into_iter().collect() }
    }

    /// The entry named `dn`.
    pub fn get(&self, dn: &Dn) -> Option<&Entry> {
        self.entries.get(dn)
    }

    /// Applies one command, or refuses it and changes nothing.
    ///
    /// # Errors
    ///
    /// The precondition the command breaks ([`Refused`]).
    pub fn apply(&mut self, op: &UpdateOp) -> Result<(), Refused> {
        match op {
            UpdateOp::Add(e) => {
                self.check_place(e.dn())?;
                self.entries.insert(e.dn().clone(), e.clone());
            }
            UpdateOp::Delete(dn) => {
                self.check_leaf(dn)?;
                self.entries.remove(dn);
            }
            UpdateOp::Modify { dn, mods } => {
                let mut e = self.entries.get(dn).ok_or(Refused::Absent)?.clone();
                for m in mods {
                    modify(&mut e, m)?;
                }
                self.entries.insert(dn.clone(), e);
            }
            UpdateOp::ModifyDn { dn, new_rdn, new_superior } => {
                self.check_leaf(dn)?;
                let parent = match new_superior {
                    Some(p) if dn.is_ancestor_or_self_of(p) => return Err(Refused::UnderSelf),
                    Some(p) => p.clone(),
                    None => dn.parent().ok_or(Refused::Absent)?,
                };
                let new_dn = parent.child(new_rdn.clone());
                self.check_place(&new_dn)?;
                let mut e = self.entries.remove(dn).ok_or(Refused::Absent)?;
                // deleteOldRDN: the old naming value goes, the new one comes.
                if let Some(old) = dn.rdn() {
                    e.remove_value(old.attr(), old.value());
                }
                e.add(new_rdn.attr().clone(), new_rdn.value().clone());
                e.set_dn(new_dn.clone());
                self.entries.insert(new_dn, e);
            }
        }
        Ok(())
    }

    /// A new entry may be named `dn`: the name is free, and it is a suffix
    /// or its parent is present.
    fn check_place(&self, dn: &Dn) -> Result<(), Refused> {
        if self.entries.contains_key(dn) {
            return Err(Refused::Exists);
        }
        if !self.suffixes.contains(dn)
            && !dn.parent().is_some_and(|p| self.entries.contains_key(&p))
        {
            return Err(Refused::NoParent);
        }
        Ok(())
    }

    /// `dn` is present and has no child.
    fn check_leaf(&self, dn: &Dn) -> Result<(), Refused> {
        if !self.entries.contains_key(dn) {
            return Err(Refused::Absent);
        }
        if self.entries.keys().any(|k| dn.is_parent_of(k)) {
            return Err(Refused::NotLeaf);
        }
        Ok(())
    }

    /// Every entry in the request's region that its filter matches,
    /// projected on its attributes.
    pub fn search(&self, request: &SearchRequest) -> Vec<Entry> {
        answer(request, self.entries.values())
    }
}

fn modify(e: &mut Entry, m: &Modification) -> Result<(), Refused> {
    match m {
        Modification::AddValues(a, vs) => {
            for v in vs {
                e.add(a.clone(), v.clone());
            }
        }
        Modification::DeleteValues(a, vs) => {
            for v in vs {
                if !e.remove_value(a, v) {
                    return Err(Refused::NoSuchValue);
                }
            }
        }
        Modification::DeleteAttr(a) => {
            if !e.remove_attr(a) {
                return Err(Refused::NoSuchValue);
            }
        }
        Modification::Replace(a, vs) => e.replace(a.clone(), vs.iter().cloned()),
    }
    Ok(())
}

/// `query` evaluated over `content`: the entries it matches, projected.
fn answer<'a>(query: &SearchRequest, content: impl Iterator<Item = &'a Entry>) -> Vec<Entry> {
    content.filter(|e| query.matches(e)).map(|e| query.attrs().project(e)).collect()
}

/// Who answers a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The stored filter at this install position.
    Filter(usize),
    /// The cached query at this window position, oldest first.
    Window(usize),
    /// Nobody: the query goes to the master.
    Miss,
}

/// A cached query, the copies the master returned for it, and the hits
/// it has answered.
#[derive(Debug)]
struct Frozen {
    prepared: PreparedQuery<'static>,
    entries: Vec<Entry>,
    hits: u64,
}

/// A replica: stored filters in install order, each with its hit count,
/// and the window of cached queries, oldest first.
#[derive(Debug)]
pub struct ModelReplica {
    filters: Vec<(PreparedQuery<'static>, u64)>,
    window: VecDeque<Frozen>,
    capacity: usize,
    engine: ContainmentEngine,
}

impl ModelReplica {
    /// A replica with no filter, caching up to `capacity` queries.
    pub fn new(capacity: usize) -> Self {
        ModelReplica {
            filters: Vec::new(),
            window: VecDeque::new(),
            capacity,
            engine: ContainmentEngine::new(),
        }
    }

    /// Stores a filter after the others.
    pub fn install(&mut self, request: SearchRequest) {
        self.filters.push((PreparedQuery::new(request), 0));
    }

    /// Removes the first stored filter equal to `request`; false if none is.
    pub fn remove(&mut self, request: &SearchRequest) -> bool {
        let Some(pos) = self.filters.iter().position(|(f, _)| f.request() == request) else {
            return false;
        };
        self.filters.remove(pos);
        true
    }

    /// The stored filters' requests, in install order.
    pub fn filters(&self) -> impl Iterator<Item = &SearchRequest> {
        self.filters.iter().map(|(f, _)| f.request())
    }

    /// The hits each stored filter has answered, in install order.
    pub fn filter_hits(&self) -> Vec<u64> {
        self.filters.iter().map(|&(_, hits)| hits).collect()
    }

    /// The cached queries' requests and the hits each has answered,
    /// oldest first.
    pub fn cached(&self) -> Vec<(SearchRequest, u64)> {
        self.window.iter().map(|c| (c.prepared.request().clone(), c.hits)).collect()
    }

    /// What the stored filter at `pos` holds: its request, evaluated again.
    pub fn content(&self, pos: usize, master: &ModelMaster) -> Vec<Entry> {
        master.search(self.filters[pos].0.request())
    }

    /// Caches `request` with the master's answer to it, evicting the
    /// oldest query beyond the window.
    pub fn cache(&mut self, request: SearchRequest, master: &ModelMaster) {
        if self.capacity == 0 {
            return;
        }
        let entries = master.search(&request);
        self.window.push_back(Frozen { prepared: PreparedQuery::new(request), entries, hits: 0 });
        if self.window.len() > self.capacity {
            self.window.pop_front();
        }
    }

    /// Who answers `query`: the first stored filter that contains it, else
    /// the oldest cached query that contains it and can read its filter.
    pub fn decide(&self, query: &SearchRequest) -> Decision {
        let q = PreparedQuery::borrowed(query);
        if let Some(pos) = self.filters.iter().position(|(f, _)| self.engine.query_contained(&q, f))
        {
            return Decision::Filter(pos);
        }
        let readable = |c: &Frozen| {
            filter_readable_from(query, c.prepared.request())
                && self.engine.query_contained(&q, &c.prepared)
        };
        match self.window.iter().position(readable) {
            Some(pos) => Decision::Window(pos),
            None => Decision::Miss,
        }
    }

    /// Answers `query` as the replica must, counting the hit: the decision, and the entries it answers with (`None` on a
    /// miss). A stored filter answers from its content, a cached query
    /// from its frozen copies.
    pub fn answer(
        &mut self,
        query: &SearchRequest,
        master: &ModelMaster,
    ) -> (Decision, Option<Vec<Entry>>) {
        let decision = self.decide(query);
        let entries = match decision {
            Decision::Filter(pos) => {
                self.filters[pos].1 += 1;
                Some(answer(query, self.content(pos, master).iter()))
            }
            Decision::Window(pos) => {
                self.window[pos].hits += 1;
                Some(answer(query, self.window[pos].entries.iter()))
            }
            Decision::Miss => None,
        };
        (decision, entries)
    }
}

/// Whether a cached query's copies can evaluate `query`'s filter: the
/// master projected them onto the cached request's attributes, so an
/// explicit list must name every attribute the filter reads.
fn filter_readable_from(query: &SearchRequest, cached: &SearchRequest) -> bool {
    match cached.attrs() {
        AttrSelection::All => true,
        AttrSelection::List(held) => query.filter().attr_names().iter().all(|a| held.contains(a)),
    }
}

/// An answer in a canonical order, so that two answers are equal as
/// multisets exactly when their canonical forms are equal.
pub fn multiset(mut entries: Vec<Entry>) -> Vec<Entry> {
    entries
        .sort_by(|a, b| a.dn().cmp(b.dn()).then_with(|| format!("{a:?}").cmp(&format!("{b:?}"))));
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Filter, Rdn, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().expect("valid dn")
    }

    fn master() -> ModelMaster {
        let mut m = ModelMaster::new([dn("o=xyz")]);
        m.apply(&UpdateOp::Add(Entry::new(dn("o=xyz")))).expect("suffix");
        for (cn, dept) in [("a", "1"), ("b", "2")] {
            let e = Entry::new(dn(&format!("cn={cn},o=xyz"))).with("cn", cn).with("dept", dept);
            m.apply(&UpdateOp::Add(e)).expect("person");
        }
        m
    }

    fn request(base: &str, filter: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(filter).expect("valid filter"))
    }

    #[test]
    fn commands_are_refused_on_their_preconditions() {
        let mut m = master();
        let add = |d: &str| UpdateOp::Add(Entry::new(dn(d)));
        assert_eq!(m.apply(&add("cn=a,o=xyz")), Err(Refused::Exists));
        assert_eq!(m.apply(&add("cn=x,ou=none,o=xyz")), Err(Refused::NoParent));
        assert_eq!(m.apply(&UpdateOp::Delete(dn("o=xyz"))), Err(Refused::NotLeaf));
        assert_eq!(m.apply(&UpdateOp::Delete(dn("cn=z,o=xyz"))), Err(Refused::Absent));
        let drop_mail = vec![Modification::DeleteAttr("mail".into())];
        assert_eq!(
            m.apply(&UpdateOp::Modify { dn: dn("cn=a,o=xyz"), mods: drop_mail }),
            Err(Refused::NoSuchValue)
        );
        let onto_b = UpdateOp::ModifyDn {
            dn: dn("cn=a,o=xyz"),
            new_rdn: Rdn::new("cn", "b"),
            new_superior: None,
        };
        assert_eq!(m.apply(&onto_b), Err(Refused::Exists));
        let under_self = UpdateOp::ModifyDn {
            dn: dn("cn=a,o=xyz"),
            new_rdn: Rdn::new("cn", "c"),
            new_superior: Some(dn("cn=a,o=xyz")),
        };
        assert_eq!(m.apply(&under_self), Err(Refused::UnderSelf));
        assert_eq!(m.search(&request("", "(cn=*)")).len(), 2, "a refused command changes nothing");
    }

    #[test]
    fn a_move_renames_the_naming_value() {
        let mut m = master();
        let op = UpdateOp::ModifyDn {
            dn: dn("cn=a,o=xyz"),
            new_rdn: Rdn::new("cn", "c"),
            new_superior: None,
        };
        m.apply(&op).expect("move");
        let e = m.get(&dn("cn=c,o=xyz")).expect("moved");
        assert_eq!(e.values(&"cn".into()).map(ToString::to_string).collect::<Vec<_>>(), ["c"]);
        assert!(m.get(&dn("cn=a,o=xyz")).is_none());
    }

    #[test]
    fn the_first_containing_filter_answers_then_the_oldest_readable_cached_query() {
        let m = master();
        let mut r = ModelReplica::new(2);
        r.install(request("o=xyz", "(dept=1)"));
        r.install(request("", "(dept=*)"));
        assert_eq!(r.decide(&request("o=xyz", "(dept=1)")), Decision::Filter(0));
        assert_eq!(r.decide(&request("o=xyz", "(dept=2)")), Decision::Filter(1));
        assert_eq!(r.decide(&request("o=xyz", "(cn=a)")), Decision::Miss);
        let only_dept = SearchRequest::with_attrs(
            Dn::root(),
            Scope::Subtree,
            Filter::parse("(cn=*)").expect("valid filter"),
            AttrSelection::list(["dept"]),
        );
        r.cache(only_dept, &m);
        assert_eq!(r.decide(&request("o=xyz", "(cn=a)")), Decision::Miss, "the copies lack cn");
        r.cache(request("", "(cn=*)"), &m);
        let (decision, answer) = r.answer(&request("o=xyz", "(cn=a)"), &m);
        assert_eq!(decision, Decision::Window(1));
        assert_eq!(answer.map(|a| a.len()), Some(1));
        r.cache(request("", "(cn=a)"), &m);
        assert_eq!(
            r.decide(&request("o=xyz", "(cn=a)")),
            Decision::Window(0),
            "the oldest is evicted"
        );
        assert!(r.remove(&request("o=xyz", "(dept=1)")));
        assert_eq!(r.filter_hits(), [0]);
    }
}
