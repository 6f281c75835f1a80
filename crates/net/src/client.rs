//! The referral-chasing client.

use crate::cost::OpStats;
use crate::server::ServerOutcome;
use crate::Network;
use fbdr_ldap::{Dn, Entry, Scope, SearchRequest};
use fbdr_obs::event;
use std::collections::{HashSet, VecDeque};
use std::error::Error;
use std::fmt;

/// Error from a distributed operation.
///
/// Every variant is a root cause ([`Error::source`] returns `None`):
/// network-level failures are terminal here, while replica-side sync
/// failures chain through `SyncError` in `fbdr-resync`. Only the *initial*
/// search target can produce these errors — failures at referred servers
/// degrade to partial results (see `SearchResult::unreachable`), never to
/// an `Err`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The named server is not part of the network.
    ///
    /// Invariant: carries the URL exactly as the caller supplied it, and
    /// is only produced for the initial target — an unknown *continuation*
    /// target is recorded in `SearchResult::unreachable` instead.
    UnknownServer(String),
    /// No server holds the target base.
    ///
    /// Invariant: the carried DN is the request base (or a continuation
    /// base derived from it); the network was consulted and genuinely has
    /// no naming context covering it.
    NoSuchObject(Dn),
    /// Referral chasing revisited a `(server, base)` pair — broken
    /// referral topology.
    ///
    /// Invariant: carries the URL at which the cycle closed; the same
    /// request was already dispatched to that server for the same base,
    /// so continuing would loop forever.
    ReferralLoop(String),
    /// The initial target is temporarily unreachable. Transient: retrying
    /// later may succeed. (An unreachable *continuation* target does not
    /// error — the search returns partial results instead.)
    Unavailable(String),
}

impl NetError {
    /// True for errors worth retrying (the server may come back).
    pub fn is_transient(&self) -> bool {
        matches!(self, NetError::Unavailable(_))
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownServer(u) => write!(f, "unknown server: {u}"),
            NetError::NoSuchObject(dn) => write!(f, "no such object: {dn}"),
            NetError::ReferralLoop(u) => write!(f, "referral loop via {u}"),
            NetError::Unavailable(u) => write!(f, "server unavailable: {u}"),
        }
    }
}

impl Error for NetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        // All variants are root causes; nothing to chain to.
        None
    }
}

/// Result of a fully-chased distributed search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// All entries collected across servers, deduplicated by DN.
    pub entries: Vec<Entry>,
    /// Cost accounting for the whole operation.
    pub stats: OpStats,
    /// Referred servers that could not be reached; when non-empty the
    /// result is partial (entries held by those servers are missing).
    pub unreachable: Vec<String>,
}

impl SearchResult {
    /// True when every referred server answered (no partial coverage).
    // A test hook: only tests call it.
    #[doc(hidden)]
    pub fn is_complete(&self) -> bool {
        self.unreachable.is_empty()
    }
}

/// A client that performs distributed operations against a [`Network`],
/// chasing default referrals and continuation references (Figure 2).
#[derive(Debug)]
pub struct Client<'a> {
    net: &'a Network,
}

impl<'a> Client<'a> {
    pub(crate) fn new(net: &'a Network) -> Self {
        Client { net }
    }

    /// Performs a search starting at `server_url`, chasing referrals until
    /// the result is complete.
    ///
    /// Availability errors are handled asymmetrically: if the *initial*
    /// target is unknown or unavailable the search fails (the client got
    /// nothing), but if a *referred* server fails mid-chase the partial
    /// result is returned with the failed server recorded in
    /// [`SearchResult::unreachable`] — some answer beats no answer.
    ///
    /// # Errors
    ///
    /// * [`NetError::UnknownServer`] if the initial target is unknown.
    /// * [`NetError::Unavailable`] if the initial target is down.
    /// * [`NetError::NoSuchObject`] if no server holds the base.
    /// * [`NetError::ReferralLoop`] on cyclic referrals.
    pub fn search(&mut self, server_url: &str, req: &SearchRequest) -> Result<SearchResult, NetError> {
        let mut stats = OpStats::default();
        let mut entries: Vec<Entry> = Vec::new();
        let mut unreachable: Vec<String> = Vec::new();
        let mut seen_dns: HashSet<String> = HashSet::new();
        let mut visited: HashSet<(String, String)> = HashSet::new();
        let mut queue: VecDeque<(String, SearchRequest, bool)> = VecDeque::new();
        queue.push_back((server_url.to_owned(), req.clone(), true));
        let overhead = self.net.cost_model().pdu_overhead as u64;

        while let Some((url, request, initial)) = queue.pop_front() {
            let key = (url.clone(), request.base().to_string());
            if !visited.insert(key) {
                return Err(NetError::ReferralLoop(url));
            }
            let server = match self.net.server(&url) {
                Some(s) => s,
                None if initial => return Err(NetError::UnknownServer(url)),
                None => {
                    unreachable.push(url);
                    continue;
                }
            };
            stats.round_trips += 1;
            stats.bytes_sent += request.estimated_size() as u64 + overhead;
            match server.handle_search(&request) {
                ServerOutcome::DefaultReferral(next) => {
                    stats.referrals_received += 1;
                    stats.bytes_received += next.len() as u64 + overhead;
                    event!(
                        self.net.obs(),
                        "net",
                        "referral",
                        kind = "default",
                        from = url.as_str(),
                        to = next.as_str(),
                    );
                    queue.push_back((next, request, false));
                }
                ServerOutcome::NoSuchObject => {
                    return Err(NetError::NoSuchObject(request.base().clone()));
                }
                ServerOutcome::Unavailable => {
                    if initial {
                        return Err(NetError::Unavailable(url));
                    }
                    unreachable.push(url);
                }
                ServerOutcome::Results { entries: found, continuations } => {
                    for e in found {
                        stats.entries_returned += 1;
                        stats.bytes_received += e.estimated_size() as u64 + overhead;
                        if seen_dns.insert(e.dn().to_string()) {
                            entries.push(e);
                        }
                    }
                    for (base, next_url) in continuations {
                        stats.referrals_received += 1;
                        stats.bytes_received += (base.display_len() + next_url.len()) as u64 + overhead;
                        event!(
                            self.net.obs(),
                            "net",
                            "referral",
                            kind = "continuation",
                            from = url.as_str(),
                            to = next_url.as_str(),
                            base = base.to_string(),
                        );
                        let next_req = continuation_request(&request, base);
                        queue.push_back((next_url, next_req, false));
                    }
                }
            }
        }
        let obs = self.net.obs();
        if obs.is_active() {
            let reg = obs.registry();
            reg.counter("fbdr_net_searches_total").inc();
            reg.counter("fbdr_net_round_trips_total").add(stats.round_trips);
            reg.counter("fbdr_net_referrals_total").add(stats.referrals_received);
            if !unreachable.is_empty() {
                reg.counter("fbdr_net_partial_results_total").inc();
            }
        }
        Ok(SearchResult { entries, stats, unreachable })
    }
}

/// Builds the modified request a continuation reference requires: the base
/// moves to the subordinate context's root, and the scope adapts (a
/// one-level search continuing into a child referral becomes a base
/// search of that child).
fn continuation_request(orig: &SearchRequest, new_base: Dn) -> SearchRequest {
    let scope = match orig.scope() {
        Scope::Subtree => Scope::Subtree,
        Scope::OneLevel => Scope::Base,
        Scope::Base => Scope::Base,
    };
    SearchRequest::with_attrs(new_base, scope, orig.filter().clone(), orig.attrs().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Server;
    use fbdr_dit::{DitStore, NamingContext};
    use fbdr_ldap::Filter;

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    /// The three-server o=xyz deployment of Figure 2.
    fn figure2_network() -> Network {
        let mut net = Network::new();

        // hostA: suffix o=xyz with referrals to hostB and hostC.
        let mut dit_a = DitStore::new();
        dit_a.add_suffix(dn("o=xyz"));
        dit_a.add(Entry::new(dn("o=xyz")).with("objectclass", "organization")).unwrap();
        dit_a.add(Entry::new(dn("c=us,o=xyz")).with("objectclass", "country")).unwrap();
        dit_a
            .add(Entry::new(dn("cn=Fred Jones,c=us,o=xyz")).with("objectclass", "person"))
            .unwrap();
        let ctx_a = NamingContext::new(dn("o=xyz"))
            .with_referral(dn("ou=research,c=us,o=xyz"), "ldap://hostB")
            .with_referral(dn("c=in,o=xyz"), "ldap://hostC");
        net.add_server(Server::new("ldap://hostA", dit_a, vec![ctx_a], None));

        // hostB: the research subtree.
        let mut dit_b = DitStore::new();
        dit_b.add_suffix(dn("ou=research,c=us,o=xyz"));
        dit_b
            .add(Entry::new(dn("ou=research,c=us,o=xyz")).with("objectclass", "organizationalUnit"))
            .unwrap();
        for name in ["John Doe", "Carl Miller", "John Smith"] {
            dit_b
                .add(
                    Entry::new(dn(&format!("cn={name},ou=research,c=us,o=xyz")))
                        .with("objectclass", "person")
                        .with("cn", name),
                )
                .unwrap();
        }
        let ctx_b = NamingContext::new(dn("ou=research,c=us,o=xyz"));
        net.add_server(Server::new(
            "ldap://hostB",
            dit_b,
            vec![ctx_b],
            Some("ldap://hostA".into()),
        ));

        // hostC: the India subtree.
        let mut dit_c = DitStore::new();
        dit_c.add_suffix(dn("c=in,o=xyz"));
        dit_c.add(Entry::new(dn("c=in,o=xyz")).with("objectclass", "country")).unwrap();
        dit_c
            .add(Entry::new(dn("cn=Asha Rao,c=in,o=xyz")).with("objectclass", "person"))
            .unwrap();
        let ctx_c = NamingContext::new(dn("c=in,o=xyz"));
        net.add_server(Server::new(
            "ldap://hostC",
            dit_c,
            vec![ctx_c],
            Some("ldap://hostA".into()),
        ));
        net
    }

    #[test]
    fn figure2_walkthrough_costs_four_round_trips() {
        let net = figure2_network();
        let mut client = net.client();
        // Client sends the subtree search for o=xyz to hostB, as in the
        // paper's walkthrough.
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        let result = client.search("ldap://hostB", &req).unwrap();
        // hostB → default referral; hostA → 3 entries + 2 continuations;
        // hostB and hostC → remaining entries. Four round trips total.
        assert_eq!(result.stats.round_trips, 4);
        assert_eq!(result.stats.referrals_received, 3); // 1 default + 2 continuations
        assert_eq!(result.entries.len(), 3 + 4 + 2);
    }

    #[test]
    fn direct_hit_is_one_round_trip() {
        let net = figure2_network();
        let mut client = net.client();
        let req = SearchRequest::new(dn("ou=research,c=us,o=xyz"), Scope::Subtree, Filter::match_all());
        let result = client.search("ldap://hostB", &req).unwrap();
        assert_eq!(result.stats.round_trips, 1);
        assert_eq!(result.entries.len(), 4);
        assert_eq!(result.stats.referrals_received, 0);
    }

    #[test]
    fn filtered_distributed_search() {
        let net = figure2_network();
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::parse("(cn=John*)").unwrap());
        let result = client.search("ldap://hostA", &req).unwrap();
        let mut names: Vec<String> = result
            .entries
            .iter()
            .map(|e| e.dn().rdn().unwrap().value().raw().to_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["John Doe", "John Smith"]);
        // hostA + 2 continuations = 3 round trips.
        assert_eq!(result.stats.round_trips, 3);
    }

    #[test]
    fn unknown_base_errors() {
        let net = figure2_network();
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=absent"), Scope::Subtree, Filter::match_all());
        match client.search("ldap://hostB", &req) {
            Err(NetError::NoSuchObject(_)) => {}
            other => panic!("expected NoSuchObject, got {other:?}"),
        }
    }

    #[test]
    fn unknown_server_errors() {
        let net = figure2_network();
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        assert!(matches!(
            client.search("ldap://nowhere", &req),
            Err(NetError::UnknownServer(_))
        ));
    }

    #[test]
    fn lifetime_stats_accumulate() {
        let net = figure2_network();
        let mut client = net.client();
        let req = SearchRequest::new(dn("c=in,o=xyz"), Scope::Subtree, Filter::match_all());
        let first = client.search("ldap://hostC", &req).unwrap().stats;
        let second = client.search("ldap://hostC", &req).unwrap().stats;
        assert_eq!(first.round_trips + second.round_trips, 2);
        assert_eq!(first.entries_returned + second.entries_returned, 4);
    }

    /// A node that is down: every request times out.
    #[derive(Debug)]
    struct Down(String);

    impl crate::DirectoryService for Down {
        fn url(&self) -> &str {
            &self.0
        }

        fn handle_search(&self, _req: &SearchRequest) -> ServerOutcome {
            ServerOutcome::Unavailable
        }
    }

    #[test]
    fn downed_continuation_target_yields_partial_results() {
        let mut net = figure2_network();
        net.remove_server("ldap://hostC");
        net.add_service(Box::new(Down("ldap://hostC".into())));
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        let res = client.search("ldap://hostA", &req).unwrap();
        // hostA and hostB answered; hostC's two entries are missing.
        assert_eq!(res.entries.len(), 3 + 4);
        assert!(!res.is_complete());
        assert_eq!(res.unreachable, ["ldap://hostC"]);
    }

    #[test]
    fn downed_initial_target_errors() {
        let mut net = figure2_network();
        net.remove_server("ldap://hostA");
        net.add_service(Box::new(Down("ldap://hostA".into())));
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        let err = client.search("ldap://hostA", &req).unwrap_err();
        assert!(matches!(err, NetError::Unavailable(_)));
        assert!(err.is_transient());
        assert!(!NetError::UnknownServer("x".into()).is_transient());
    }

    #[test]
    fn unknown_continuation_server_yields_partial_results() {
        let mut net = figure2_network();
        net.remove_server("ldap://hostB");
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=xyz"), Scope::Subtree, Filter::match_all());
        let res = client.search("ldap://hostA", &req).unwrap();
        assert_eq!(res.entries.len(), 3 + 2);
        assert_eq!(res.unreachable, ["ldap://hostB"]);
    }

    #[test]
    fn referral_loop_detected() {
        // Two servers pointing default referrals at each other, neither
        // holding the base.
        let mut net = Network::new();
        let mk = |url: &str, other: &str| {
            let mut dit = DitStore::new();
            dit.add_suffix(dn("o=q"));
            Server::new(url, dit, vec![NamingContext::new(dn("o=q"))], Some(other.into()))
        };
        net.add_server(mk("ldap://x", "ldap://y"));
        net.add_server(mk("ldap://y", "ldap://x"));
        let mut client = net.client();
        let req = SearchRequest::new(dn("o=zz"), Scope::Subtree, Filter::match_all());
        assert!(matches!(client.search("ldap://x", &req), Err(NetError::ReferralLoop(_))));
    }
}
