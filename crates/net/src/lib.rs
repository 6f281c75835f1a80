#![warn(missing_docs)]
//! Simulated distributed LDAP directory (§2.3, Figure 2 of the paper).
//!
//! A [`Network`] holds a set of [`Server`]s, each serving one or more
//! naming contexts out of its own `DitStore`. A [`Client`] submits
//! search requests to a server and transparently chases the two kinds of
//! referral LDAP produces:
//!
//! * **default referrals** during distributed name resolution, when the
//!   contacted server does not hold the target base, and
//! * **continuation references** for subordinate naming contexts held by
//!   other servers.
//!
//! Every request/response exchange counts as one round trip and its PDUs
//! are costed in bytes ([`OpStats`]) — this is the machinery behind the
//! paper's observation that referral-based operation completion is
//! extremely slow (four round trips for the Figure 2 walkthrough).
//!
//! # Example
//!
//! ```
//! use fbdr_net::{Network, Server};
//! use fbdr_dit::{DitStore, NamingContext};
//! use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut dit = DitStore::new();
//! dit.add_suffix("o=xyz".parse()?);
//! dit.add(Entry::new("o=xyz".parse()?).with("objectclass", "organization"))?;
//! let ctx = NamingContext::new("o=xyz".parse()?);
//! let mut net = Network::new();
//! net.add_server(Server::new("ldap://hostA", dit, vec![ctx], None));
//!
//! let mut client = net.client();
//! let req = SearchRequest::new("o=xyz".parse()?, Scope::Subtree, Filter::match_all());
//! let result = client.search("ldap://hostA", &req)?;
//! assert_eq!(result.entries.len(), 1);
//! assert_eq!(result.stats.round_trips, 1);
//! # Ok(())
//! # }
//! ```

mod client;
pub mod cost;
mod server;
mod service;
pub mod shard;

pub use client::{Client, NetError, SearchResult};
pub use cost::{CostModel, ExchangeTracker, Hop, HopDirection, OpStats};
pub use server::{Server, ServerOutcome};
pub use service::DirectoryService;
pub use shard::{ShardId, ShardMap, SubRequest};

use fbdr_obs::Obs;
use std::collections::HashMap;

/// A set of directory nodes jointly serving a namespace: master servers
/// holding naming contexts and, optionally, partial replicas or other
/// custom [`DirectoryService`]s.
#[derive(Debug, Default)]
pub struct Network {
    servers: HashMap<String, Box<dyn DirectoryService>>,
    cost: CostModel,
    /// Observability handle shared with clients created via
    /// [`Network::client`]; [`Obs::off`] unless attached.
    obs: Obs,
}

impl Network {
    /// Creates an empty network with the default cost model.
    pub fn new() -> Self {
        Network::default()
    }

    /// Attaches observability: clients created via [`Network::client`]
    /// count searches, round trips and referrals into the registry and
    /// emit `net.referral` trace events while chasing.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The observability handle clients of this network record through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Adds (or replaces) a master server, keyed by its URL.
    pub fn add_server(&mut self, server: Server) {
        self.add_service(Box::new(server));
    }

    /// Adds (or replaces) any directory service, keyed by its URL.
    pub fn add_service(&mut self, service: Box<dyn DirectoryService>) {
        self.servers.insert(service.url().to_owned(), service);
    }

    /// Removes a node by URL (e.g. to swap in a fault-injecting wrapper).
    /// Returns the removed service, if any.
    pub fn remove_server(&mut self, url: &str) -> Option<Box<dyn DirectoryService>> {
        self.servers.remove(url)
    }

    /// Looks up a node by URL.
    pub fn server(&self, url: &str) -> Option<&dyn DirectoryService> {
        self.servers.get(url).map(Box::as_ref)
    }

    /// Server URLs in the network.
    pub fn urls(&self) -> impl Iterator<Item = &str> {
        self.servers.keys().map(String::as_str)
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Creates a referral-chasing client for this network.
    pub fn client(&self) -> Client<'_> {
        Client::new(self)
    }
}
