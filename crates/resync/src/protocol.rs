//! Wire-level types of the ReSync protocol.

use fbdr_ldap::{Dn, Entry};
use fbdr_net::ShardId;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Opaque resumption token identifying an update session at the master.
///
/// Internally the token packs two values: the session identifier in the
/// high 32 bits and a per-session **sequence number** in the low 32 bits.
/// The sequence number makes the protocol at-least-once safe: every
/// response carries a fresh sequence, and the next request echoing it
/// acknowledges delivery. A request echoing the *previous* sequence tells
/// the master the last response was lost, and the master sends what it
/// named again, at its live state (see `SyncMaster`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Cookie(pub u64);

impl Cookie {
    /// Packs a session id and sequence number into a cookie.
    pub fn new(session: u32, seq: u32) -> Cookie {
        Cookie((u64::from(session) << 32) | u64::from(seq))
    }

    /// The session identifier (high 32 bits).
    pub fn session(&self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The response sequence number within the session (low 32 bits).
    pub fn seq(&self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Display for Cookie {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cookie:{}.{}", self.session(), self.seq())
    }
}

/// Mode requested in a `reSyncControl = (mode, cookie)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SyncMode {
    /// One batch of updates now; a cookie to resume later.
    Poll,
    /// One batch now, then change notifications on an open channel.
    Persist,
    /// Terminate the session identified by the cookie.
    SyncEnd,
}

/// The control attached to a search request to make it a ReSync request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReSyncControl {
    /// Requested update mode.
    pub mode: SyncMode,
    /// `None` starts a new session (full content); `Some` resumes one.
    pub cookie: Option<Cookie>,
}

impl ReSyncControl {
    /// Poll-mode control.
    pub fn poll(cookie: Option<Cookie>) -> Self {
        ReSyncControl { mode: SyncMode::Poll, cookie }
    }

    /// Persist-mode control.
    pub fn persist(cookie: Option<Cookie>) -> Self {
        ReSyncControl { mode: SyncMode::Persist, cookie }
    }

    /// Session termination.
    pub fn sync_end(cookie: Cookie) -> Self {
        ReSyncControl { mode: SyncMode::SyncEnd, cookie: Some(cookie) }
    }
}

/// One update PDU: an entry (or DN) plus the action the replica must take.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SyncAction {
    /// Entry moved into the content — the complete entry is sent. (May
    /// result from an add, modify or modify DN at the master.)
    Add(Entry),
    /// Entry changed but stayed in the content — the complete entry.
    Modify(Entry),
    /// Entry moved out of the content — only the DN travels. (May result
    /// from a delete, modify or rename.)
    Delete(Dn),
}

impl SyncAction {
    /// The DN the action concerns.
    pub fn dn(&self) -> &Dn {
        match self {
            SyncAction::Add(e) | SyncAction::Modify(e) => e.dn(),
            SyncAction::Delete(dn) => dn,
        }
    }

    /// Estimated wire size in bytes.
    pub fn estimated_size(&self) -> usize {
        match self {
            SyncAction::Add(e) | SyncAction::Modify(e) => e.estimated_size() + 8,
            SyncAction::Delete(dn) => dn.display_len() + 8,
        }
    }

    /// True when the full entry travels (add/modify).
    pub fn carries_entry(&self) -> bool {
        matches!(self, SyncAction::Add(_) | SyncAction::Modify(_))
    }
}

impl fmt::Display for SyncAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncAction::Add(e) => write!(f, "{}, add", e.dn()),
            SyncAction::Modify(e) => write!(f, "{}, mod", e.dn()),
            SyncAction::Delete(dn) => write!(f, "{dn}, delete"),
        }
    }
}

/// One persist-mode notification wakeup: every action the master had
/// queued for the session at flush time, coalesced per DN by the session
/// history.
///
/// A persist channel carries `NotifyBatch` messages, one per wakeup —
/// never bare actions — so receiving a message *is* the wakeup and the
/// amplification ratio `coalesced_from / 1` is directly observable at the
/// replica. Under the immediate flush policy each batch carries exactly
/// one update's actions (`coalesced_from == 1`), reproducing the original
/// one-notification-per-update behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NotifyBatch {
    /// Actions to apply, coalesced per DN (deletes, then adds, then
    /// modifies, each group in DN order — the same shape as a poll batch).
    pub actions: Vec<SyncAction>,
    /// How many raw master updates this batch coalesces. At least 1; a
    /// value above `actions.len()` means several updates to the same DN
    /// collapsed into one action.
    pub coalesced_from: u64,
    /// Master time (ms) when the oldest update in this batch landed — the
    /// batch's staleness floor: `delivery_time - first_enqueued_ms` is the
    /// worst answer staleness any entry in the batch experienced.
    pub first_enqueued_ms: u64,
    /// Master time (ms) when the batch was flushed into the channel.
    pub flushed_ms: u64,
}

impl NotifyBatch {
    /// Aggregated traffic cost of this batch (same accounting as
    /// [`SyncResponse::traffic`]).
    pub fn traffic(&self) -> SyncTraffic {
        SyncTraffic::of(&self.actions)
    }
}

/// Response to a ReSync request: the update actions plus, in poll mode,
/// the cookie to resume the session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyncResponse {
    /// Actions in master apply order (coalesced per DN).
    pub actions: Vec<SyncAction>,
    /// Resumption cookie (`None` after `sync_end`).
    pub cookie: Option<Cookie>,
}

impl SyncResponse {
    /// Aggregated traffic cost of this response.
    pub fn traffic(&self) -> SyncTraffic {
        SyncTraffic::of(&self.actions)
    }

    /// Per-kind tally of this response's entry actions — what the
    /// `resync.response` trace events report alongside the cookie
    /// sequence number.
    pub fn action_counts(&self) -> ActionCounts {
        let mut c = ActionCounts::default();
        for a in &self.actions {
            match a {
                SyncAction::Add(_) => c.adds += 1,
                SyncAction::Modify(_) => c.modifies += 1,
                SyncAction::Delete(_) => c.deletes += 1,
            }
        }
        c
    }
}

/// Entry-action tallies of one [`SyncResponse`], by [`SyncAction`] kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionCounts {
    /// `Add` actions (full entry entering the content).
    pub adds: u64,
    /// `Modify` actions (full entry, changed in place).
    pub modifies: u64,
    /// `Delete` actions (DN leaving the content).
    pub deletes: u64,
}

/// Synchronization traffic accounting: how many full entries travelled,
/// how many DN-only PDUs, and estimated bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncTraffic {
    /// PDUs carrying a complete entry (add/modify).
    pub full_entries: u64,
    /// PDUs carrying only a DN (delete).
    pub dn_only: u64,
    /// Estimated bytes across all PDUs.
    pub bytes: u64,
}

impl SyncTraffic {
    /// The traffic of sending `actions` once.
    pub fn of(actions: &[SyncAction]) -> SyncTraffic {
        let mut t = SyncTraffic::default();
        for a in actions {
            t.count(a);
        }
        t
    }

    /// Accounts one action.
    pub fn count(&mut self, action: &SyncAction) {
        if action.carries_entry() {
            self.full_entries += 1;
        } else {
            self.dn_only += 1;
        }
        self.bytes += action.estimated_size() as u64;
    }

    /// Merges another accounting into this one.
    pub fn absorb(&mut self, other: &SyncTraffic) {
        self.full_entries += other.full_entries;
        self.dn_only += other.dn_only;
        self.bytes += other.bytes;
    }

    /// Total PDU count.
    pub fn pdus(&self) -> u64 {
        self.full_entries + self.dn_only
    }
}

/// Errors from ReSync request handling.
///
/// The variants partition into three classes the recovery logic keys on:
/// *transient* ([`is_transient`](SyncError::is_transient)) — retry the
/// same request later; *session-fatal*
/// ([`needs_reinstall`](SyncError::needs_reinstall)) — abandon the session
/// and reload the content from scratch; everything else is a caller bug
/// (malformed request) and should propagate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncError {
    /// The cookie does not name a live session (expired or never issued).
    ///
    /// Invariant: the carried cookie is exactly the one the caller sent;
    /// the master holds no state for it, so `abandon` is unnecessary (and
    /// a no-op) before re-establishing.
    UnknownCookie(Cookie),
    /// A `sync_end` or resume was sent without a cookie.
    ///
    /// Invariant: only requests whose mode requires a session (persist
    /// resume, `sync_end`) produce this; a cookie-less poll is a legal
    /// session start and never fails this way.
    MissingCookie,
    /// The resumed session was established for a different search request.
    ///
    /// Invariant: the session named by the cookie is still live and
    /// untouched — the caller may continue using it with the original
    /// request, or `abandon` it.
    RequestMismatch(Cookie),
    /// The cookie is two or more responses behind the session's: the
    /// master cannot repair the replica's view incrementally.
    /// The replica must re-establish the session — by reconciliation, or
    /// by full reload when reconciliation fails.
    ///
    /// Invariant: the session still exists at the master (unlike
    /// [`UnknownCookie`](SyncError::UnknownCookie)); the caller should
    /// `abandon` it before re-establishing to avoid leaking session
    /// state. Carries the cookie exactly as sent.
    ReplayExpired(Cookie),
    /// The master has handed out every session id a cookie can name and
    /// cannot open another session. Ids are not recycled: an old cookie
    /// could then acknowledge a different session.
    ///
    /// Invariant: no session state changed; neither transient nor
    /// session-fatal — a live session's cookie still works.
    SessionsExhausted,
    /// A reconciliation exchange could not be completed (unsupported
    /// transport, no reconciliation in progress for the cookie, or a
    /// malformed digest). The caller falls back one rung down the
    /// recovery ladder — a full reinstall.
    ///
    /// Invariant: neither transient nor session-fatal; the session named
    /// by any in-flight reconciliation cookie may be abandoned safely.
    ReconcileFailed(String),
    /// The master, or the link to it, is temporarily unavailable. Issued
    /// by transports (fault injection, real networks) rather than the
    /// master itself; retrying later may succeed.
    ///
    /// Invariant: no session state changed — the request either never
    /// reached the master or its response was lost, and the at-least-once
    /// cookie protocol makes the eventual retry safe.
    Unavailable(String),
    /// The request named a shard the transport does not have: the
    /// replica's shard map has more shards than the master behind it.
    ///
    /// Invariant: nothing reached any master, so no session state
    /// changed; neither transient nor session-fatal — retrying or
    /// reinstalling against the same transport fails the same way.
    UnknownShard(ShardId),
    /// A retrying driver gave up: `attempts` tries all failed, `last`
    /// being the final error. Produced only by `SyncDriver`, never by the
    /// master or a transport.
    ///
    /// Invariant: `last` is never itself `RetriesExhausted` (the driver
    /// wraps exactly once), and classification delegates to `last`, so
    /// recovery logic can treat this wrapper transparently.
    RetriesExhausted {
        /// Total attempts made (initial try + retries).
        attempts: u64,
        /// The error the final attempt failed with.
        last: Box<SyncError>,
    },
}

impl SyncError {
    /// True when retrying the same request later may succeed without any
    /// session re-establishment.
    pub fn is_transient(&self) -> bool {
        match self {
            SyncError::Unavailable(_) => true,
            SyncError::RetriesExhausted { last, .. } => last.is_transient(),
            _ => false,
        }
    }

    /// True when the session is unrecoverable as-is and the replica must
    /// re-establish it — first trying reconciliation, then a full reload.
    pub fn needs_reinstall(&self) -> bool {
        match self {
            SyncError::UnknownCookie(_) | SyncError::ReplayExpired(_) => true,
            SyncError::RetriesExhausted { last, .. } => last.needs_reinstall(),
            _ => false,
        }
    }
}

impl fmt::Display for SyncError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncError::UnknownCookie(c) => write!(f, "unknown or expired session {c}"),
            SyncError::MissingCookie => f.write_str("request requires a cookie"),
            SyncError::RequestMismatch(c) => {
                write!(f, "search request does not match session {c}")
            }
            SyncError::ReplayExpired(c) => {
                write!(f, "{c} is two or more responses behind its session")
            }
            SyncError::SessionsExhausted => f.write_str("no session id is left to hand out"),
            SyncError::ReconcileFailed(why) => {
                write!(f, "reconciliation failed: {why}")
            }
            SyncError::Unavailable(why) => write!(f, "master unavailable: {why}"),
            SyncError::UnknownShard(shard) => write!(f, "no master serves {shard}"),
            SyncError::RetriesExhausted { attempts, last } => {
                write!(f, "sync gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl Error for SyncError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SyncError::RetriesExhausted { last, .. } => Some(last.as_ref()),
            // The remaining variants are protocol-level root causes with
            // no underlying error to chain to.
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_sizes_and_kinds() {
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("mail", "a@b.c");
        let add = SyncAction::Add(e.clone());
        let del = SyncAction::Delete(e.dn().clone());
        assert!(add.carries_entry());
        assert!(!del.carries_entry());
        assert!(add.estimated_size() > del.estimated_size());
        assert_eq!(add.dn(), e.dn());
    }

    #[test]
    fn traffic_accounting() {
        let e = Entry::new("cn=a,o=xyz".parse().unwrap()).with("mail", "a@b.c");
        let resp = SyncResponse {
            actions: vec![
                SyncAction::Add(e.clone()),
                SyncAction::Modify(e.clone()),
                SyncAction::Delete(e.dn().clone()),
            ],
            cookie: Some(Cookie(1)),
        };
        let t = resp.traffic();
        assert_eq!(t.full_entries, 2);
        assert_eq!(t.dn_only, 1);
        assert_eq!(t.pdus(), 3);
        assert!(t.bytes > 0);
    }

    #[test]
    fn cookie_packs_session_and_seq() {
        let c = Cookie::new(7, 42);
        assert_eq!(c.session(), 7);
        assert_eq!(c.seq(), 42);
        assert_eq!(c.to_string(), "cookie:7.42");
        // Round trip through the raw representation.
        assert_eq!(Cookie(c.0), c);
        let max = Cookie::new(u32::MAX, u32::MAX);
        assert_eq!(max.session(), u32::MAX);
        assert_eq!(max.seq(), u32::MAX);
    }

    #[test]
    fn error_classification() {
        assert!(SyncError::Unavailable("drop".into()).is_transient());
        assert!(!SyncError::UnknownCookie(Cookie(1)).is_transient());
        assert!(SyncError::UnknownCookie(Cookie(1)).needs_reinstall());
        let expired = SyncError::ReplayExpired(Cookie(1));
        assert!(expired.needs_reinstall());
        assert!(!expired.is_transient());
        assert!(!SyncError::MissingCookie.needs_reinstall());
        let rf = SyncError::ReconcileFailed("unsupported".into());
        assert!(!rf.is_transient());
        assert!(!rf.needs_reinstall());
        assert!(!SyncError::SessionsExhausted.is_transient());
        assert!(!SyncError::SessionsExhausted.needs_reinstall());
    }

    #[test]
    fn replay_expired_names_its_cookie() {
        let expired = SyncError::ReplayExpired(Cookie::new(1, 2));
        assert_eq!(expired.to_string(), "cookie:1.2 is two or more responses behind its session");
    }

    #[test]
    fn exhausted_wrapper_delegates_and_chains() {
        let e = SyncError::RetriesExhausted {
            attempts: 3,
            last: Box::new(SyncError::Unavailable("drop".into())),
        };
        // Classification is transparent through the wrapper.
        assert!(e.is_transient());
        assert!(!e.needs_reinstall());
        let e2 = SyncError::RetriesExhausted {
            attempts: 1,
            last: Box::new(SyncError::ReplayExpired(Cookie(9))),
        };
        assert!(e2.needs_reinstall());
        // Display names the attempt count and the root cause; source()
        // chains to it for `anyhow`-style walkers.
        assert_eq!(e.to_string(), "sync gave up after 3 attempts: master unavailable: drop");
        let src = e.source().expect("chained source");
        assert_eq!(src.to_string(), "master unavailable: drop");
        assert!(src.source().is_none());
    }

    #[test]
    fn control_constructors() {
        assert_eq!(ReSyncControl::poll(None).mode, SyncMode::Poll);
        assert_eq!(ReSyncControl::persist(None).mode, SyncMode::Persist);
        let end = ReSyncControl::sync_end(Cookie(3));
        assert_eq!(end.mode, SyncMode::SyncEnd);
        assert_eq!(end.cookie, Some(Cookie(3)));
    }
}
