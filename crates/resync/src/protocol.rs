//! Wire-level types of the ReSync protocol.

use fbdr_ldap::{Dn, Entry};
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
/// the master the last response was lost, and the master re-delivers it
/// verbatim (see `SyncMaster`).
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
    /// Entry is unchanged and still in the content (used by history-free
    /// synchronization per equation (3)) — only the DN travels.
    Retain(Dn),
}

impl SyncAction {
    /// The DN the action concerns.
    pub fn dn(&self) -> &Dn {
        match self {
            SyncAction::Add(e) | SyncAction::Modify(e) => e.dn(),
            SyncAction::Delete(dn) | SyncAction::Retain(dn) => dn,
        }
    }

    /// Estimated wire size in bytes.
    pub fn estimated_size(&self) -> usize {
        match self {
            SyncAction::Add(e) | SyncAction::Modify(e) => e.estimated_size() + 8,
            SyncAction::Delete(dn) | SyncAction::Retain(dn) => dn.display_len() + 8,
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
            SyncAction::Retain(dn) => write!(f, "{dn}, retain"),
        }
    }
}

/// One persist-mode notification wakeup: every action the master had
/// queued for the session at flush time, coalesced per DN by the session
/// ledger.
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
        let mut t = SyncTraffic::default();
        for a in &self.actions {
            t.count(a);
        }
        t
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
    /// True when this response is a verbatim replay of an earlier one
    /// whose delivery was never acknowledged.
    pub redelivered: bool,
}

impl SyncResponse {
    /// Aggregated traffic cost of this response.
    pub fn traffic(&self) -> SyncTraffic {
        let mut t = SyncTraffic::default();
        for a in &self.actions {
            t.count(a);
        }
        if self.redelivered {
            t.redelivered_pdus = t.pdus();
        }
        t
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
                SyncAction::Retain(_) => c.retains += 1,
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
    /// `Retain` actions (DN confirmed unchanged).
    pub retains: u64,
}

/// Synchronization traffic accounting: how many full entries travelled,
/// how many DN-only PDUs, and estimated bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncTraffic {
    /// PDUs carrying a complete entry (add/modify).
    pub full_entries: u64,
    /// PDUs carrying only a DN (delete/retain).
    pub dn_only: u64,
    /// Estimated bytes across all PDUs.
    pub bytes: u64,
    /// PDUs that were retransmissions of a lost response (already counted
    /// in the totals above) — the at-least-once overhead.
    pub redelivered_pdus: u64,
}

impl SyncTraffic {
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
        self.redelivered_pdus += other.redelivered_pdus;
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
    /// The master can no longer replay the batch the cookie refers to
    /// (the replay buffer expired or the cookie is from an older exchange).
    /// The replica must re-establish the session — by reconciliation, or
    /// by full reload when reconciliation fails.
    ///
    /// Invariant: the session still exists at the master (unlike
    /// [`UnknownCookie`](SyncError::UnknownCookie)); the caller should
    /// `abandon` it before re-establishing to avoid leaking session
    /// state. `ops_applied - oldest_retained` bounds how many updates
    /// the replica has missed.
    ReplayExpired {
        /// The cookie the caller sent (exactly as sent).
        cookie: Cookie,
        /// Master op-count at which the session's retained history begins
        /// (when the unacknowledged batch was built).
        oldest_retained: u64,
        /// Master op-count when the request was rejected.
        ops_applied: u64,
    },
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
            SyncError::UnknownCookie(_) | SyncError::ReplayExpired { .. } => true,
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
            SyncError::ReplayExpired { cookie, oldest_retained, ops_applied } => {
                write!(
                    f,
                    "unacknowledged batch for {cookie} is no longer replayable \
                     (~{} updates behind)",
                    ops_applied.saturating_sub(*oldest_retained)
                )
            }
            SyncError::ReconcileFailed(why) => {
                write!(f, "reconciliation failed: {why}")
            }
            SyncError::Unavailable(why) => write!(f, "master unavailable: {why}"),
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
                SyncAction::Retain(e.dn().clone()),
            ],
            cookie: Some(Cookie(1)),
            redelivered: false,
        };
        let t = resp.traffic();
        assert_eq!(t.full_entries, 2);
        assert_eq!(t.dn_only, 2);
        assert_eq!(t.pdus(), 4);
        assert!(t.bytes > 0);
        assert_eq!(t.redelivered_pdus, 0);

        let replayed = SyncResponse { redelivered: true, ..resp };
        assert_eq!(replayed.traffic().redelivered_pdus, 4);
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
        let expired =
            SyncError::ReplayExpired { cookie: Cookie(1), oldest_retained: 10, ops_applied: 17 };
        assert!(expired.needs_reinstall());
        assert!(!expired.is_transient());
        assert!(!SyncError::MissingCookie.needs_reinstall());
        let rf = SyncError::ReconcileFailed("unsupported".into());
        assert!(!rf.is_transient());
        assert!(!rf.needs_reinstall());
    }

    #[test]
    fn replay_expired_says_how_far_behind() {
        let expired =
            SyncError::ReplayExpired { cookie: Cookie(1), oldest_retained: 10, ops_applied: 17 };
        assert!(expired.to_string().contains("~7 updates behind"));
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
            last: Box::new(SyncError::ReplayExpired {
                cookie: Cookie(9),
                oldest_retained: 0,
                ops_applied: 3,
            }),
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
