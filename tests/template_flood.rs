//! The process-wide template table under a flood of distinct query
//! shapes (DESIGN §5, *Templates*): it stops at its cap, what arrives afterwards costs
//! time per query and nothing that stays, and no answer changes.
//!
//! One test, in a test binary of its own: the table is per process, and
//! filling it would take the interned fast path away from every test that
//! ran after this one.

#[allow(dead_code)]
mod support;

use fbdr::ldap::{TemplateTableStats, TEMPLATE_TABLE_CAP};
use fbdr::prelude::*;
use support::live_bytes;

fn query(f: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(f).expect("generated filter"))
}

/// The `i`-th hostile query: an attribute name nobody else uses makes its
/// shape new; by turns contained in a stored filter through a compiled
/// condition, not contained, unindexable, and negated.
fn hostile(i: usize) -> SearchRequest {
    let serial = 100_000 + i % 100;
    query(&match i % 4 {
        0 => format!("(&(serialNumber={serial})(h{i}=x))"),
        1 => format!("(&(serialNumber=2{serial})(h{i}=x))"),
        2 => format!("(|(h{i}=x)(serialNumber={serial}))"),
        _ => format!("(&(departmentNumber=7)(!(h{i}=x)))"),
    })
}

#[test]
fn ten_thousand_hostile_shapes_cost_time_not_memory_or_a_decision() {
    let mut master = SyncMaster::new();
    master.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    master.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("suffix entry");
    for i in 0..200 {
        let person = Entry::new(format!("cn=p{i:03},o=xyz").parse().expect("dn"))
            .with("serialNumber", &format!("{}", 100_000 + i))
            .with("departmentNumber", &format!("{}", i % 10));
        master.dit_mut().add(person).expect("person");
    }
    let obs = Obs::new();
    let replica = FilterReplica::with_obs(0, obs.clone());
    for f in ["(serialNumber=1000*)", "(departmentNumber=7)"] {
        replica.install_filter(&mut master, query(f)).expect("install");
    }

    let mut hits = 0;
    let mut past_cap = None;
    for i in 0..10_000 {
        let q = hostile(i);
        let answer = replica.try_answer(&q);
        assert_eq!(answer, replica.try_answer_scan(&q), "{q}");
        hits += usize::from(answer.is_some());
        drop((q, answer));
        if i == 2_000 {
            past_cap = Some(live_bytes());
        }
    }
    assert!(hits >= 2_500, "{hits} hits");
    let TemplateTableStats { interned, uninterned } = Template::table_stats();
    assert_eq!(interned, TEMPLATE_TABLE_CAP);
    assert!(uninterned >= 2 * (10_000 - TEMPLATE_TABLE_CAP as u64), "{uninterned} turned away");
    let drift = live_bytes() - past_cap.expect("read at 2 000");
    println!("live heap moved {drift} B over the last 8 000 shapes");
    assert_eq!(drift, 0, "live heap moved over the last 8 000 shapes");

    // The operator's view of the same.
    let metrics = obs.registry().snapshot();
    assert_eq!(metrics.gauges["fbdr_ldap_templates_interned"], TEMPLATE_TABLE_CAP as i64);
    assert_eq!(metrics.counters["fbdr_ldap_templates_uninterned_total"], uninterned);
}
