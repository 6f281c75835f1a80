//! The process-wide attribute-name table under a flood of distinct names
//! (DESIGN §5, *Entry representation*): it stops at its cap, a name that
//! arrives afterwards costs an allocation that goes when the name does,
//! and it is the same name to everything that compares, hashes or prints
//! it.
//!
//! One test, in a test binary of its own: the table is per process, and
//! filling it would take the shared names away from every test that ran
//! after this one.

#[allow(dead_code)]
mod support;

use fbdr::ldap::{ldif, ATTR_NAME_TABLE_CAP};
use fbdr::prelude::*;
use std::collections::HashSet;
use support::live_bytes;

#[test]
fn ten_thousand_hostile_names_cost_time_not_memory_or_a_comparison() {
    let holder: Dn = "cn=x,o=xyz".parse().expect("dn");
    let mut past_cap = None;
    for i in 0..10_000 {
        if i == 2_000 {
            past_cap = Some(live_bytes());
        }
        // By turns through an LDIF import and a filter from outside.
        let name = format!("hostileAttr{i}");
        let shouted = AttrName::new(name.to_uppercase());
        let parsed = if i % 2 == 0 {
            let records = ldif::parse_ldif(&format!("dn: {holder}\n{name}: v\n")).expect("ldif");
            assert!(records[0].has_value(&shouted, &"V".into()), "{name}");
            assert!(ldif::to_ldif(&records).contains(&format!("\n{name}: v\n")), "{name}");
            let (held, _) = records[0].attrs().next().expect("one attribute");
            held.clone()
        } else {
            let filter = Filter::parse(&format!("({name}=v)")).expect("filter");
            assert_eq!(filter.to_string(), format!("({name}=v)"));
            assert!(filter.matches(&Entry::new(holder.clone()).with(&name.to_lowercase(), "v")), "{name}");
            filter.predicates()[0].attr().clone()
        };
        // In the table or past it, a name is its spelling to the eye and
        // its lowercase to everything else.
        assert_eq!((parsed.as_str(), parsed.to_string()), (name.as_str(), name.clone()));
        assert_eq!(parsed.lower(), name.to_lowercase());
        assert_eq!((&parsed, parsed.cmp(&shouted)), (&shouted, std::cmp::Ordering::Equal));
        assert!(parsed < AttrName::new(format!("{name}0")) && AttrName::new("hostileAttr") < parsed);
        assert!(HashSet::from([parsed]).contains(&shouted), "{name}");
    }
    assert_eq!(AttrName::interned(), ATTR_NAME_TABLE_CAP);
    let drift = live_bytes() - past_cap.expect("read at 2 000");
    println!("live heap moved {drift} B over the last 8 000 names");
    assert_eq!(drift, 0, "live heap moved over the last 8 000 names");

    // The operator's view of the same, beside the template table's.
    let obs = Obs::new();
    let _engine = ContainmentEngine::with_obs(obs.clone());
    let metrics = obs.registry().snapshot();
    assert_eq!(metrics.gauges["fbdr_ldap_attr_names_interned"], ATTR_NAME_TABLE_CAP as i64);
    assert!(metrics.gauges.contains_key("fbdr_ldap_templates_interned"));
}
