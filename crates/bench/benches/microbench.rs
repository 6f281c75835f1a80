//! Criterion microbenchmarks for the algorithmic kernels:
//! filter parsing, template extraction, the three containment paths
//! (§4 / §7.4), indexed DIT search, ReSync polling and replica answering.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use fbdr_containment::{filter_contained, ContainmentEngine, PreparedQuery};
use fbdr_dit::{DitStore, Modification, UpdateOp};
use fbdr_ldap::{Entry, Filter, SearchRequest, Template};
use fbdr_obs::Obs;
use fbdr_replica::FilterReplica;
use fbdr_resync::{ReSyncControl, SyncMaster};

fn small_master(n: usize) -> SyncMaster {
    let mut m = SyncMaster::new();
    m.dit_mut().add_suffix("o=xyz".parse().expect("dn"));
    m.dit_mut().add(Entry::new("o=xyz".parse().expect("dn"))).expect("add");
    for i in 0..n {
        m.dit_mut()
            .add(
                Entry::new(format!("cn=e{i},o=xyz").parse().expect("dn"))
                    .with("objectclass", "person")
                    .with("serialNumber", &format!("{:06}", 100_000 + i))
                    .with("mail", &format!("u{i}@xyz.com"))
                    .with("departmentNumber", &format!("{}", 1000 + i % 40)),
            )
            .expect("add");
    }
    m
}

fn bench_parse(c: &mut Criterion) {
    let inputs = [
        ("equality", "(serialNumber=045612)"),
        ("conjunctive", "(&(objectclass=inetOrgPerson)(departmentNumber=240*))"),
        ("nested", "(&(|(sn=a*)(sn=b*))(!(ou=x))(age>=30))"),
    ];
    let mut g = c.benchmark_group("filter_parse");
    for (name, s) in inputs {
        g.bench_function(name, |b| b.iter(|| Filter::parse(black_box(s)).expect("parses")));
    }
    g.finish();
}

fn bench_template(c: &mut Criterion) {
    let f = Filter::parse("(&(objectclass=inetOrgPerson)(departmentNumber=2406))").expect("ok");
    c.bench_function("template_extraction", |b| b.iter(|| Template::of(black_box(&f))));
}

fn bench_containment_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("containment");
    // Same template (Prop 3).
    let q1 = Filter::parse("(serialNumber=0456*)").expect("ok");
    let q2 = Filter::parse("(serialNumber=045*)").expect("ok");
    g.bench_function("same_template_prop3", |b| {
        let mut e = ContainmentEngine::new();
        let a = PreparedQuery::new(SearchRequest::from_root(q1.clone()));
        let s = PreparedQuery::new(SearchRequest::from_root(q1.clone()));
        b.iter(|| e.filter_contained(black_box(&a), black_box(&s)))
    });
    // Cross template, compiled (Prop 2).
    let q3 = Filter::parse("(serialNumber=045612)").expect("ok");
    g.bench_function("cross_template_prop2", |b| {
        let mut e = ContainmentEngine::new();
        let a = PreparedQuery::new(SearchRequest::from_root(q3.clone()));
        let s = PreparedQuery::new(SearchRequest::from_root(q1.clone()));
        b.iter(|| e.filter_contained(black_box(&a), black_box(&s)))
    });
    let _ = q2;
    // General procedure (Prop 1).
    let g1 = Filter::parse("(&(a>=5)(b<=10))").expect("ok");
    let g2 = Filter::parse("(|(a=5)(b<=20))").expect("ok");
    g.bench_function("general_prop1", |b| {
        b.iter(|| filter_contained(black_box(&g1), black_box(&g2)))
    });
    g.finish();
}

fn bench_dit_search(c: &mut Criterion) {
    let m = small_master(5_000);
    let eq = SearchRequest::from_root(Filter::parse("(serialNumber=102500)").expect("ok"));
    let prefix = SearchRequest::from_root(Filter::parse("(serialNumber=1025*)").expect("ok"));
    let scan = SearchRequest::from_root(Filter::parse("(!(departmentNumber=1001))").expect("ok"));
    let mut g = c.benchmark_group("dit_search_5k");
    g.bench_function("equality_indexed", |b| b.iter(|| m.dit().search(black_box(&eq))));
    g.bench_function("prefix_indexed", |b| b.iter(|| m.dit().search(black_box(&prefix))));
    g.bench_function("negation_scan", |b| b.iter(|| m.dit().search_dns(black_box(&scan))));
    g.finish();
}

fn bench_resync_poll(c: &mut Criterion) {
    c.bench_function("resync_poll_100_updates", |b| {
        b.iter_with_setup(
            || {
                let mut m = small_master(2_000);
                let req = SearchRequest::from_root(
                    Filter::parse("(departmentNumber=1005)").expect("ok"),
                );
                let resp = m.resync(&req, ReSyncControl::poll(None)).expect("initial");
                let cookie = resp.cookie.expect("cookie");
                for i in 0..100 {
                    let dn = format!("cn=e{},o=xyz", i * 17 % 2000);
                    let _ = m.apply(UpdateOp::Modify {
                        dn: dn.parse().expect("dn"),
                        mods: vec![Modification::Replace(
                            "departmentNumber".into(),
                            vec![format!("{}", 1000 + i % 40).into()],
                        )],
                    });
                }
                (m, req, cookie)
            },
            |(mut m, req, cookie)| {
                m.resync(&req, ReSyncControl::poll(Some(cookie))).expect("poll")
            },
        )
    });
}

fn bench_replica_answer(c: &mut Criterion) {
    let mut g = c.benchmark_group("replica_try_answer");
    for n_filters in [50usize, 200] {
        let mut m = small_master(5_000);
        let mut r = FilterReplica::new(0);
        for i in 0..n_filters {
            let f = Filter::parse(&format!("(serialNumber={:05}*)", 10_000 + i)).expect("ok");
            r.install_filter(&mut m, SearchRequest::from_root(f)).expect("install");
        }
        let hit = SearchRequest::from_root(Filter::parse("(serialNumber=100150)").expect("ok"));
        let miss = SearchRequest::from_root(Filter::parse("(serialNumber=999999)").expect("ok"));
        g.bench_with_input(BenchmarkId::new("hit", n_filters), &n_filters, |b, _| {
            b.iter(|| r.try_answer(black_box(&hit)))
        });
        g.bench_with_input(BenchmarkId::new("miss", n_filters), &n_filters, |b, _| {
            b.iter(|| r.try_answer(black_box(&miss)))
        });
    }
    g.finish();
}

/// The observability acceptance check: `try_answer` with no `Obs`
/// attached (the branch-cheap disabled path) must run within a few
/// percent of the pre-instrumentation cost, and even the fully active
/// metrics path (histograms on, no subscriber) should stay cheap
/// relative to the answering work itself.
fn bench_obs_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("obs_overhead_try_answer");
    let hit = SearchRequest::from_root(Filter::parse("(serialNumber=100150)").expect("ok"));
    for (name, obs) in [("disabled", Obs::off()), ("metrics_active", Obs::new())] {
        let mut m = small_master(5_000);
        let r = FilterReplica::with_obs(0, obs);
        for i in 0..50 {
            let f = Filter::parse(&format!("(serialNumber={:05}*)", 10_000 + i)).expect("ok");
            r.install_filter(&mut m, SearchRequest::from_root(f)).expect("install");
        }
        g.bench_function(name, |b| b.iter(|| r.try_answer(black_box(&hit))));
    }
    g.finish();
}

fn bench_store_updates(c: &mut Criterion) {
    c.bench_function("dit_add_100_entries", |b| {
        b.iter(|| {
            let mut d = DitStore::new();
            d.add_suffix("o=x".parse().expect("dn"));
            d.add(Entry::new("o=x".parse().expect("dn"))).expect("add");
            for i in 0..100 {
                d.add(
                    Entry::new(format!("cn=e{i},o=x").parse().expect("dn"))
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("{i:06}")),
                )
                .expect("add");
            }
            d
        })
    });
}

fn bench_ldif(c: &mut Criterion) {
    let m = small_master(500);
    let text = m.dit().export_ldif(None);
    c.bench_function("ldif_export_500", |b| b.iter(|| m.dit().export_ldif(None)));
    c.bench_function("ldif_parse_500", |b| {
        b.iter(|| fbdr_ldap::ldif::parse_ldif(black_box(&text)).expect("parses"))
    });
}

fn bench_sort(c: &mut Criterion) {
    let m = small_master(2_000);
    let req = SearchRequest::from_root(Filter::parse("(objectclass=person)").expect("ok"));
    c.bench_function("search_sorted_2k", |b| {
        b.iter(|| {
            m.dit()
                .search_sorted(black_box(&req), &[fbdr_ldap::SortKey::descending("serialNumber")])
        })
    });
}

fn bench_simplify(c: &mut Criterion) {
    let f = Filter::parse("(&(a=1)(&(b=2)(&(c=3)(a=1)))(|(d=4)(|(e=5)(d=4))))").expect("ok");
    c.bench_function("filter_simplify", |b| b.iter(|| black_box(&f).simplify()));
}

/// Galloping posting-list intersection against `BTreeSet::intersection`
/// on the shapes the planner produces: a tiny equality candidate list
/// against a large stored-filter list, and two comparable mid-size lists.
fn bench_posting(c: &mut Criterion) {
    use std::collections::BTreeSet;
    let mut g = c.benchmark_group("posting_intersect");
    let shapes: [(&str, Vec<u32>, Vec<u32>); 2] = [
        ("point_vs_100k", vec![3, 31_337, 99_999], (0..100_000).collect()),
        (
            "mid_vs_mid",
            (0..100_000).step_by(7).collect(),
            (0..100_000).step_by(13).collect(),
        ),
    ];
    for (name, a, b_list) in &shapes {
        g.bench_with_input(BenchmarkId::new("gallop", name), &(), |b, ()| {
            b.iter(|| fbdr_dit::posting::intersect(black_box(a), black_box(b_list)))
        });
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b_list.iter().copied().collect();
        g.bench_with_input(BenchmarkId::new("btreeset", name), &(), |b, ()| {
            b.iter(|| black_box(&sa).intersection(black_box(&sb)).copied().collect::<Vec<u32>>())
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_parse,
    bench_template,
    bench_containment_paths,
    bench_dit_search,
    bench_resync_poll,
    bench_replica_answer,
    bench_obs_overhead,
    bench_store_updates,
    bench_ldif,
    bench_sort,
    bench_simplify,
    bench_posting,
);
criterion_main!(benches);
