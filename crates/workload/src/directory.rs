//! The synthetic enterprise directory.

use fbdr_dit::DitStore;
use fbdr_ldap::{Dn, Entry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for directory generation. Defaults give a laptop-scale
/// model of the paper's half-million-entry directory; scale `employees`
/// up to approach the original.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirectoryConfig {
    /// RNG seed — the same seed always generates the same directory.
    pub seed: u64,
    /// Number of employee entries.
    pub employees: usize,
    /// Number of country containers. Country sizes are skewed; the first
    /// `geography_countries` countries form the "geography" holding
    /// roughly `geography_share` of all employees (the paper's remote
    /// geography with ~30%).
    pub countries: usize,
    /// Countries in the geography of interest.
    pub geography_countries: usize,
    /// Share of employees in the geography (≈0.3 in the paper).
    pub geography_share: f64,
    /// Number of divisions; each division `d` owns department numbers
    /// `d*100 .. d*100 + depts_per_division` (prefix-correlated).
    pub divisions: usize,
    /// Departments per division.
    pub depts_per_division: usize,
    /// Number of location entries (small and hot).
    pub locations: usize,
}

impl Default for DirectoryConfig {
    fn default() -> Self {
        DirectoryConfig {
            seed: 0xD1EC7,
            employees: 20_000,
            countries: 25,
            geography_countries: 3,
            geography_share: 0.30,
            divisions: 12,
            depts_per_division: 40,
            locations: 120,
        }
    }
}

impl DirectoryConfig {
    /// A small configuration for tests.
    pub fn small() -> Self {
        DirectoryConfig {
            employees: 1200,
            countries: 8,
            geography_countries: 2,
            divisions: 4,
            depts_per_division: 10,
            locations: 20,
            ..DirectoryConfig::default()
        }
    }
}

/// Metadata about one generated employee (for workload generation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmployeeRecord {
    /// The entry's DN.
    pub dn_string: String,
    /// Zero-padded six-digit serial number.
    pub serial: String,
    /// Mail address (`userpart@cc.xyz.com`, user part unstructured).
    pub mail: String,
    /// Department number.
    pub dept: String,
    /// Division name.
    pub division: String,
    /// Country code.
    pub country: String,
    /// True when the employee belongs to the geography of interest.
    pub in_geography: bool,
}

/// The generated directory: the DIT plus generation metadata used by the
/// trace generator.
#[derive(Debug)]
pub struct EnterpriseDirectory {
    config: DirectoryConfig,
    dit: DitStore,
    employees: Vec<EmployeeRecord>,
    countries: Vec<(String, usize)>,
    departments: Vec<(String, String)>,
    locations: Vec<String>,
}

impl EnterpriseDirectory {
    /// Generates the directory.
    pub fn generate(config: DirectoryConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dit = DitStore::new();
        let root: Dn = "o=xyz".parse().expect("static dn");
        dit.add_suffix(root.clone());
        dit.add(Entry::new(root.clone()).with("objectclass", "organization").with("o", "xyz"))
            .expect("fresh store");

        // --- Countries with skewed sizes ---
        let countries = country_sizes(&config);
        for (cc, _) in &countries {
            dit.add(
                Entry::new(format!("c={cc},o=xyz").parse().expect("valid dn"))
                    .with("objectclass", "country")
                    .with("c", cc),
            )
            .expect("fresh store");
        }

        // --- Divisions and departments ---
        dit.add(
            Entry::new("ou=divisions,o=xyz".parse().expect("valid dn"))
                .with("objectclass", "organizationalUnit")
                .with("ou", "divisions"),
        )
        .expect("fresh store");
        let mut departments = Vec::new();
        for d in 0..config.divisions {
            let div = format!("div{:02}", d + 10);
            dit.add(
                Entry::new(format!("ou={div},ou=divisions,o=xyz").parse().expect("valid dn"))
                    .with("objectclass", "organizationalUnit")
                    .with("ou", &div),
            )
            .expect("fresh store");
            for k in 0..config.depts_per_division {
                let dept = format!("{}", (d + 10) * 100 + k);
                dit.add(
                    Entry::new(
                        format!("ou={dept},ou={div},ou=divisions,o=xyz")
                            .parse()
                            .expect("valid dn"),
                    )
                    .with("objectclass", "department")
                    .with("dept", &dept)
                    .with("div", &div),
                )
                .expect("fresh store");
                departments.push((dept, div.clone()));
            }
        }

        // --- Locations (small, hot subtree) ---
        dit.add(
            Entry::new("ou=locations,o=xyz".parse().expect("valid dn"))
                .with("objectclass", "organizationalUnit")
                .with("ou", "locations"),
        )
        .expect("fresh store");
        let mut locations = Vec::new();
        for l in 0..config.locations {
            let name = format!("site{l:03}");
            dit.add(
                Entry::new(format!("l={name},ou=locations,o=xyz").parse().expect("valid dn"))
                    .with("objectclass", "location")
                    .with("l", &name)
                    .with("location", &name),
            )
            .expect("fresh store");
            locations.push(name);
        }

        // --- Employees: flat under their country, serial ranges
        //     contiguous per country ---
        let mut employees = Vec::with_capacity(config.employees);
        let mut serial = 100_000usize; // six digits, zero padded below
        for (ci, (cc, size)) in countries.iter().enumerate() {
            let in_geo = ci < config.geography_countries;
            for _ in 0..*size {
                let id = employees.len();
                let serial_str = format!("{serial:06}");
                serial += 1;
                // Unstructured user part: hash-like token uncorrelated
                // with the serial ordering.
                let user: String = (0..8)
                    .map(|_| {
                        let c = rng.gen_range(0..36);
                        char::from_digit(c, 36).expect("base36 digit")
                    })
                    .collect();
                let mail = format!("{user}@{cc}.xyz.com");
                let (dept, division) = departments[rng.gen_range(0..departments.len())].clone();
                let cn = format!("emp{id:06}");
                let dn_string = format!("cn={cn},c={cc},o=xyz");
                let entry = Entry::new(dn_string.parse().expect("valid dn"))
                    .with("objectclass", "inetOrgPerson")
                    .with("cn", &cn)
                    .with("sn", &format!("sn{id:06}"))
                    .with("serialNumber", &serial_str)
                    .with("mail", &mail)
                    .with("departmentNumber", &dept)
                    .with("division", &division)
                    .with("telephoneNumber", &format!("261-{:07}", id));
                dit.add(entry).expect("fresh store");
                employees.push(EmployeeRecord {
                    dn_string,
                    serial: serial_str,
                    mail,
                    dept,
                    division,
                    country: cc.clone(),
                    in_geography: in_geo,
                });
            }
        }

        EnterpriseDirectory { config, dit, employees, countries, departments, locations }
    }

    /// The generation configuration.
    pub fn config(&self) -> &DirectoryConfig {
        &self.config
    }

    /// The generated DIT (move it out with [`EnterpriseDirectory::into_parts`]).
    pub fn dit(&self) -> &DitStore {
        &self.dit
    }

    /// Consumes the generator, returning the DIT and employee metadata.
    pub fn into_parts(self) -> (DitStore, Vec<EmployeeRecord>) {
        (self.dit, self.employees)
    }

    /// Employee metadata, in serial-number order.
    pub fn employees(&self) -> &[EmployeeRecord] {
        &self.employees
    }

    /// `(country code, employee count)` pairs, geography first.
    pub fn countries(&self) -> &[(String, usize)] {
        &self.countries
    }

    /// `(department number, division)` pairs.
    pub fn departments(&self) -> &[(String, String)] {
        &self.departments
    }

    /// Location names.
    pub fn locations(&self) -> &[String] {
        &self.locations
    }

    /// Total number of person entries.
    pub fn employee_count(&self) -> usize {
        self.employees.len()
    }
}

/// Skewed country sizes: the geography countries share `geography_share`
/// of employees; the rest decays geometrically across remaining countries.
fn country_sizes(config: &DirectoryConfig) -> Vec<(String, usize)> {
    let geo = config.geography_countries.max(1).min(config.countries);
    let geo_total = (config.employees as f64 * config.geography_share) as usize;
    let rest_total = config.employees - geo_total;
    let rest_n = config.countries - geo;
    let mut sizes = Vec::with_capacity(config.countries);
    // Geography countries split their share unevenly (60/25/15-ish).
    let mut remaining = geo_total;
    for g in 0..geo {
        let take = if g == geo - 1 { remaining } else { (remaining * 3) / 5 };
        sizes.push(take.min(remaining));
        remaining -= take.min(remaining);
    }
    // Remaining countries: geometric decay, floor 1.
    let mut weights: Vec<f64> = (0..rest_n).map(|i| 0.82f64.powi(i as i32)).collect();
    let wsum: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= wsum;
    }
    let mut assigned = 0usize;
    let mut rest_sizes: Vec<usize> = weights
        .iter()
        .map(|w| {
            let s = ((rest_total as f64) * w).floor() as usize;
            assigned += s;
            s
        })
        .collect();
    // Distribute the rounding remainder.
    let mut leftover = rest_total - assigned;
    let n_rest = rest_sizes.len();
    let mut i = 0;
    while leftover > 0 && n_rest > 0 {
        rest_sizes[i % n_rest] += 1;
        leftover -= 1;
        i += 1;
    }
    let mut out = Vec::with_capacity(config.countries);
    for (i, s) in sizes.into_iter().enumerate() {
        out.push((format!("g{i}"), s));
    }
    for (i, s) in rest_sizes.into_iter().enumerate() {
        out.push((format!("r{i:02}"), s));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Filter, Scope, SearchRequest};

    fn small() -> EnterpriseDirectory {
        EnterpriseDirectory::generate(DirectoryConfig::small())
    }

    #[test]
    fn employee_count_matches_config() {
        let d = small();
        assert_eq!(d.employee_count(), 1200);
        let mut persons = 0;
        let req = SearchRequest::from_root(Filter::parse("(objectclass=inetOrgPerson)").unwrap());
        d.dit().for_each_match(&req, |_| persons += 1);
        assert_eq!(persons, 1200);
    }

    #[test]
    fn geography_share_roughly_holds() {
        let d = small();
        let geo: usize = d.employees().iter().filter(|e| e.in_geography).count();
        let share = geo as f64 / d.employee_count() as f64;
        assert!((share - 0.30).abs() < 0.05, "geography share {share}");
    }

    #[test]
    fn serials_are_contiguous_per_country() {
        let d = small();
        // Employees are generated country by country with increasing
        // serials, so a country's serials form one contiguous range.
        let mut last_country = String::new();
        let mut seen: Vec<String> = Vec::new();
        for e in d.employees() {
            if e.country != last_country {
                assert!(
                    !seen.contains(&e.country),
                    "country {} appears in two serial ranges",
                    e.country
                );
                seen.push(e.country.clone());
                last_country = e.country.clone();
            }
        }
    }

    #[test]
    fn flat_namespace_under_countries() {
        let d = small();
        let (cc, n) = &d.countries()[0];
        let base: fbdr_ldap::Dn = format!("c={cc},o=xyz").parse().unwrap();
        let req = SearchRequest::new(base, Scope::OneLevel, Filter::match_all());
        assert_eq!(d.dit().search(&req).len(), *n);
    }

    #[test]
    fn serial_lookup_finds_exactly_one() {
        let d = small();
        let e = &d.employees()[42];
        let req = SearchRequest::from_root(
            Filter::parse(&format!("(serialNumber={})", e.serial)).unwrap(),
        );
        let hits = d.dit().search(&req);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].dn().to_string(), e.dn_string);
    }

    #[test]
    fn dept_numbers_correlate_with_division() {
        let d = small();
        for (dept, div) in d.departments() {
            let div_num: usize = div.trim_start_matches("div").parse().unwrap();
            let dept_num: usize = dept.parse().unwrap();
            assert_eq!(dept_num / 100, div_num, "dept {dept} not in division {div} range");
        }
    }

    #[test]
    fn locations_small_and_present() {
        let d = small();
        assert_eq!(d.locations().len(), 20);
        let req = SearchRequest::from_root(Filter::parse("(objectclass=location)").unwrap());
        assert_eq!(d.dit().search(&req).len(), 20);
    }

    #[test]
    fn deterministic_generation() {
        let a = EnterpriseDirectory::generate(DirectoryConfig::small());
        let b = EnterpriseDirectory::generate(DirectoryConfig::small());
        assert_eq!(a.employees().len(), b.employees().len());
        assert_eq!(a.employees()[7].mail, b.employees()[7].mail);
        assert_eq!(a.dit().len(), b.dit().len());
    }

    #[test]
    fn mail_user_part_unstructured() {
        // User parts should not share long prefixes the way serials do:
        // count distinct 3-char prefixes among first 100 employees.
        let d = small();
        let mut prefixes: Vec<String> = d
            .employees()
            .iter()
            .take(100)
            .map(|e| e.mail.chars().take(3).collect())
            .collect();
        prefixes.sort();
        prefixes.dedup();
        assert!(prefixes.len() > 60, "only {} distinct prefixes", prefixes.len());
    }
}
