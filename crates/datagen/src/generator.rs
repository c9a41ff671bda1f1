//! Seeded generation of the organisation database.

use crate::rng::Rng;
use nrc::schema::{Database, Schema, TableSchema};
use nrc::types::BaseType;
use nrc::value::Value;

/// The task vocabulary used by the paper's examples.
pub(crate) const TASK_NAMES: &[&str] = &[
    "abstract",
    "build",
    "call",
    "dissemble",
    "enthuse",
    "buy",
    "sell",
    "plan",
];

/// Configuration of the generated organisation.
#[derive(Debug, Clone, PartialEq)]
pub struct OrgConfig {
    /// Number of departments (the paper varies this from 4 to 4096).
    pub departments: usize,
    /// Average number of employees per department (the paper uses 100).
    pub employees_per_department: usize,
    /// Maximum number of tasks per employee (the paper uses 0–2).
    pub max_tasks_per_employee: usize,
    /// Number of external contacts per department.
    pub contacts_per_department: usize,
    /// Probability that a contact is a client.
    pub client_probability: f64,
    /// Probability that an employee is "poor" (salary < 1000).
    pub poor_probability: f64,
    /// Probability that an employee is "rich" (salary > 1 000 000).
    pub rich_probability: f64,
    /// RNG seed; the same seed always produces the same database.
    pub seed: u64,
}

impl Default for OrgConfig {
    fn default() -> OrgConfig {
        OrgConfig {
            departments: 16,
            employees_per_department: 100,
            max_tasks_per_employee: 2,
            contacts_per_department: 10,
            client_probability: 0.3,
            poor_probability: 0.05,
            rich_probability: 0.05,
            seed: 42,
        }
    }
}

impl OrgConfig {
    /// The configuration used by the paper's scaling experiments, at a given
    /// department count.
    pub fn paper(departments: usize) -> OrgConfig {
        OrgConfig {
            departments,
            ..OrgConfig::default()
        }
    }

    /// A small configuration for unit tests and examples (fast to evaluate
    /// even with the naive nested semantics).
    pub fn small() -> OrgConfig {
        OrgConfig {
            departments: 4,
            employees_per_department: 8,
            contacts_per_department: 4,
            ..OrgConfig::default()
        }
    }
}

/// The flat organisation schema Σ of Section 3.
pub fn organisation_schema() -> Schema {
    Schema::new()
        .with_table(
            TableSchema::new(
                "departments",
                vec![("id", BaseType::Int), ("name", BaseType::String)],
            )
            .with_key(vec!["id"]),
        )
        .with_table(
            TableSchema::new(
                "employees",
                vec![
                    ("id", BaseType::Int),
                    ("dept", BaseType::String),
                    ("name", BaseType::String),
                    ("salary", BaseType::Int),
                ],
            )
            .with_key(vec!["id"]),
        )
        .with_table(
            TableSchema::new(
                "tasks",
                vec![
                    ("id", BaseType::Int),
                    ("employee", BaseType::String),
                    ("task", BaseType::String),
                ],
            )
            .with_key(vec!["id"]),
        )
        .with_table(
            TableSchema::new(
                "contacts",
                vec![
                    ("id", BaseType::Int),
                    ("dept", BaseType::String),
                    ("name", BaseType::String),
                    ("client", BaseType::Bool),
                ],
            )
            .with_key(vec!["id"]),
        )
}

/// Generate an organisation database according to the configuration.
///
/// Generation is linear in the total row count: rows are buffered per table
/// and loaded with [`Database::insert_bulk`], which validates the whole
/// batch against one precomputed row type — so scaling to 256+ departments
/// costs proportionally more rows, not proportionally more per-row setup.
pub fn generate(config: &OrgConfig) -> Database {
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut db = Database::new(organisation_schema());
    let mut employee_id = 0i64;
    let mut task_id = 0i64;
    let mut contact_id = 0i64;

    let mut departments: Vec<Value> = Vec::with_capacity(config.departments);
    let mut employees: Vec<Value> =
        Vec::with_capacity(config.departments * config.employees_per_department);
    let mut tasks: Vec<Value> = Vec::new();
    let mut contacts: Vec<Value> =
        Vec::with_capacity(config.departments * config.contacts_per_department);

    for d in 0..config.departments {
        let dept_name = format!("dept_{:05}", d);
        departments.push(Value::record(vec![
            ("id", Value::Int(d as i64 + 1)),
            ("name", Value::string(dept_name.clone())),
        ]));

        // Employee count fluctuates around the configured average, as in the
        // paper ("each department has on average 100 employees").
        let min = config
            .employees_per_department
            .saturating_sub(config.employees_per_department / 4);
        let max = config.employees_per_department + config.employees_per_department / 4;
        let employee_count = if max > min {
            rng.range_usize(min, max)
        } else {
            config.employees_per_department
        };
        for _ in 0..employee_count.max(1) {
            employee_id += 1;
            let name = format!("emp_{:07}", employee_id);
            let salary = sample_salary(&mut rng, config);
            employees.push(Value::record(vec![
                ("id", Value::Int(employee_id)),
                ("dept", Value::string(dept_name.clone())),
                ("name", Value::string(name.clone())),
                ("salary", Value::Int(salary)),
            ]));

            let task_count = rng.range_usize(0, config.max_tasks_per_employee);
            for t in 0..task_count {
                task_id += 1;
                let task =
                    TASK_NAMES[(rng.range_usize(0, TASK_NAMES.len() - 1) + t) % TASK_NAMES.len()];
                tasks.push(Value::record(vec![
                    ("id", Value::Int(task_id)),
                    ("employee", Value::string(name.clone())),
                    ("task", Value::string(task)),
                ]));
            }
        }

        for _ in 0..config.contacts_per_department {
            contact_id += 1;
            let client = rng.chance(config.client_probability);
            contacts.push(Value::record(vec![
                ("id", Value::Int(contact_id)),
                ("dept", Value::string(dept_name.clone())),
                ("name", Value::string(format!("contact_{:06}", contact_id))),
                ("client", Value::Bool(client)),
            ]));
        }
    }
    db.insert_bulk("departments", departments)
        .expect("department rows match schema");
    db.insert_bulk("employees", employees)
        .expect("employee rows match schema");
    db.insert_bulk("tasks", tasks)
        .expect("task rows match schema");
    db.insert_bulk("contacts", contacts)
        .expect("contact rows match schema");
    db
}

fn sample_salary(rng: &mut Rng, config: &OrgConfig) -> i64 {
    let r: f64 = rng.next_f64();
    if r < config.poor_probability {
        // "Poor": below the 1000 threshold used by the outliers query.
        rng.range_i64(100, 999)
    } else if r < config.poor_probability + config.rich_probability {
        // "Rich": above the 1 000 000 threshold.
        rng.range_i64(1_000_001, 2_999_999)
    } else {
        rng.range_i64(1_000, 99_999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = generate(&OrgConfig::small());
        let b = generate(&OrgConfig::small());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&OrgConfig::small());
        let b = generate(&OrgConfig {
            seed: 7,
            ..OrgConfig::small()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn department_count_matches_config() {
        let db = generate(&OrgConfig::small());
        assert_eq!(db.row_count("departments"), 4);
        assert!(db.row_count("employees") >= 4);
        assert_eq!(db.row_count("contacts"), 16);
    }

    #[test]
    fn salaries_cover_poor_normal_and_rich() {
        let db = generate(&OrgConfig {
            departments: 8,
            employees_per_department: 200,
            ..OrgConfig::default()
        });
        let rows = db.table_rows_unordered("employees").unwrap();
        let salaries: Vec<i64> = rows
            .iter()
            .map(|r| r.field("salary").unwrap().as_int().unwrap())
            .collect();
        assert!(
            salaries.iter().any(|s| *s < 1000),
            "expected some poor employees"
        );
        assert!(
            salaries.iter().any(|s| *s > 1_000_000),
            "expected some rich employees"
        );
        assert!(salaries.iter().any(|s| *s >= 1000 && *s <= 1_000_000));
    }

    #[test]
    fn tasks_reference_existing_employees() {
        let db = generate(&OrgConfig::small());
        let employee_names: Vec<String> = db
            .table_rows_unordered("employees")
            .unwrap()
            .iter()
            .map(|r| r.field("name").unwrap().as_str().unwrap().to_string())
            .collect();
        for task in db.table_rows_unordered("tasks").unwrap() {
            let emp = task.field("employee").unwrap().as_str().unwrap();
            assert!(employee_names.iter().any(|n| n == emp));
        }
    }

    #[test]
    fn scales_to_256_departments() {
        // Pins the row-count shape at 256 departments (generation itself is
        // linear — rows are bulk-loaded against one precomputed row type).
        let config = OrgConfig {
            departments: 256,
            employees_per_department: 20,
            contacts_per_department: 5,
            ..OrgConfig::default()
        };
        let db = generate(&config);
        assert_eq!(db.row_count("departments"), 256);
        assert_eq!(db.row_count("contacts"), 256 * 5);
        let employees = db.row_count("employees");
        // Average 20 per department, fluctuating ±25%.
        assert!((256 * 15..=256 * 25).contains(&employees), "{employees}");
        assert!(db.row_count("tasks") <= employees * config.max_tasks_per_employee);
    }

    #[test]
    fn bulk_load_matches_per_row_insert() {
        let config = OrgConfig::small();
        let bulk = generate(&config);
        // Reference: the same rows loaded one `insert` call at a time.
        let mut per_row = Database::new(organisation_schema());
        for table in ["departments", "employees", "tasks", "contacts"] {
            for row in bulk.table_rows_unordered(table).unwrap() {
                per_row.insert(table, row.clone()).unwrap();
            }
        }
        assert_eq!(bulk, per_row);
    }

    #[test]
    fn schema_tables_all_have_keys() {
        for table in organisation_schema().tables() {
            assert!(table.has_key(), "table {} should declare a key", table.name);
        }
    }
}
