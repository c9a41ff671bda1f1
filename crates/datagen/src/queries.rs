//! The benchmark queries of the paper's evaluation: the flat queries QF1–QF6
//! (Figure 8) and the nested queries Q1–Q6 (Figure 9), plus the Section 3
//! building blocks they are defined from.
//!
//! All queries are expressed in λNRC over the organisation schema; the flat
//! queries of Figure 8 are given in SQL in the paper, and are rendered here as
//! the comprehensions a Links programmer would write for them (`MINUS` becomes
//! an emptiness test, which normalises to `NOT EXISTS`).

use nrc::builder::*;
use nrc::stdlib::{all, clients, contains, get_tasks, outliers};
use nrc::term::Term;

// ---------------------------------------------------------------------------
// Section 3 building blocks
// ---------------------------------------------------------------------------

/// `tasksOfEmp e = for (t ← tasks) where (t.employee = e.name) return t.task`.
pub fn tasks_of_emp(e: Term) -> Term {
    for_where(
        "t",
        table("tasks"),
        eq(project(var("t"), "employee"), project(e, "name")),
        singleton(project(var("t"), "task")),
    )
}

/// `contactsOfDept d`: the contacts of a department, with name and client
/// flag.
pub(crate) fn contacts_of_dept(d: Term) -> Term {
    for_where(
        "c",
        table("contacts"),
        eq(project(d, "name"), project(var("c"), "dept")),
        singleton(record(vec![
            ("name", project(var("c"), "name")),
            ("client", project(var("c"), "client")),
        ])),
    )
}

/// `employeesOfDept d`: the employees of a department, each with their tasks.
pub(crate) fn employees_of_dept(d: Term) -> Term {
    for_where(
        "e",
        table("employees"),
        eq(project(d, "name"), project(var("e"), "dept")),
        singleton(record(vec![
            ("name", project(var("e"), "name")),
            ("salary", project(var("e"), "salary")),
            ("tasks", tasks_of_emp(var("e"))),
        ])),
    )
}

/// `employeesByTask t`: the employees able to perform a task, with their
/// department.
pub(crate) fn employees_by_task(t: Term) -> Term {
    for_in(
        "e",
        table("employees"),
        for_where(
            "d",
            table("departments"),
            and(
                eq(project(var("e"), "name"), project(t, "employee")),
                eq(project(var("e"), "dept"), project(var("d"), "name")),
            ),
            singleton(record(vec![
                ("b", project(var("e"), "name")),
                ("c", project(var("d"), "name")),
            ])),
        ),
    )
}

/// `Qorg`: the nested organisation view (query Q1 of the evaluation).
pub fn q_org() -> Term {
    for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("name", project(var("d"), "name")),
            ("employees", employees_of_dept(var("d"))),
            ("contacts", contacts_of_dept(var("d"))),
        ])),
    )
}

// ---------------------------------------------------------------------------
// Nested queries Q1–Q6 (Figure 9)
// ---------------------------------------------------------------------------

/// Q1: the organisation view `Qorg` itself (nesting degree 4).
pub fn q1() -> Term {
    q_org()
}

/// Q2: departments in which every employee can perform the "abstract" task —
/// a flat result computed *via* the nested view, exercising higher-order
/// functions and emptiness tests.
pub fn q2() -> Term {
    for_where(
        "d",
        q_org(),
        all(project(var("d"), "employees"), |x| {
            contains(project(x, "tasks"), string("abstract"))
        }),
        singleton(record(vec![("dept", project(var("d"), "name"))])),
    )
}

/// Q3: every employee with the bag of tasks they can perform.
pub fn q3() -> Term {
    for_in(
        "e",
        table("employees"),
        singleton(record(vec![
            ("name", project(var("e"), "name")),
            ("tasks", tasks_of_emp(var("e"))),
        ])),
    )
}

/// Q4: every department with the bag of its employees' names.
pub fn q4() -> Term {
    for_in(
        "d",
        table("departments"),
        singleton(record(vec![
            ("dept", project(var("d"), "name")),
            (
                "employees",
                for_where(
                    "e",
                    table("employees"),
                    eq(project(var("d"), "name"), project(var("e"), "dept")),
                    singleton(project(var("e"), "name")),
                ),
            ),
        ])),
    )
}

/// Q5: every task paired with the employees (and their departments) able to
/// perform it.
pub fn q5() -> Term {
    for_in(
        "t",
        table("tasks"),
        singleton(record(vec![
            ("a", project(var("t"), "task")),
            ("b", employees_by_task(var("t"))),
        ])),
    )
}

/// Q6: the outliers query Q of Section 3 — for each department, the poor and
/// rich employees with their tasks, together with the client contacts (whose
/// single task is "buy"). Composed with `Qorg`, this is the paper's `Qcomp`.
pub fn q6() -> Term {
    for_in(
        "x",
        q_org(),
        singleton(record(vec![
            ("department", project(var("x"), "name")),
            (
                "people",
                union(
                    get_tasks(outliers(project(var("x"), "employees")), |y| {
                        project(y, "tasks")
                    }),
                    get_tasks(clients(project(var("x"), "contacts")), |_| {
                        singleton(string("buy"))
                    }),
                ),
            ),
        ])),
    )
}

/// All nested benchmark queries, with their names.
pub fn nested_queries() -> Vec<(&'static str, Term)> {
    vec![
        ("Q1", q1()),
        ("Q2", q2()),
        ("Q3", q3()),
        ("Q4", q4()),
        ("Q5", q5()),
        ("Q6", q6()),
    ]
}

// ---------------------------------------------------------------------------
// Flat queries QF1–QF6 (Figure 8)
// ---------------------------------------------------------------------------

/// QF1: employees earning over 10 000.
pub(crate) fn qf1() -> Term {
    for_where(
        "e",
        table("employees"),
        gt(project(var("e"), "salary"), int(10000)),
        singleton(record(vec![("emp", project(var("e"), "name"))])),
    )
}

/// QF2: employees joined with their tasks.
pub fn qf2() -> Term {
    for_in(
        "e",
        table("employees"),
        for_where(
            "t",
            table("tasks"),
            eq(project(var("e"), "name"), project(var("t"), "employee")),
            singleton(record(vec![
                ("emp", project(var("e"), "name")),
                ("task", project(var("t"), "task")),
            ])),
        ),
    )
}

/// QF3: pairs of distinct employees in the same department with the same
/// salary.
pub(crate) fn qf3() -> Term {
    for_in(
        "e1",
        table("employees"),
        for_where(
            "e2",
            table("employees"),
            and(
                and(
                    eq(project(var("e1"), "dept"), project(var("e2"), "dept")),
                    eq(project(var("e1"), "salary"), project(var("e2"), "salary")),
                ),
                neq(project(var("e1"), "name"), project(var("e2"), "name")),
            ),
            singleton(record(vec![
                ("emp1", project(var("e1"), "name")),
                ("emp2", project(var("e2"), "name")),
            ])),
        ),
    )
}

/// The employees able to perform a given task (as ⟨emp⟩ records).
fn employees_with_task(task: &str) -> Term {
    for_where(
        "t",
        table("tasks"),
        eq(project(var("t"), "task"), string(task)),
        singleton(record(vec![("emp", project(var("t"), "employee"))])),
    )
}

/// The employees earning more than a threshold (as ⟨emp⟩ records).
fn employees_earning_over(threshold: i64) -> Term {
    for_where(
        "e",
        table("employees"),
        gt(project(var("e"), "salary"), int(threshold)),
        singleton(record(vec![("emp", project(var("e"), "name"))])),
    )
}

/// QF4: employees with the "abstract" task, together with employees earning
/// over 50 000 (`UNION ALL`).
pub(crate) fn qf4() -> Term {
    union(
        employees_with_task("abstract"),
        employees_earning_over(50000),
    )
}

/// QF5: employees with the "abstract" task who do *not* earn over 50 000
/// (the paper's `MINUS`, rendered as an emptiness test).
pub(crate) fn qf5() -> Term {
    for_where(
        "t",
        table("tasks"),
        and(
            eq(project(var("t"), "task"), string("abstract")),
            is_empty(for_where(
                "e",
                table("employees"),
                and(
                    gt(project(var("e"), "salary"), int(50000)),
                    eq(project(var("e"), "name"), project(var("t"), "employee")),
                ),
                singleton(record(vec![])),
            )),
        ),
        singleton(record(vec![("emp", project(var("t"), "employee"))])),
    )
}

/// QF6: the difference of two unions — (abstract-task ⊎ over-50 000) MINUS
/// (enthuse-task ⊎ over-10 000), again via an emptiness test.
pub fn qf6() -> Term {
    let left = union(
        employees_with_task("abstract"),
        employees_earning_over(50000),
    );
    let right = union(
        employees_with_task("enthuse"),
        employees_earning_over(10000),
    );
    for_where(
        "x",
        left,
        is_empty(for_where(
            "y",
            right,
            eq(project(var("y"), "emp"), project(var("x"), "emp")),
            singleton(record(vec![])),
        )),
        singleton(record(vec![("emp", project(var("x"), "emp"))])),
    )
}

/// All flat benchmark queries, with their names.
pub fn flat_queries() -> Vec<(&'static str, Term)> {
    vec![
        ("QF1", qf1()),
        ("QF2", qf2()),
        ("QF3", qf3()),
        ("QF4", qf4()),
        ("QF5", qf5()),
        ("QF6", qf6()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, organisation_schema, OrgConfig};
    use nrc::typecheck::typecheck;

    #[test]
    fn flat_queries_typecheck_with_flat_result_types() {
        let schema = organisation_schema();
        for (name, q) in flat_queries() {
            let rewritten = shredding::normalise::rewrite_to_normal_form(&q).unwrap();
            let ty = typecheck(&rewritten, &schema)
                .unwrap_or_else(|e| panic!("{} does not typecheck: {}", name, e));
            assert_eq!(ty.nesting_degree(), 1, "{} should be flat", name);
        }
    }

    #[test]
    fn nested_queries_typecheck_with_expected_nesting_degrees() {
        let schema = organisation_schema();
        let expected = [
            ("Q1", 4),
            ("Q2", 1),
            ("Q3", 2),
            ("Q4", 2),
            ("Q5", 2),
            ("Q6", 3),
        ];
        for ((name, q), (ename, degree)) in nested_queries().into_iter().zip(expected) {
            assert_eq!(name, ename);
            let rewritten = shredding::normalise::rewrite_to_normal_form(&q).unwrap();
            let ty = typecheck(&rewritten, &schema)
                .unwrap_or_else(|e| panic!("{} does not typecheck: {}", name, e));
            assert_eq!(ty.nesting_degree(), degree, "nesting degree of {}", name);
        }
    }

    #[test]
    fn every_benchmark_query_evaluates_on_a_small_instance() {
        let db = generate(&OrgConfig::small());
        for (name, q) in flat_queries().into_iter().chain(nested_queries()) {
            let v = nrc::eval(&q, &db).unwrap_or_else(|e| panic!("{} failed: {}", name, e));
            assert!(v.as_bag().is_some(), "{} should return a bag", name);
        }
    }

    #[test]
    fn qf5_excludes_high_earners() {
        let db = generate(&OrgConfig::small());
        let qf4 = nrc::eval(&qf4(), &db).unwrap();
        let qf5 = nrc::eval(&qf5(), &db).unwrap();
        assert!(qf5.as_bag().unwrap().len() <= qf4.as_bag().unwrap().len());
    }
}
