//! `BENCHMARK.json` declares exactly the metrics the code reports, with
//! the same units.

use unit_perfbench::spec::{end_to_end, per_layer};

fn declared() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The unit declared right after `"name": "<name>"`.
fn unit_of<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let at = json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &json[at..];
    let u = rest.find("\"unit\": \"")? + "\"unit\": \"".len();
    let len = rest[u..].find('"')?;
    Some(&rest[u..u + len])
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let json = declared();
    let table: Vec<_> = end_to_end().into_iter().chain(per_layer()).collect();
    for (name, unit) in &table {
        assert_eq!(unit_of(&json, name), Some(*unit), "{name}");
    }
    let names = json.matches("\"name\": ").count();
    let workloads = 3;
    assert_eq!(
        names,
        table.len() + workloads,
        "undeclared or extra metrics"
    );
}
