//! `BENCHMARK.json`, compiled in: the one list of workloads, metrics,
//! units, directions and bounds. `run` prints from it and `compare`
//! judges by it; nothing in this crate repeats a name it holds.

use crate::json::Json;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Allowed relative worsening of the median (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bench {
    /// Seconds one run measures for on the reference host: `--seconds`
    /// at this value runs every workload's frozen block count.
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Bench {
    /// The `BENCHMARK.json` this binary was built beside.
    pub fn load() -> Bench {
        Bench::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json")
    }

    fn parse(text: &str) -> Result<Bench, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("no {key} list"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("an entry lacks {key}"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Bench {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compiled_in_contract_parses_and_bounds_only_end_to_end_metrics() {
        let bench = Bench::load();
        assert!(bench.run_seconds >= 1.0 && bench.workloads.len() >= 2);
        assert!(bench
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(bench.end_to_end.iter().any(|m| m.name == "setup_s"));
        assert!(bench.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn a_metric_keeps_its_unit_direction_and_bound() {
        let bench = Bench::parse(
            r#"{"run_seconds": 3, "workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "a", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "l.b", "unit": "ms", "better": "lower"}]}"#,
        )
        .unwrap();
        assert_eq!(bench.workloads, ["w"]);
        assert_eq!(
            bench.end_to_end[0],
            Metric {
                name: "a".into(),
                unit: "1/s".into(),
                higher_is_better: true,
                bound: Some(0.1)
            }
        );
        assert!(!bench.per_layer[0].higher_is_better && bench.per_layer[0].bound.is_none());
        assert!(Bench::parse(r#"{"run_seconds": 3}"#).is_err());
    }
}
