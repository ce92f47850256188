//! Table 1 — the computation, memory-access, and communication operators
//! Seer uses for LLaMA 3.
//!
//! Paper: 17 operator families across Input Embedding, Transformer Layer,
//! and Output Layer, typed Mem. / Comp. / Comm. / Mem.+Comp.

use crate::{Report, Scenario};
use astral_model::{build_training_iteration, ModelConfig, ParallelismConfig, TABLE1};

pub(crate) fn run() -> Report {
    let mut sc = Scenario::new(
        "table1",
        "Table 1: LLaMA-3 operators in Seer",
        "17 operator families (Input Embedding / Transformer Layer / Output \
         Layer) typed Mem./Comp./Comm.",
    );

    let model = ModelConfig::llama3_70b();
    let mut par = ParallelismConfig::new(8, 8, 2);
    par.microbatches = 8;
    let graph = build_training_iteration(&model, &par);

    let inventory = graph.operator_inventory();
    let type_of = |name: &str| -> &'static str {
        inventory
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
            .unwrap_or("MISSING")
    };

    let mut missing = 0;
    let mut rows = Vec::new();
    for row in &TABLE1 {
        let t = type_of(row.name);
        rows.push((row.section, row.name, t));
        if t == "MISSING" {
            missing += 1;
        } else {
            assert_eq!(t, row.label, "{} is typed unlike the paper", row.name);
        }
    }
    let total = TABLE1.len();
    sc.table("operators", "section | operator | type", &rows);

    sc.metric("forward_rows", total as u64);
    sc.metric("missing_rows", missing as u64);
    sc.metric("distinct_families_total", inventory.len() as u64);
    assert_eq!(missing, 0, "every Table-1 operator must exist in the graph");

    sc.finish(&[
        (
            "operator families",
            format!("paper 17 forward rows | generated {total} rows, {missing} missing"),
        ),
        (
            "type labels",
            "paper Mem./Comp./Comm./Mem.+Comp. | identical labels emitted".to_string(),
        ),
    ])
}
