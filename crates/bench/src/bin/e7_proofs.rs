//! E7 — cumulative proofs from natural executions (§3.3): fraction of
//! the tree inside proven subtrees vs executions, with and without
//! symbolic infeasibility pruning ("smoothing over" the second hurdle —
//! subtrees that never get explored naturally).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_bench::{banner, cell, collect_path, table_header};
use softborg_guidance::PlannerConfig;
use softborg_program::gen::sample_inputs;
use softborg_program::scenarios;
use softborg_symex::{InputBox, SymConfig};
use softborg_tree::{ExecutionTree, NodeId};

fn main() {
    banner(
        "E7",
        "cumulative proof assembly vs executions",
        "§3.3 ('incrementally assembling cumulative proofs of correctness')",
    );
    let s = scenarios::triangle();
    println!("program: {} (bug-free; inputs 1..=20 per side)\n", s.name);
    table_header(&[
        ("execs", 8),
        ("closed% nat", 12),
        ("proofs nat", 11),
        ("closed% sym", 12),
        ("proofs sym", 11),
        ("whole?", 8),
    ]);
    let planner = PlannerConfig {
        sym: SymConfig {
            input_box: InputBox::uniform(3, 1, 20),
            ..SymConfig::default()
        },
        max_targets: 64,
        ..PlannerConfig::default()
    };
    let mut natural = ExecutionTree::new(s.program.id());
    let mut symbolic = ExecutionTree::new(s.program.id());
    let mut rng = SmallRng::seed_from_u64(2);
    let mut checkpoint = 50u64;
    for i in 0..20_000u64 {
        let inputs = sample_inputs(3, s.input_range, &mut rng);
        let (path, outcome) = collect_path(&s.program, &inputs, i);
        natural.merge_path(&path, &outcome);
        symbolic.merge_path(&path, &outcome);
        if i + 1 == checkpoint {
            // Symbolic arm: prune infeasible frontier arms each checkpoint.
            let (_plan, _stats) = softborg_guidance::plan(&s.program, &mut symbolic, &planner);
            let nat_certs = softborg_hive::assemble(&natural);
            let sym_certs = softborg_hive::assemble(&symbolic);
            let whole = sym_certs.iter().any(|c| c.is_whole_program());
            println!(
                "{}{}{}{}{}{}",
                cell(i + 1, 8),
                cell(
                    format!("{:.1}", natural.coverage().closed_fraction * 100.0),
                    12
                ),
                cell(nat_certs.len(), 11),
                cell(
                    format!("{:.1}", symbolic.coverage().closed_fraction * 100.0),
                    12
                ),
                cell(sym_certs.len(), 11),
                cell(if whole { "YES" } else { "no" }, 8)
            );
            if whole && symbolic.is_closed(NodeId::ROOT) {
                // Verify the whole-program certificate independently.
                for c in sym_certs {
                    softborg_hive::verify(&c, &symbolic).expect("certificate verifies");
                }
                println!(
                    "\nwhole-program proof published and verified after {} executions",
                    i + 1
                );
                break;
            }
            checkpoint *= 2;
        }
    }
    println!("\nexpected shape: natural execution alone closes most of the");
    println!("tree but stalls on arms whose inputs are never drawn (or are");
    println!("infeasible); symbolic infeasibility pruning closes those gaps,");
    println!("letting finitely many executions yield a *proof* — the paper's");
    println!("test/proof spectrum.");
}
