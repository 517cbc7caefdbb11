//! Fuzz-style totality properties: for *arbitrary* generated programs,
//! inputs, schedules, environment faults, and overlays, the interpreter
//! must terminate with a classified outcome — never panic, never loop
//! past its budget.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use softborg_program::gen::{generate, sample_inputs, BugKind, GenConfig};
use softborg_program::interp::{ExecConfig, Executor, NopObserver, Outcome};
use softborg_program::overlay::{GuardAction, LoopBound, Overlay, SiteGuard};
use softborg_program::sched::RandomSched;
use softborg_program::syscall::{DefaultEnv, EnvConfig};
use softborg_program::{BlockId, Loc, ThreadId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary program × schedule × environment: execution is total.
    #[test]
    fn prop_interpreter_is_total(
        gen_seed in 0u64..1_000_000,
        sched_seed in any::<u64>(),
        input_seed in any::<u64>(),
        short_read in 0u32..1000,
        bug_mask in 0usize..64,
    ) {
        let bugs: Vec<BugKind> = BugKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| bug_mask & (1 << i) != 0)
            .map(|(_, k)| *k)
            .collect();
        let gp = generate(&GenConfig {
            seed: gen_seed,
            constructs_per_thread: 6,
            bugs,
            ..GenConfig::default()
        });
        gp.program.validate().expect("generated programs validate");
        let mut rng = SmallRng::seed_from_u64(input_seed);
        let inputs = sample_inputs(gp.program.n_inputs, gp.input_range, &mut rng);
        let mut exec = Executor::new(&gp.program).with_config(ExecConfig { max_steps: 5_000 });
        let r = exec
            .run(
                &inputs,
                &mut DefaultEnv::new(EnvConfig {
                    seed: input_seed,
                    short_read_per_mille: short_read,
                    open_fail_per_mille: short_read / 2,
                    ..EnvConfig::default()
                }),
                &mut RandomSched::seeded(sched_seed),
                &Overlay::empty(),
                &mut NopObserver,
            )
            .expect("arity always matches");
        prop_assert!(r.steps <= 5_000);
        // Outcome is one of the four classes (pattern match is the check).
        match r.outcome {
            Outcome::Success | Outcome::Crash { .. } | Outcome::Deadlock { .. } | Outcome::Hang { .. } => {}
        }
    }

    /// Arbitrary (even nonsensical) overlays never break totality or
    /// determinism.
    #[test]
    fn prop_overlays_preserve_totality_and_determinism(
        gen_seed in 0u64..1_000_000,
        run_seed in any::<u64>(),
        guard_thread in 0u32..2,
        guard_block in 0u32..8,
        guard_stmt in 0u32..4,
        action_pick in 0u8..3,
        bound in 1u64..50,
    ) {
        let gp = generate(&GenConfig {
            seed: gen_seed,
            constructs_per_thread: 6,
            bugs: vec![BugKind::AssertMagic],
            ..GenConfig::default()
        });
        let mut overlay = Overlay::empty();
        overlay.guards.push(SiteGuard {
            loc: Loc {
                thread: ThreadId::new(guard_thread),
                block: BlockId::new(guard_block),
                stmt: guard_stmt,
            },
            when: softborg_program::expr::Expr::Const(1),
            action: match action_pick {
                0 => GuardAction::SkipStmt,
                1 => GuardAction::ExitThread,
                _ => GuardAction::SetPlace(softborg_program::cfg::local(0), 7),
            },
        });
        overlay.loop_bounds.push(LoopBound {
            thread: ThreadId::new(guard_thread),
            header: BlockId::new(guard_block),
            max_iters: bound,
        });
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let inputs = sample_inputs(gp.program.n_inputs, gp.input_range, &mut rng);
        let mut exec = Executor::new(&gp.program).with_config(ExecConfig { max_steps: 5_000 });
        let run = |exec: &mut Executor<'_>| {
            exec.run(
                &inputs,
                &mut DefaultEnv::seeded(run_seed),
                &mut RandomSched::seeded(run_seed),
                &overlay,
                &mut NopObserver,
            )
            .expect("arity")
        };
        let a = run(&mut exec);
        let b = run(&mut exec);
        prop_assert_eq!(a, b, "identical seeds must replay identically");
    }
}
