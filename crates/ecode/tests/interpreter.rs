//! Smoke suite for the per-op reference interpreter.
//!
//! Instances built with `Instance::new_interpreted` run every event on
//! the interpreter, so these cases drive its stack push/pop paths, the
//! arena reuse across repeated runs, and the error exits (out-of-fuel,
//! divide-by-zero) that leave the block loop mid-program — checked
//! against the compiled tier wherever both can run.

use ecode::{EcodeError, ExecTier, Instance, Program, Type, Value};

fn compile(src: &str, inputs: &[(&str, Type)]) -> Program {
    Program::compile(src, inputs).expect("fixture compiles")
}

#[test]
fn counter_agrees_with_compiled_tier() {
    let p = compile(
        "static int n = 0;\n n = n + 1;\n return n;",
        &[("size", Type::Int)],
    );
    let mut interp = Instance::new_interpreted(&p);
    assert_eq!(interp.tier(), ExecTier::Interpreted);
    let mut compiled = Instance::new(&p);
    for i in 1..=8i64 {
        let a = interp.run(&[Value::Int(i)], 1_000).unwrap().ret;
        let b = compiled.run(&[Value::Int(i)], 1_000).unwrap().ret;
        assert_eq!(a, i);
        assert_eq!(a, b);
    }
}

#[test]
fn accumulators_and_outputs() {
    // Int and double accumulation, mixed promotion, and the out()
    // builtin writing through the shared output buffer.
    let p = compile(
        "static int events = 0;\n\
         static double total = 0.0;\n\
         events = events + 1;\n\
         total = total + 1.5 * size;\n\
         out(0, total / events);\n\
         return events;",
        &[("size", Type::Int)],
    );
    let mut inst = Instance::new_interpreted(&p);
    for run in 1..=4i64 {
        let out = inst.run(&[Value::Int(100)], 10_000).unwrap();
        assert_eq!(out.ret, run);
        assert_eq!(out.outputs.len(), 1);
        let (slot, mean) = out.outputs[0];
        assert_eq!(slot, 0);
        assert!((mean - 150.0).abs() < 1e-9);
    }
}

#[test]
fn branches_take_both_paths() {
    // Run once down each side of the branch.
    let p = compile(
        "static int big = 0;\n\
         static int small = 0;\n\
         if (size > 1000) { big = big + 1; } else { small = small + 1; }\n\
         return big - small;",
        &[("size", Type::Int)],
    );
    let mut inst = Instance::new_interpreted(&p);
    assert_eq!(inst.run(&[Value::Int(2000)], 1_000).unwrap().ret, 1);
    assert_eq!(inst.run(&[Value::Int(10)], 1_000).unwrap().ret, 0);
    // `run_per_op` forces the interpreter even on a compiled instance.
    let mut per_op = Instance::new(&p);
    assert_eq!(
        per_op.run_per_op(&[Value::Int(2000)], 1_000).unwrap().ret,
        1
    );
    assert_eq!(per_op.run_per_op(&[Value::Int(10)], 1_000).unwrap().ret, 0);
}

#[test]
fn out_of_fuel_aborts_cleanly_on_both_entries() {
    let p = compile(
        "static int n = 0;\n n = n + size + size + size;\n return n;",
        &[("size", Type::Int)],
    );
    let mut inst = Instance::new_interpreted(&p);
    assert!(matches!(
        inst.run(&[Value::Int(1)], 1),
        Err(EcodeError::OutOfFuel)
    ));
    assert!(matches!(
        inst.run_per_op(&[Value::Int(1)], 1),
        Err(EcodeError::OutOfFuel)
    ));
    // The instance stays usable after an abort (arenas are reset per
    // run, not poisoned).
    assert!(inst.run(&[Value::Int(1)], 1_000).is_ok());
}

#[test]
fn divide_by_zero_aborts_cleanly() {
    let p = compile("return 10 / size;", &[("size", Type::Int)]);
    let mut inst = Instance::new_interpreted(&p);
    assert!(matches!(
        inst.run(&[Value::Int(0)], 1_000),
        Err(EcodeError::DivideByZero)
    ));
    assert!(matches!(
        inst.run_per_op(&[Value::Int(0)], 1_000),
        Err(EcodeError::DivideByZero)
    ));
    assert_eq!(inst.run(&[Value::Int(5)], 1_000).unwrap().ret, 2);
}

#[test]
fn globals_reset_and_arena_reuse() {
    let p = compile(
        "static int n = 0;\n n = n + 1;\n return n;",
        &[("size", Type::Int)],
    );
    let mut inst = Instance::new_interpreted(&p);
    for _ in 0..3 {
        inst.run(&[Value::Int(0)], 1_000).unwrap();
    }
    assert_eq!(inst.global("n"), Some(Value::Int(3)));
    inst.reset_globals();
    assert_eq!(inst.run(&[Value::Int(0)], 1_000).unwrap().ret, 1);
}
