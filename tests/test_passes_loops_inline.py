"""Tests for LICM, loop unrolling, inlining, CFG simplification and
property-based semantic preservation of whole flag sequences."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    F64,
    I64,
    BasicBlock,
    Function,
    FunctionType,
    IRBuilder,
    Module,
    assert_valid,
    const_float,
    const_int,
    parse_function,
    pointer_to,
    print_module,
    run_function,
)
from repro.ir.interpreter import InterpreterError
from repro.ir.loops import find_loops
from repro.passes import (
    PassManager,
    apply_flag_sequence,
    pipeline,
    run_passes,
    sample_flag_sequences,
)
from repro.workloads import build_suite


def build_licm_candidate():
    """Loop with an invariant multiplication inside the body."""
    module = Module("licm")
    fn = Function("f", FunctionType(F64, [I64, F64, pointer_to(F64)]), ["n", "s", "a"], module)
    entry = BasicBlock("entry", fn)
    loop = BasicBlock("loop", fn)
    done = BasicBlock("exit", fn)
    b = IRBuilder(entry)
    b.br(loop)
    b.position_at_end(loop)
    i = b.phi(I64, "i")
    acc = b.phi(F64, "acc")
    invariant = b.fmul(fn.arguments[1], const_float(2.0), "inv")   # loop invariant
    ptr = b.gep(fn.arguments[2], [i], "ptr")
    val = b.load(ptr, "val")
    term = b.fmul(val, invariant, "term")
    acc_next = b.fadd(acc, term, "accn")
    i_next = b.add(i, const_int(1), "inext")
    cond = b.icmp("slt", i_next, fn.arguments[0], "cond")
    b.condbr(cond, loop, done)
    i.add_incoming(const_int(0), entry)
    i.add_incoming(i_next, loop)
    acc.add_incoming(const_float(0.0), entry)
    acc.add_incoming(acc_next, loop)
    b.position_at_end(done)
    b.ret(acc_next)
    return module, fn


class TestLICM:
    def test_invariant_hoisted_to_preheader(self):
        module, fn = build_licm_candidate()
        before = run_function(fn, [4, 3.0, [1.0, 2.0, 3.0, 4.0]])
        run_passes(module, ["licm"], verify_each=True)
        entry_opcodes = [inst.opcode for inst in fn.entry_block.instructions]
        assert "fmul" in entry_opcodes   # hoisted multiplication
        loop_block = fn.block_named("loop")
        invariant_left = [i for i in loop_block.instructions if i.name == "inv"]
        assert not invariant_left
        after = run_function(fn, [4, 3.0, [1.0, 2.0, 3.0, 4.0]])
        assert before == pytest.approx(after)

    def test_loads_are_not_hoisted(self):
        module, fn = build_licm_candidate()
        run_passes(module, ["licm"], verify_each=True)
        loop_block = fn.block_named("loop")
        assert any(inst.opcode == "load" for inst in loop_block.instructions)


class TestLoopUnroll:
    def build_constant_loop(self, trip: int):
        fn = parse_function(
            f"""
define f64 @sumk(f64 %x) {{
entry:
  br ^loop
loop:
  %i = phi i64 [0:i64, ^entry], [%inext, ^loop]
  %acc = phi f64 [0.0:f64, ^entry], [%accn, ^loop]
  %accn = fadd f64 %acc, %x
  %inext = add i64 %i, 1:i64
  %cond = icmp slt %inext, {trip}:i64
  condbr %cond, ^loop, ^done
done:
  ret %accn
}}
"""
        )
        return fn.parent, fn

    @pytest.mark.parametrize("trip", [1, 2, 4, 8])
    def test_full_unroll_small_loops(self, trip):
        module, fn = self.build_constant_loop(trip)
        expected = run_function(fn, [1.5])
        run_passes(module, ["loop-unroll"], verify_each=True)
        assert not find_loops(fn)   # loop is gone
        assert run_function(fn, [1.5]) == pytest.approx(expected)

    def test_large_loops_left_alone(self):
        module, fn = self.build_constant_loop(100)
        run_passes(module, ["loop-unroll"], verify_each=True)
        assert len(find_loops(fn)) == 1

    def test_non_constant_bounds_left_alone(self, dot_module):
        fn = dot_module.functions[0]
        run_passes(dot_module, ["loop-unroll"], verify_each=True)
        assert len(find_loops(fn)) == 1


class TestSimplifyCFG:
    def test_constant_branch_folded(self):
        fn = parse_function(
            """
define i64 @f() {
entry:
  condbr 1:i1, ^yes, ^no
yes:
  ret 10:i64
no:
  ret 20:i64
}
"""
        )
        module = fn.parent
        run_passes(module, ["simplifycfg"], verify_each=True)
        assert fn.block_named("no") is None
        assert run_function(fn, []) == 10

    def test_straightline_blocks_merged(self):
        fn = parse_function(
            """
define i64 @f(i64 %x) {
entry:
  %a = add i64 %x, 1:i64
  br ^next
next:
  %b = add i64 %a, 2:i64
  ret %b
}
"""
        )
        module = fn.parent
        before = run_function(fn, [5])
        run_passes(module, ["simplifycfg"], verify_each=True)
        assert len(fn.blocks) == 1
        assert run_function(fn, [5]) == before


class TestInliner:
    def build_caller(self):
        module = Module("inline")
        helper = Function("helper", FunctionType(F64, [F64]), ["x"], module)
        helper.attributes.add("inline")
        hb = IRBuilder(BasicBlock("entry", helper))
        doubled = hb.fmul(helper.arguments[0], const_float(2.0), "doubled")
        hb.ret(doubled)

        caller = Function("caller", FunctionType(F64, [F64]), ["v"], module)
        cb = IRBuilder(BasicBlock("entry", caller))
        result = cb.call(helper, [caller.arguments[0]], F64, "result")
        plus = cb.fadd(result, const_float(1.0), "plus")
        cb.ret(plus)
        return module, caller

    def test_call_is_inlined(self):
        module, caller = self.build_caller()
        before = run_function(caller, [3.0])
        run_passes(module, ["inline"], verify_each=True)
        opcodes = [inst.opcode for inst in caller.instructions()]
        assert "call" not in opcodes
        assert run_function(caller, [3.0]) == pytest.approx(before)

    def test_omp_outlined_not_inlined(self, region_suite):
        region = region_suite[0]
        module = region.module.clone()
        run_passes(module, ["inline"], verify_each=True)
        assert module.get_function(region.function_name) is not None

    def test_noinline_respected(self):
        module, caller = self.build_caller()
        module.get_function("helper").attributes.discard("inline")
        module.get_function("helper").attributes.add("noinline")
        run_passes(module, ["inline"], verify_each=True)
        assert any(inst.opcode == "call" for inst in caller.instructions())


class TestFlagSequences:
    def test_sampler_is_deterministic(self):
        a = sample_flag_sequences(10, seed=7)
        b = sample_flag_sequences(10, seed=7)
        assert [tuple(s) for s in a] == [tuple(s) for s in b]
        c = sample_flag_sequences(10, seed=8)
        assert [tuple(s) for s in a] != [tuple(s) for s in c]

    def test_sampled_passes_exist(self):
        from repro.passes import available_passes

        known = set(available_passes())
        for sequence in sample_flag_sequences(50, seed=0):
            assert set(sequence) <= known

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_drop_probability_shortens_sequences(self, seed):
        from repro.passes import O3_PIPELINE

        sequences = sample_flag_sequences(5, seed=seed, drop_probability=0.8)
        assert all(len(s) <= len(O3_PIPELINE) for s in sequences)

    def test_apply_flag_sequence_does_not_mutate_original(self, region_suite):
        region = region_suite[0]
        original_text = print_module(region.module)
        apply_flag_sequence(region.module, pipeline("O3"), verify_each=True)
        assert print_module(region.module) == original_text


class TestSemanticPreservation:
    """Property-style checks: optimization never changes observable results."""

    ARGS = {"n": 6}

    def _interpret_region(self, module, function_name):
        fn = module.get_function(function_name)
        args = []
        for arg in fn.arguments:
            if arg.type == I64:
                args.append(6)
            elif arg.type == pointer_to(F64):
                args.append([float(i % 5) + 0.5 for i in range(4096)])
            elif arg.type == pointer_to(I64):
                args.append([float((i * 7) % 64) for i in range(4096)])
            else:
                args.append(0.0)
        run_function(fn, args, max_steps=500_000)
        # Output arrays are mutated in place; return the first array's prefix
        # as the observable result.
        return [round(v, 6) for v in args[1][:32]] if len(args) > 1 else []

    @pytest.mark.parametrize("level", ["O1", "O2", "O3"])
    def test_o_levels_preserve_suite_semantics(self, region_suite, level):
        for region in region_suite[::11]:
            reference = self._interpret_region(region.module.clone(), region.function_name)
            optimized = apply_flag_sequence(region.module, pipeline(level), verify_each=True)
            result = self._interpret_region(optimized, region.function_name)
            assert result == pytest.approx(reference), region.name

    @pytest.mark.parametrize("name", ["blackscholes", "lulesh 2051"])
    def test_math_overflow_is_an_interpreter_error(self, region_suite, name):
        # exp() of these untransformed regions overflows on the fixed inputs;
        # the interpreter reports that as its own error, not math's.
        region = next(r for r in region_suite if r.name == name)
        with pytest.raises(InterpreterError, match="exp"):
            self._interpret_region(region.module.clone(), region.function_name)

    @given(st.integers(min_value=0, max_value=1_000))
    @settings(max_examples=8, deadline=None)
    def test_random_sequences_preserve_semantics(self, seed):
        regions = build_suite(families=["lulesh"], limit=2)
        sequences = sample_flag_sequences(2, seed=seed)
        for region in regions:
            reference = self._interpret_region(region.module.clone(), region.function_name)
            for sequence in sequences:
                optimized = apply_flag_sequence(region.module, list(sequence), verify_each=True)
                result = self._interpret_region(optimized, region.function_name)
                assert result == pytest.approx(reference), (region.name, list(sequence))
